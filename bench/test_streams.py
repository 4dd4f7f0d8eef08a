"""Self-tests of the benchmark's input generators and metric list.

    python3 -m pytest bench/test_streams.py -q
"""

import json
from itertools import islice

import run
import streams


def take(gen, k=300):
    return list(islice(gen, k))


def test_same_seed_same_inputs():
    assert streams.certify_order(7) == streams.certify_order(7)
    assert take(streams.query_requests(7)) == take(streams.query_requests(7))
    assert take(streams.classify_requests(7)) == take(streams.classify_requests(7))


def test_other_seed_other_inputs_of_same_count():
    for gen in (streams.query_requests, streams.classify_requests):
        a, b = take(gen(1)), take(gen(2))
        assert len(a) == len(b) and a != b
    # the certification grid is fixed: a seed only orders it
    orders = {tuple(streams.certify_order(seed)) for seed in range(10)}
    assert len(orders) == 2
    assert all(sorted(o) == sorted(streams.CERTIFY_GRID) for o in orders)


def test_query_requests_stay_on_the_filled_tables():
    tables = {(p, n): r for p, n, r in streams.QUERY_TABLES}
    kinds = set()
    for kind, params in take(streams.query_requests(3), 2000):
        kinds.add(kind)
        if kind == "chars":
            assert sum(params["degrees"]) in streams.CHARS_DEGREES[params["n"]]
            continue
        p, n = params["p"], params["n"]
        if kind == "enumerate":
            assert params["degree"] == tables[(p, n)]
            continue
        assert sum(d for _, d in params["spec"]) == tables[(p, n)]
        for factor, d in params["spec"]:
            assert d >= 1
            assert factor != "Wedge" or d <= n
            assert factor != "Sbar" or d <= n * (p - 1)
    assert kinds == {"oracle", "enumerate", "chars"}


def test_chars_shapes_are_every_split_into_two_or_three_parts():
    assert streams._shapes(2) == [(1, 1)]
    assert streams._shapes(4) == [(3, 1), (2, 2), (2, 1, 1)]
    for total in range(2, 11):
        shapes = streams._shapes(total)
        assert len(set(shapes)) == len(shapes)
        assert all(sum(s) == total and 2 <= len(s) <= 3 and list(s) == sorted(s, reverse=True) for s in shapes)


def test_query_mix_is_the_same_for_every_seed():
    block = sum(k for _, k in streams.QUERY_BLOCK)
    for seed in (1, 2):
        counts = {}
        for kind, params in take(streams.query_requests(seed), 10 * block):
            counts[kind] = counts.get(kind, 0) + 1
        assert counts == {kind: 10 * k for kind, k in streams.QUERY_BLOCK}


def test_cached_table_requests_are_over_half_of_a_block():
    # the median request must read and save the persisted table
    block = sum(k for _, k in streams.QUERY_BLOCK)
    cached = sum(k for kind, k in streams.QUERY_BLOCK if kind in streams.CACHED_KINDS)
    assert cached / block >= 0.55


def test_classify_requests_cover_both_halves():
    small = large = 0
    for lam, p in take(streams.classify_requests(5), 2000):
        assert p in streams.CLASSIFY_PRIMES
        assert all(a >= b >= 1 for a, b in zip(lam, lam[1:] + (1,)))
        if sum(lam) <= streams.CLASSIFY_MAX_DEGREE:
            small += 1
        if len(lam) == 3 and max(lam) <= streams.CLASSIFY_MAX_PART:
            large += 1
    assert small >= 1000 and large >= 1000


def test_classify_stream_stays_inside_every_domain():
    pkg = run.Package()
    P, C = pkg.partitions, pkg.classify
    domains = {
        "is_critical_n3": lambda lam, p: len(lam) <= 3,
        "divisibility_index_n3": lambda lam, p: len(lam) <= 3,
        "g1_inj_n3": lambda lam, p: len(lam) <= 3,
        "specht_d_lower": lambda lam, p: P.is_restricted(lam, p),
        "specht_d_upper": lambda lam, p: P.is_regular(lam, p),
        "is_21good_piecewise": lambda lam, p: p > 2 and P.is_restricted(lam, p),
    }
    calls = {name: 0 for name in domains}
    outside = []

    def guard(name, fn):
        def checked(lam, p):
            calls[name] += 1
            if not domains[name](lam, p):
                outside.append((name, lam, p))
            return fn(lam, p)

        return checked

    for name in domains:
        setattr(C, name, guard(name, getattr(C, name)))
    for lam, p in take(streams.classify_requests(11), 1500):
        run.classify_op(pkg, lam, p)
    assert not outside
    assert all(calls.values()), calls


def test_reference_kostka_matches_young_rule():
    # h2*h1 = s[3] + s[2,1]; h1^3 = s[3] + 2 s[2,1] + s[1,1,1]
    assert run.kostka_ref((2, 1), (2, 1)) == 1
    assert run.kostka_ref((1, 1, 1), (2, 1)) == 0
    assert run.kostka_ref((2, 1), (1, 1, 1)) == 2
    assert run.kostka_ref((3, 2, 1), (2, 2, 2)) == 2


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
