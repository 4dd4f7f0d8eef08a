import json

import pytest

from schurkit import verify
from schurkit.errors import ResourceBudgetExceeded
from schurkit.oracle import DEFAULT_BUDGET, SimpleTable, _peel, _splits
from schurkit.verify import (
    EXTENDED_TIER,
    FAST_TIER,
    _set_equality_suite,
    run,
    suite_1special,
    suite_combinatorial,
    suite_oracle_self,
    suite_thm_21special,
    suite_thm_2good,
)


def test_suite_reports_pass_at_small_size():
    table = SimpleTable(2, 2)
    rep = suite_thm_2good(2, 2, 8, table)
    assert rep.verdict and rep.discrepancies == []
    assert rep.params == {"p": 2, "n": 2, "rmax": 8, "family": "SS"}
    assert rep.oracle_stats["cachedCharacters"] > 0

    rep = suite_thm_21special(3, 2, 6, SimpleTable(3, 2))
    assert rep.verdict

    rep = suite_1special(5, 2, 6, SimpleTable(5, 2))
    assert rep.verdict


def test_suite_report_serialization_shape():
    rep = suite_thm_2good(2, 2, 4, SimpleTable(2, 2))
    doc = rep.to_dict()
    assert doc["verdict"] == "pass"
    assert doc["suite"] == "thm-2good"
    assert doc["discrepancies"] == []
    assert "oracleStats" in doc
    json.dumps(doc)  # serializable


def test_failing_suite_names_counterexample():
    # a deliberately wrong predicate must surface concrete partitions
    rep = _set_equality_suite("broken", lambda lam, p: False, "Sbar", 3, SimpleTable(2, 2))
    assert not rep.verdict
    assert rep.discrepancies
    assert all("partition" in d for d in rep.discrepancies)
    assert rep.to_dict()["verdict"] == "fail"


def test_combinatorial_suite_structure():
    rep = suite_combinatorial(3, 10)
    assert rep.verdict
    assert len(rep.sub_reports) == 15
    names = {s.suite for s in rep.sub_reports}
    assert "combinatorial/parse-uniqueness" in names
    assert "combinatorial/reciprocity" in names
    # the two checks that do not read p run for each prime, with params of their own
    other = suite_combinatorial(5, 10)
    for name in ("transpose-involution", "bounded-duality"):
        mine, theirs = (next(s for s in r.sub_reports if s.suite == f"combinatorial/{name}") for r in (rep, other))
        assert mine.params == theirs.params == {"bound": 10}
        assert mine.params is not theirs.params


def test_a_degree_range_past_the_limit_stops_before_its_first_degree(monkeypatch):
    for suite in (suite_thm_2good, suite_1special, suite_oracle_self):
        table = SimpleTable(2, 3)
        with pytest.raises(ResourceBudgetExceeded, match="more than 300000 partitions with at most 3 parts"):
            suite(2, 3, 10**20, table)
        assert table.misses == 0
    # one partition per degree in one variable: the limit is exact
    verify._bounded_degrees(DEFAULT_BUDGET - 1, 1)
    with pytest.raises(ResourceBudgetExceeded):
        verify._bounded_degrees(DEFAULT_BUDGET, 1)
    # the binomial bound passes every tier config, so none is counted
    monkeypatch.setattr(verify, "islice", None)
    for name in ("thm-2good", "thm-21special", "1special", "oracle-self"):
        for p, n, rmax in EXTENDED_TIER[name]:
            verify._bounded_degrees(rmax, n)


def test_combinatorial_p2_skips_piecewise():
    rep = suite_combinatorial(2, 8)
    assert rep.verdict
    piecewise = [s for s in rep.sub_reports if s.suite.endswith("piecewise-consistency")]
    assert piecewise[0].params.get("skipped") == "precondition p>2"


def test_oracle_self_suite():
    rep = suite_oracle_self(3, 2, 6, SimpleTable(3, 2))
    assert rep.verdict
    names = {s.suite for s in rep.sub_reports}
    assert {
        "oracle-self/gram-sanity",
        "oracle-self/steinberg",
        "oracle-self/semisimple-range",
        "oracle-self/block-gate",
        "oracle-self/dimension-audit",
        "oracle-self/stability",
        "oracle-self/restricted-good-special",
    } <= names


def test_suites_reject_a_table_of_another_p_n():
    for suite in (suite_thm_2good, suite_thm_21special, suite_1special, suite_oracle_self):
        for p, n in ((3, 2), (2, 3)):
            with pytest.raises(ValueError, match=f"the table is for p={p}, n={n}, not p=2, n=2"):
                suite(2, 2, 4, SimpleTable(p, n))


def test_run_clears_the_oracle_memos():
    assert [rep.verdict for rep in run({"thm-2good": [(2, 3, 6)]})] == [True]
    assert _peel.cache_info().currsize == 0
    assert _splits.cache_info().currsize == 0


def test_a_save_keeps_the_records_another_table_of_its_p_n_saved(tmp_path):
    # oracle-self (2,2,8) saves its stability table of (2,3); the run's own
    # table of (2,3), loaded before that, saves again after oracle-self (2,3,3)
    grid = {"thm-2good": [(2, 3, 2)], "oracle-self": [(2, 2, 8), (2, 3, 3)]}
    run(grid, cache_dir=tmp_path)
    assert len((tmp_path / "simple_p2_n3.jsonl").read_text().splitlines()) >= 39
    assert [rep.oracle_stats["cacheMisses"] for rep in run(grid, cache_dir=tmp_path)] == [0, 0, 0]


def test_oracle_stats_count_each_suite_alone():
    table = SimpleTable(2, 2)
    first = suite_1special(2, 2, 6, table)
    second = suite_1special(2, 2, 6, table)
    assert first.oracle_stats["cacheMisses"] > 0
    assert second.oracle_stats["cacheMisses"] == 0
    assert second.oracle_stats["cacheHits"] == first.oracle_stats["cacheHits"] + first.oracle_stats["cacheMisses"]
    assert second.oracle_stats["cachedCharacters"] == first.oracle_stats["cachedCharacters"]


def test_suites_are_deterministic():
    a = suite_thm_2good(2, 2, 6, SimpleTable(2, 2)).to_dict()
    b = suite_thm_2good(2, 2, 6, SimpleTable(2, 2)).to_dict()
    a.pop("elapsed"), b.pop("elapsed")
    a.pop("oracleStats"), b.pop("oracleStats")
    assert a == b


def test_fast_tier_configs_present():
    assert {(3, 3, 12), (3, 3, 14), (2, 4, 10)} <= set(FAST_TIER["thm-2good"])
    assert {(3, 3, 18), (2, 4, 12), (2, 5, 8), (7, 3, 20)} <= set(FAST_TIER["thm-2good"])
    assert {(3, 4, 10), (5, 3, 14)} <= set(FAST_TIER["thm-2good"])
    assert {(2, 3, 10), (3, 3, 15), (5, 2, 18)} <= set(FAST_TIER["thm-21special"])
    assert {(5, 3, 12), (5, 4, 16)} <= set(FAST_TIER["1special"])
    # whole families at larger p and n
    assert {(5, 3, 27), (3, 4, 20), (2, 6, 18)} <= set(FAST_TIER["thm-21special"])
    assert {(7, 4, 24), (5, 5, 20)} <= set(FAST_TIER["1special"])
    # S̄^r E vanishes above r = n(p-1) and Λ^c E above c = n, so each
    # finite family is checked whole at its top degree
    for tier in (FAST_TIER, EXTENDED_TIER):
        for p, n, rmax in tier["1special"]:
            assert rmax >= n * (p - 1), (p, n, rmax)
        for p, n, rmax in tier["thm-21special"]:
            assert rmax >= 2 * n * (p - 1) + n, (p, n, rmax)
    for configs in list(FAST_TIER.values()) + list(EXTENDED_TIER.values()):
        assert len(configs) == len(set(configs))  # no config is run twice
    # the extended tier is the fast tier plus the frontier
    for name, configs in FAST_TIER.items():
        assert EXTENDED_TIER[name][: len(configs)] == configs, name
    frontier = {(3, 3, 24), (5, 3, 16), (3, 4, 14), (3, 4, 18), (5, 4, 16), (2, 5, 10), (3, 5, 12), (2, 6, 8)}
    assert frontier <= set(EXTENDED_TIER["thm-2good"])
    assert {(7, 3, 39), (3, 5, 25)} <= set(EXTENDED_TIER["thm-21special"])


def test_thm_2good_degree_15_within_default_budget():
    table = SimpleTable(3, 3)
    assert table.budget == DEFAULT_BUDGET
    rep = suite_thm_2good(3, 3, 15, table)
    assert rep.verdict and rep.discrepancies == []
