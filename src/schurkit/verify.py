"""Executable theorem suites.

Each suite compares a classification predicate against the brute-force
oracle, or exhausts a combinatorial identity over a bounded domain, and
produces a machine-readable report.  A suite passes exactly when its
discrepancy list is empty, and a failing suite always names at least one
concrete counterexample partition.  Reports are deterministic up to the
elapsed-time field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import classify
from .classify import (
    is_1special,
    is_21good_piecewise,
    is_21special,
    is_2good,
    is_2special,
    standard_parses,
)
from .oracle import DEFAULT_BUDGET, SimpleTable, enumerate_factors
from .partitions import (
    add,
    dagger,
    is_bounded,
    is_restricted,
    omega,
    p_adic_digits,
    p_core,
    partition,
    partitions_of,
    partitions_up_to,
    recombine,
    rim_hook_removals,
    suitable_nodes,
    remove_node,
    transpose,
)

FAST_TIER = {
    "thm-2good": [
        (2, 2, 14),
        (2, 3, 12),
        (3, 2, 14),
        (3, 3, 12),
        (3, 3, 14),
        (3, 3, 18),
        (5, 2, 12),
        (5, 3, 10),
        (7, 3, 20),
        (2, 4, 10),
        (2, 4, 12),
        (2, 5, 8),
        (3, 4, 10),
        (5, 3, 14),
    ],
    # the next two families are finite: each config reaches its top degree
    "thm-21special": [(2, 3, 10), (3, 3, 15), (5, 2, 18)],
    "1special": [(p, n, max(8, n * (p - 1))) for p in (2, 3, 5) for n in (1, 2, 3, 4)],
    "combinatorial": [(2, 30), (3, 30), (5, 30), (7, 30)],
    "oracle-self": [(2, 2, 10), (3, 3, 9), (5, 2, 8)],
}

EXTENDED_TIER = {
    "thm-2good": FAST_TIER["thm-2good"],
    "thm-21special": FAST_TIER["thm-21special"],
    "1special": FAST_TIER["1special"],
    "combinatorial": FAST_TIER["combinatorial"],
    "oracle-self": FAST_TIER["oracle-self"] + [(2, 3, 12)],
}


@dataclass
class SuiteReport:
    suite: str
    params: dict
    verdict: bool
    discrepancies: list
    elapsed: float
    oracle_stats: dict | None = None
    sub_reports: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "params": self.params,
            "verdict": "pass" if self.verdict else "fail",
            "discrepancies": self.discrepancies,
            "elapsed": round(self.elapsed, 3),
        }
        if self.oracle_stats is not None:
            out["oracleStats"] = self.oracle_stats
        if self.sub_reports:
            out["subReports"] = [r.to_dict() for r in self.sub_reports]
        return out


def _stats_since(table: SimpleTable, before: dict) -> dict:
    """The table's stats, with hits and misses counted from the snapshot
    before, so a suite reports only the oracle work it caused."""
    stats = table.stats()
    for key in ("cacheHits", "cacheMisses"):
        stats[key] -= before[key]
    return stats


def _checked(table: SimpleTable, p: int, n: int) -> SimpleTable:
    """table, once it is known to be the table of (p, n)."""
    if (table.p, table.n) != (p, n):
        raise ValueError(f"the table is for p={table.p}, n={table.n}, not p={p}, n={n}")
    return table


def _set_equality_suite(name, predicate, family, rmax, table):
    start = time.time()
    p, n = table.p, table.n
    before = table.stats()
    discrepancies = []
    for r in range(rmax + 1):
        oracle_set = enumerate_factors(family, r, table)
        predicted = {lam for lam in partitions_of(r, max_len=n) if predicate(lam, p)}
        for lam in sorted(oracle_set | predicted, reverse=True):
            if (lam in predicted) != (lam in oracle_set):
                discrepancies.append(
                    {
                        "partition": list(lam),
                        "degree": r,
                        "expected": lam in predicted,
                        "actual": lam in oracle_set,
                    }
                )
    return SuiteReport(
        suite=name,
        params={"p": p, "n": n, "rmax": rmax, "family": family},
        verdict=not discrepancies,
        discrepancies=discrepancies,
        elapsed=time.time() - start,
        oracle_stats=_stats_since(table, before),
    )


def suite_thm_2good(p: int, n: int, rmax: int, table: SimpleTable) -> SuiteReport:
    """Factors of the twofold symmetric power are exactly the standard partitions."""
    return _set_equality_suite("thm-2good", is_2good, "SS", rmax, _checked(table, p, n))


def suite_thm_21special(p: int, n: int, rmax: int, table: SimpleTable) -> SuiteReport:
    """Factors of truncated x truncated x exterior are the mu + omega_s partitions."""
    return _set_equality_suite("thm-21special", is_21special, "SbarSbarWedge", rmax, _checked(table, p, n))


def suite_1special(p: int, n: int, rmax: int, table: SimpleTable) -> SuiteReport:
    """Factors of the truncated symmetric power are the (p-1)^k a partitions."""
    return _set_equality_suite("1special", is_1special, "Sbar", rmax, _checked(table, p, n))


# --- combinatorial invariants ---------------------------------------------------


def _sub(name, params, discrepancies, start):
    return SuiteReport(name, params, not discrepancies, discrepancies, time.time() - start)


def _check_transpose_involution(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 30)):
        if transpose(transpose(lam)) != lam:
            bad.append({"partition": list(lam)})
    return _sub("combinatorial/transpose-involution", {"bound": min(bound, 30)}, bad, start)


def _check_bounded_duality(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 25)):
        conj = transpose(lam)
        for a in range(5):
            for b in range(5):
                if is_bounded(lam, a, b) != is_bounded(conj, b, a):
                    bad.append({"partition": list(lam), "a": a, "b": b})
    return _sub("combinatorial/bounded-duality", {"bound": min(bound, 25)}, bad, start)


def _check_p_core(p, bound):
    start = time.time()
    bad = []
    cores: dict = {}

    def all_core_results(lam):
        if lam in cores:
            return cores[lam]
        hooks = rim_hook_removals(lam, p)
        out = {lam} if not hooks else set().union(*(all_core_results(nu) for nu in hooks))
        cores[lam] = out
        return out

    for lam in partitions_up_to(min(bound, 20)):
        core = p_core(lam, p)
        reasons = []
        if p_core(core, p) != core:
            reasons.append("not idempotent")
        if (sum(lam) - sum(core)) % p:
            reasons.append("degree drop not a multiple of p")
        via_stripping = all_core_results(lam)
        if via_stripping != {core}:
            reasons.append(f"rim stripping order-dependent: {sorted(via_stripping)}")
        if reasons:
            bad.append({"partition": list(lam), "reasons": reasons})
    return _sub("combinatorial/p-core", {"p": p, "bound": min(bound, 20)}, bad, start)


def _check_digits(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 20)):
        dg = p_adic_digits(lam, p)
        if recombine(dg.digits, p) != lam or not all(is_restricted(d, p) for d in dg.digits):
            bad.append({"partition": list(lam)})
    return _sub("combinatorial/digit-roundtrip", {"p": p, "bound": min(bound, 20)}, bad, start)


def _check_dagger_involution(p, bound):
    start = time.time()
    bad = []
    for a, b in ((1, 0), (2, 0), (2, 1), (0, 1)):
        c = a * (p - 1) + b
        for n in range(1, 5):
            for lam in partitions_up_to(min(bound, c * n), max_len=n, max_part=c):
                if dagger(dagger(lam, a, b, p, n), a, b, p, n) != lam:
                    bad.append({"partition": list(lam), "a": a, "b": b, "n": n})
    return _sub("combinatorial/dagger-involution", {"p": p, "bound": bound}, bad, start)


def _check_residue_negation(p, bound):
    start = time.time()
    bad = []
    from .partitions import addable_nodes, removable_nodes

    for lam in partitions_up_to(min(bound, 20)):
        ours = [(nd.row, nd.col) for nd in suitable_nodes(lam, p)]
        adds = [(r, (c - r) % p) for r, c in addable_nodes(lam)]
        flipped = [
            (r, c)
            for r, c in removable_nodes(lam)
            if all(ar <= r or ares != (c - r) % p for ar, ares in adds)
        ]
        if ours != flipped:
            bad.append({"partition": list(lam)})
    return _sub("combinatorial/residue-negation", {"p": p, "bound": min(bound, 20)}, bad, start)


def _check_parse_uniqueness(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 30)):
        count = len(standard_parses(lam, p))
        if count > 1:
            bad.append({"partition": list(lam), "parses": count})
    return _sub("combinatorial/parse-uniqueness", {"p": p, "bound": min(bound, 30)}, bad, start)


def _check_reciprocity(p, bound):
    # the stated domain is the full n x (2p-1) box for n <= 6, so the degree
    # bound is not applied here
    start = time.time()
    bad = []
    for n in range(1, 7):
        for lam in partitions_up_to(n * (2 * p - 1), max_len=n, max_part=2 * p - 1):
            if is_21special(lam, p) != is_21special(dagger(lam, 2, 1, p, n), p):
                bad.append({"partition": list(lam), "n": n})
    return _sub("combinatorial/reciprocity", {"p": p, "maxLen": 6, "maxPart": 2 * p - 1}, bad, start)


def _check_row_removal(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 20)):
        if len(lam) < 1:
            continue
        for pred in (is_2special, is_21special, is_2good):
            if pred(lam, p):
                drop_last = lam[:-1]
                drop_first = partition(lam[1:])
                if not pred(drop_last, p) or not pred(drop_first, p):
                    bad.append({"partition": list(lam), "predicate": pred.__name__})
    return _sub("combinatorial/row-removal", {"p": p, "bound": min(bound, 20)}, bad, start)


def _check_full_first_row(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 20)):
        if lam and lam[0] == 2 * p - 1:
            if is_21special(lam, p) != is_21special(partition(lam[1:]), p):
                bad.append({"partition": list(lam)})
    return _sub("combinatorial/full-first-row", {"p": p, "bound": min(bound, 20)}, bad, start)


def _check_additivity(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 20)):
        if not is_2special(lam, p):
            continue
        for s in range(len(lam) + 3):
            if not is_21special(add(lam, omega(s)), p):
                bad.append({"partition": list(lam), "s": s})
    return _sub("combinatorial/additivity", {"p": p, "bound": min(bound, 20)}, bad, start)


def _check_piecewise(p, bound):
    start = time.time()
    if p == 2:
        rep = _sub("combinatorial/piecewise-consistency", {"p": p, "skipped": "precondition p>2"}, [], start)
        return rep
    bad = []
    for lam in partitions_up_to(min(bound, 25)):
        if is_restricted(lam, p):
            if is_21good_piecewise(lam, p) != is_21special(lam, p):
                bad.append({"partition": list(lam)})
    return _sub("combinatorial/piecewise-consistency", {"p": p, "bound": min(bound, 25)}, bad, start)


def _check_core_gate(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 20)):
        if is_21special(lam, p) and not is_bounded(p_core(lam, p), 2, 1):
            bad.append({"partition": list(lam), "core": list(p_core(lam, p))})
    return _sub("combinatorial/p-core-gate", {"p": p, "bound": min(bound, 20)}, bad, start)


def _check_suitable_closure(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 20)):
        if not is_21special(lam, p):
            continue
        for node in suitable_nodes(lam, p):
            if not is_21special(remove_node(lam, node), p):
                bad.append({"partition": list(lam), "node": [node.row, node.col]})
    return _sub("combinatorial/suitable-node-closure", {"p": p, "bound": min(bound, 20)}, bad, start)


def _check_2special_standard(p, bound):
    start = time.time()
    bad = []
    for lam in partitions_up_to(min(bound, 30)):
        if is_2special(lam, p) and not classify.is_standard(lam, p):
            bad.append({"partition": list(lam)})
    return _sub("combinatorial/2special-is-standard", {"p": p, "bound": min(bound, 30)}, bad, start)


_COMBINATORIAL_CHECKS = (
    _check_transpose_involution,
    _check_bounded_duality,
    _check_p_core,
    _check_digits,
    _check_dagger_involution,
    _check_residue_negation,
    _check_parse_uniqueness,
    _check_reciprocity,
    _check_row_removal,
    _check_full_first_row,
    _check_additivity,
    _check_piecewise,
    _check_core_gate,
    _check_suitable_closure,
    _check_2special_standard,
)


def suite_combinatorial(p: int, bound: int) -> SuiteReport:
    """Exhaustive structural identities of the partition and classification layers."""
    start = time.time()
    subs = [check(p, bound) for check in _COMBINATORIAL_CHECKS]
    discrepancies = [d for rep in subs for d in rep.discrepancies]
    return SuiteReport(
        suite="combinatorial",
        params={"p": p, "bound": bound},
        verdict=all(r.verdict for r in subs),
        discrepancies=discrepancies,
        elapsed=time.time() - start,
        sub_reports=subs,
    )


# --- oracle self-audits ----------------------------------------------------------


def oracle_self_checks(rmax: int, table: SimpleTable) -> list:
    """Gram sanity, Steinberg, semisimple range, block gate, dimension audit,
    stability in n, and restricted good = special, at the table's (p, n)."""
    from .characters import frobenius_twist, kostka, schur_char
    from .oracle import decompose_simples, factor_dimensions_check, product_char, simple_char_defect
    from .partitions import Dominance, dominance_leq, restricted_split

    p, n = table.p, table.n
    subs = []

    start = time.time()
    bad = []
    lams = list(partitions_up_to(rmax, max_len=n))
    for lam in lams:
        chi = table.char(lam)
        if defect := simple_char_defect(lam, chi.coeffs):
            bad.append({"partition": list(lam), "reason": defect})
        for mu, c in chi.coeffs.items():
            if c > kostka(lam, mu) or dominance_leq(mu, lam) is not Dominance.LEQ:
                bad.append({"partition": list(lam), "weight": list(mu)})
    subs.append(_sub("oracle-self/gram-sanity", {"p": p, "n": n, "rmax": rmax}, bad, start))

    start = time.time()
    bad = []
    for lam in lams:
        if is_restricted(lam, p):
            continue
        lam0, lbar = restricted_split(lam, p)
        if table.char(lam) != table.char(lam0) * frobenius_twist(table.char(lbar), p):
            bad.append({"partition": list(lam)})
    subs.append(_sub("oracle-self/steinberg", {"p": p, "n": n, "rmax": rmax}, bad, start))

    start = time.time()
    bad = []
    for lam in lams:
        if sum(lam) < p and table.char(lam) != schur_char(lam, n):
            bad.append({"partition": list(lam)})
    subs.append(_sub("oracle-self/semisimple-range", {"p": p, "n": n, "rmax": rmax}, bad, start))

    start = time.time()
    bad = []
    for mu in partitions_up_to(min(rmax, 10), max_len=n):
        chi = schur_char(mu, n)
        factors = decompose_simples(chi, table)
        for lam in factors:
            if p_core(lam, p) != p_core(mu, p):
                bad.append({"partition": list(mu), "factor": list(lam)})
        if not factor_dimensions_check(factors, chi, table):
            bad.append({"partition": list(mu), "reason": "dimension mismatch"})
    subs.append(_sub("oracle-self/block-gate", {"p": p, "n": n, "bound": min(rmax, 10)}, bad, start))

    start = time.time()
    bad = []
    for r in range(min(rmax, 8) + 1):
        for a in range(r // 2 + 1):
            for spec in (
                (("S", a), ("S", r - a)),
                (("Sbar", a), ("Sbar", r - a)),
            ):
                chi = product_char(spec, p, n)
                if not factor_dimensions_check(decompose_simples(chi, table), chi, table):
                    bad.append({"spec": [list(t) for t in spec]})
    subs.append(_sub("oracle-self/dimension-audit", {"p": p, "n": n, "bound": min(rmax, 8)}, bad, start))

    start = time.time()
    bad = []
    if n < 4:
        bigger = SimpleTable(p, n + 1, budget=table.budget)
        for family in ("SS", "Sbar"):
            for r in range(min(rmax, 8) + 1):
                small = enumerate_factors(family, r, table)
                big = enumerate_factors(family, r, bigger)
                if small != {lam for lam in big if len(lam) <= n}:
                    bad.append({"family": family, "degree": r})
    subs.append(_sub("oracle-self/stability", {"p": p, "n": n, "bound": min(rmax, 8)}, bad, start))

    start = time.time()
    bad = []
    for r in range(min(rmax, 8) + 1):
        good = enumerate_factors("SS", r, table)
        special = enumerate_factors("SbarSbar", r, table)
        if {l for l in good if is_restricted(l, p)} != {l for l in special if is_restricted(l, p)}:
            bad.append({"degree": r})
    subs.append(_sub("oracle-self/restricted-good-special", {"p": p, "n": n, "bound": min(rmax, 8)}, bad, start))

    return subs


def suite_oracle_self(p: int, n: int, rmax: int, table: SimpleTable) -> SuiteReport:
    """Internal consistency of the brute-force oracle."""
    start = time.time()
    before = _checked(table, p, n).stats()
    subs = oracle_self_checks(rmax, table)
    discrepancies = [d for rep in subs for d in rep.discrepancies]
    return SuiteReport(
        suite="oracle-self",
        params={"p": p, "n": n, "rmax": rmax},
        verdict=all(r.verdict for r in subs),
        discrepancies=discrepancies,
        elapsed=time.time() - start,
        oracle_stats=_stats_since(table, before),
        sub_reports=subs,
    )


SUITES = {
    "thm-2good": suite_thm_2good,
    "thm-21special": suite_thm_21special,
    "1special": suite_1special,
    "combinatorial": suite_combinatorial,
    "oracle-self": suite_oracle_self,
}


def run_tier(tier: str, budget: int = DEFAULT_BUDGET, cache_dir: str | None = None) -> list:
    """Run the whole battery for a tier; returns the list of reports.

    Each (p, n) gets one table, shared by the suites that use it; a suite
    runs in the table's with block, so the table is persisted after each
    suite when cache_dir is given."""
    grid = FAST_TIER if tier == "fast" else EXTENDED_TIER
    reports = []
    tables: dict = {}
    for name, configs in grid.items():
        for cfg in configs:
            if name == "combinatorial":
                p, bound = cfg
                reports.append(suite_combinatorial(p, bound))
            else:
                p, n, rmax = cfg
                if (p, n) not in tables:
                    tables[p, n] = SimpleTable(p, n, budget, cache_dir)
                with tables[p, n] as table:
                    reports.append(SUITES[name](p, n, rmax, table))
    return reports
