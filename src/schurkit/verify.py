"""Executable theorem suites.

Each suite compares a classification predicate against the brute-force
oracle, or exhausts a combinatorial identity over a bounded domain, and
produces a machine-readable report.  A suite passes exactly when its
discrepancy list is empty, and a failing suite always names at least one
concrete counterexample partition.  Reports are deterministic up to the
elapsed-time field.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import classify
from .characters import frobenius_twist, kostka, schur_char
from .classify import (
    is_1special,
    is_21good_piecewise,
    is_21special,
    is_2good,
    is_2special,
    standard_parses,
)
from .oracle import FAMILIES, SimpleTable, _degree_splits, decompose_simples, enumerate_factors, factor_dimensions_check
from .oracle import product_char, simple_char_defect
from .partitions import (
    Dominance,
    add,
    addable_nodes,
    dagger,
    dominance_leq,
    is_bounded,
    is_restricted,
    omega,
    p_adic_digits,
    p_core,
    partition,
    partitions_of,
    partitions_up_to,
    recombine,
    removable_nodes,
    restricted_split,
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
    "thm-21special": [(2, 3, 10), (3, 3, 15), (5, 2, 18), (5, 3, 27), (3, 4, 20), (2, 6, 18)],
    "1special": [(p, n, max(8, n * (p - 1))) for p in (2, 3, 5) for n in (1, 2, 3, 4)] + [(7, 4, 24), (5, 5, 20)],
    "combinatorial": [(2, 30), (3, 30), (5, 30), (7, 30)],
    "oracle-self": [(2, 2, 10), (3, 3, 9), (5, 2, 8)],
}

# the fast tier plus the frontier: the configs where degree and n grow
EXTENDED_TIER = {
    "thm-2good": FAST_TIER["thm-2good"]
    + [(3, 3, 24), (5, 3, 16), (3, 4, 14), (3, 4, 18), (5, 4, 16), (2, 5, 10), (3, 5, 12), (2, 6, 8)],
    "thm-21special": FAST_TIER["thm-21special"] + [(7, 3, 39), (3, 5, 25)],
    "1special": FAST_TIER["1special"],
    "combinatorial": FAST_TIER["combinatorial"],
    "oracle-self": FAST_TIER["oracle-self"] + [(2, 3, 12)],
}


@dataclass
class SuiteReport:
    suite: str
    params: dict
    discrepancies: list
    elapsed: float
    oracle_stats: dict | None = None
    sub_reports: list = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return not self.discrepancies

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
    params = {"p": p, "n": n, "rmax": rmax, "family": family}
    return SuiteReport(name, params, discrepancies, time.time() - start, _stats_since(table, before))


def suite_thm_2good(p: int, n: int, rmax: int, table: SimpleTable) -> SuiteReport:
    """Factors of the twofold symmetric power are exactly the standard partitions."""
    return _set_equality_suite("thm-2good", is_2good, "SS", rmax, _checked(table, p, n))


def suite_thm_21special(p: int, n: int, rmax: int, table: SimpleTable) -> SuiteReport:
    """Factors of truncated x truncated x exterior are the mu + omega_s partitions."""
    return _set_equality_suite("thm-21special", is_21special, "SbarSbarWedge", rmax, _checked(table, p, n))


def suite_1special(p: int, n: int, rmax: int, table: SimpleTable) -> SuiteReport:
    """Factors of the truncated symmetric power are the (p-1)^k a partitions."""
    return _set_equality_suite("1special", is_1special, "Sbar", rmax, _checked(table, p, n))


def _sub_report(name: str, check) -> SuiteReport:
    """Run and time check, a generator that yields the params of sub-report
    `name` and then each discrepancy it finds."""
    start = time.time()
    params, *bad = check
    return SuiteReport(name, params, bad, time.time() - start)


def _with_subs(name, params, subs, start, oracle_stats=None) -> SuiteReport:
    """The report of a suite made of the sub-reports subs."""
    discrepancies = [d for rep in subs for d in rep.discrepancies]
    return SuiteReport(name, params, discrepancies, time.time() - start, oracle_stats, subs)


# --- combinatorial invariants ---------------------------------------------------


def _ignores_p(check):
    """Turn check(bound), a check that does not read p, into a check(p, bound).

    The check runs once per process and bound, and every prime replays its
    params and discrepancies, the same objects each time.  The replay is a
    generator, so the first run is timed inside its sub-report."""

    @functools.cache
    def once(bound):
        return tuple(check(bound))

    def replay(p, bound):
        yield from once(bound)

    return replay


@_ignores_p
def _check_transpose_involution(bound):
    bound = min(bound, 30)
    yield {"bound": bound}
    for lam in partitions_up_to(bound):
        if transpose(transpose(lam)) != lam:
            yield {"partition": list(lam)}


@_ignores_p
def _check_bounded_duality(bound):
    bound = min(bound, 25)
    yield {"bound": bound}
    for lam in partitions_up_to(bound):
        conj = transpose(lam)
        for a in range(5):
            for b in range(5):
                if is_bounded(lam, a, b) != is_bounded(conj, b, a):
                    yield {"partition": list(lam), "a": a, "b": b}


def _check_p_core(p, bound):
    bound = min(bound, 20)
    yield {"p": p, "bound": bound}
    cores: dict = {}

    def all_core_results(lam):
        if lam in cores:
            return cores[lam]
        hooks = rim_hook_removals(lam, p)
        out = {lam} if not hooks else set().union(*(all_core_results(nu) for nu in hooks))
        cores[lam] = out
        return out

    for lam in partitions_up_to(bound):
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
            yield {"partition": list(lam), "reasons": reasons}


def _check_digits(p, bound):
    bound = min(bound, 20)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        dg = p_adic_digits(lam, p)
        if recombine(dg.digits, p) != lam or not all(is_restricted(d, p) for d in dg.digits):
            yield {"partition": list(lam)}


def _check_dagger_involution(p, bound):
    # each box n x c caps the degree itself, so the sub-report records the bound uncapped
    yield {"p": p, "bound": bound}
    for a, b in ((1, 0), (2, 0), (2, 1), (0, 1)):
        c = a * (p - 1) + b
        for n in range(1, 5):
            for lam in partitions_up_to(min(bound, c * n), max_len=n, max_part=c):
                if dagger(dagger(lam, a, b, p, n), a, b, p, n) != lam:
                    yield {"partition": list(lam), "a": a, "b": b, "n": n}


def _check_residue_negation(p, bound):
    bound = min(bound, 20)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        ours = [(nd.row, nd.col) for nd in suitable_nodes(lam, p)]
        adds = [(r, (c - r) % p) for r, c in addable_nodes(lam)]
        flipped = [
            (r, c)
            for r, c in removable_nodes(lam)
            if all(ar <= r or ares != (c - r) % p for ar, ares in adds)
        ]
        if ours != flipped:
            yield {"partition": list(lam)}


def _check_parse_uniqueness(p, bound):
    bound = min(bound, 30)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        count = len(standard_parses(lam, p))
        if count > 1:
            yield {"partition": list(lam), "parses": count}


def _check_reciprocity(p, bound):
    # the stated domain is the full n x (2p-1) box for n <= 6, so the degree
    # bound is not applied here
    yield {"p": p, "maxLen": 6, "maxPart": 2 * p - 1}
    for n in range(1, 7):
        for lam in partitions_up_to(n * (2 * p - 1), max_len=n, max_part=2 * p - 1):
            if is_21special(lam, p) != is_21special(dagger(lam, 2, 1, p, n), p):
                yield {"partition": list(lam), "n": n}


def _check_row_removal(p, bound):
    bound = min(bound, 20)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        if len(lam) < 1:
            continue
        for pred in (is_2special, is_21special, is_2good):
            if pred(lam, p):
                drop_last = lam[:-1]
                drop_first = partition(lam[1:])
                if not pred(drop_last, p) or not pred(drop_first, p):
                    yield {"partition": list(lam), "predicate": pred.__name__}


def _check_full_first_row(p, bound):
    bound = min(bound, 20)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        if lam and lam[0] == 2 * p - 1:
            if is_21special(lam, p) != is_21special(partition(lam[1:]), p):
                yield {"partition": list(lam)}


def _check_additivity(p, bound):
    bound = min(bound, 20)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        if not is_2special(lam, p):
            continue
        for s in range(len(lam) + 3):
            if not is_21special(add(lam, omega(s)), p):
                yield {"partition": list(lam), "s": s}


def _check_piecewise(p, bound):
    if p == 2:
        yield {"p": p, "skipped": "precondition p>2"}
        return
    bound = min(bound, 25)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        if is_restricted(lam, p):
            if is_21good_piecewise(lam, p) != is_21special(lam, p):
                yield {"partition": list(lam)}


def _check_core_gate(p, bound):
    bound = min(bound, 20)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        if is_21special(lam, p) and not is_bounded(p_core(lam, p), 2, 1):
            yield {"partition": list(lam), "core": list(p_core(lam, p))}


def _check_suitable_closure(p, bound):
    bound = min(bound, 20)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        if not is_21special(lam, p):
            continue
        for node in suitable_nodes(lam, p):
            if not is_21special(remove_node(lam, node), p):
                yield {"partition": list(lam), "node": [node.row, node.col]}


def _check_2special_standard(p, bound):
    bound = min(bound, 30)
    yield {"p": p, "bound": bound}
    for lam in partitions_up_to(bound):
        if is_2special(lam, p) and not classify.is_standard(lam, p):
            yield {"partition": list(lam)}


_COMBINATORIAL_CHECKS = {
    "transpose-involution": _check_transpose_involution,
    "bounded-duality": _check_bounded_duality,
    "p-core": _check_p_core,
    "digit-roundtrip": _check_digits,
    "dagger-involution": _check_dagger_involution,
    "residue-negation": _check_residue_negation,
    "parse-uniqueness": _check_parse_uniqueness,
    "reciprocity": _check_reciprocity,
    "row-removal": _check_row_removal,
    "full-first-row": _check_full_first_row,
    "additivity": _check_additivity,
    "piecewise-consistency": _check_piecewise,
    "p-core-gate": _check_core_gate,
    "suitable-node-closure": _check_suitable_closure,
    "2special-is-standard": _check_2special_standard,
}


def suite_combinatorial(p: int, bound: int = 30) -> SuiteReport:
    """Exhaustive structural identities of the partition and classification layers."""
    start = time.time()
    subs = [_sub_report(f"combinatorial/{name}", check(p, bound)) for name, check in _COMBINATORIAL_CHECKS.items()]
    return _with_subs("combinatorial", {"p": p, "bound": bound}, subs, start)


# --- oracle self-audits ----------------------------------------------------------


def _check_gram_sanity(p, n, rmax, table, bigger):
    yield {"p": p, "n": n, "rmax": rmax}
    for lam in partitions_up_to(rmax, max_len=n):
        chi = table.char(lam)
        if defect := simple_char_defect(lam, chi.coeffs):
            yield {"partition": list(lam), "reason": defect}
        for mu, c in chi.coeffs.items():
            if c > kostka(lam, mu) or dominance_leq(mu, lam) is not Dominance.LEQ:
                yield {"partition": list(lam), "weight": list(mu)}


def _check_steinberg(p, n, rmax, table, bigger):
    yield {"p": p, "n": n, "rmax": rmax}
    for lam in partitions_up_to(rmax, max_len=n):
        if is_restricted(lam, p):
            continue
        lam0, lbar = restricted_split(lam, p)
        if table.char(lam) != table.char(lam0) * frobenius_twist(table.char(lbar), p):
            yield {"partition": list(lam)}


def _check_semisimple_range(p, n, rmax, table, bigger):
    yield {"p": p, "n": n, "rmax": rmax}
    for lam in partitions_up_to(rmax, max_len=n):
        if sum(lam) < p and table.char(lam) != schur_char(lam, n):
            yield {"partition": list(lam)}


def _check_block_gate(p, n, rmax, table, bigger):
    bound = min(rmax, 10)
    yield {"p": p, "n": n, "bound": bound}
    for mu in partitions_up_to(bound, max_len=n):
        chi = schur_char(mu, n)
        factors = decompose_simples(chi, table)
        for lam in factors:
            if p_core(lam, p) != p_core(mu, p):
                yield {"partition": list(mu), "factor": list(lam)}
        if not factor_dimensions_check(factors, chi, table):
            yield {"partition": list(mu), "reason": "dimension mismatch"}


def _check_dimension_audit(p, n, rmax, table, bigger):
    bound = min(rmax, 8)
    yield {"p": p, "n": n, "bound": bound}
    for r in range(bound + 1):
        for family in ("SS", "SbarSbar"):
            for spec in _degree_splits(FAMILIES[family], r, p, n):
                chi = product_char(spec, p, n)
                if not factor_dimensions_check(decompose_simples(chi, table), chi, table):
                    yield {"spec": [list(t) for t in spec]}


def _check_stability(p, n, rmax, table, bigger):
    bound = min(rmax, 8)
    yield {"p": p, "n": n, "bound": bound}
    if bigger is None:
        return
    for family in ("SS", "Sbar"):
        for r in range(bound + 1):
            small = enumerate_factors(family, r, table)
            big = enumerate_factors(family, r, bigger)
            if small != {lam for lam in big if len(lam) <= n}:
                yield {"family": family, "degree": r}


def _check_restricted_good_special(p, n, rmax, table, bigger):
    bound = min(rmax, 8)
    yield {"p": p, "n": n, "bound": bound}
    for r in range(bound + 1):
        good = enumerate_factors("SS", r, table)
        special = enumerate_factors("SbarSbar", r, table)
        if {l for l in good if is_restricted(l, p)} != {l for l in special if is_restricted(l, p)}:
            yield {"degree": r}


_ORACLE_SELF_CHECKS = {
    "gram-sanity": _check_gram_sanity,
    "steinberg": _check_steinberg,
    "semisimple-range": _check_semisimple_range,
    "block-gate": _check_block_gate,
    "dimension-audit": _check_dimension_audit,
    "stability": _check_stability,
    "restricted-good-special": _check_restricted_good_special,
}


def suite_oracle_self(p: int, n: int, rmax: int, table: SimpleTable) -> SuiteReport:
    """Internal consistency of the brute-force oracle at the table's (p, n):
    Gram sanity, Steinberg, semisimple range, block gate, dimension audit,
    stability in n, and restricted good = special.  For n < 4 the stability
    check opens the table of (p, n + 1) with this table's budget and cache
    directory, and its hits and misses count in the report's oracle stats."""
    start = time.time()
    before = _checked(table, p, n).stats()
    with SimpleTable(p, n + 1, table.budget, table.cache_dir) if n < 4 else nullcontext() as bigger:
        subs = [
            _sub_report(f"oracle-self/{name}", check(p, n, rmax, table, bigger))
            for name, check in _ORACLE_SELF_CHECKS.items()
        ]
    stats = _stats_since(table, before)
    if bigger is not None:
        stats["cacheHits"] += bigger.hits
        stats["cacheMisses"] += bigger.misses
    return _with_subs("oracle-self", {"p": p, "n": n, "rmax": rmax}, subs, start, stats)


# Each suite's parameters are those of its function: a grid config gives the
# ones before `table`, and a suite that takes a table runs on the SimpleTable
# of its config's (p, n).
SUITES = {
    "thm-2good": suite_thm_2good,
    "thm-21special": suite_thm_21special,
    "1special": suite_1special,
    "combinatorial": suite_combinatorial,
    "oracle-self": suite_oracle_self,
}


def run(grid: dict, **table_options) -> list:
    """The reports of each suite of grid, {name: [config, ...]}, on each of
    its configs in order.

    The suites that take a table share one SimpleTable(p, n, **table_options)
    per (p, n), and each suite runs in that table's with block, so with a
    cache directory the table is persisted after each suite."""
    reports = []
    tables: dict = {}
    for name, configs in grid.items():
        suite = SUITES[name]
        takes_table = "table" in inspect.signature(suite).parameters
        for cfg in configs:
            if not takes_table:
                reports.append(suite(*cfg))
                continue
            p, n = cfg[:2]
            if (p, n) not in tables:
                tables[p, n] = SimpleTable(p, n, **table_options)
            with tables[p, n] as table:
                reports.append(suite(*cfg, table))
    return reports
