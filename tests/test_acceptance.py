"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Oracle tables are shared across criteria through a session fixture so the
self-audits of criterion 7 run over every simple character the earlier
criteria computed.  Run with -s (or read the captured output) to see the
per-criterion lines.
"""

import random

import pytest

from schurkit.classify import (
    divisibility_index_n3,
    g1_inj_n3,
    is_21special,
    is_2good,
    primitive_index,
)
from schurkit.characters import frobenius_twist, kostka, power_char, schur_char
from schurkit.oracle import SimpleTable, decompose_simples, enumerate_factors, factor_dimensions_check
from schurkit.partitions import (
    Dominance,
    dominance_leq,
    is_restricted,
    p_core,
    partitions_up_to,
    restricted_split,
    rim_hook_removals,
)
from schurkit.verify import suite_1special, suite_combinatorial, suite_thm_21special, suite_thm_2good

CRIT1_CONFIGS = [(2, 2, 14), (2, 3, 12), (3, 2, 14), (3, 3, 12), (5, 2, 12), (5, 3, 10)]
CRIT2_CONFIGS = [(2, 3, 10), (3, 3, 10), (5, 2, 10)]


@pytest.fixture(scope="session")
def tables():
    return {}


@pytest.fixture(scope="module")
def combinatorial():
    """The combinatorial suite at bound 30 for each prime, run once for
    criteria 5, 6 and 8."""
    return {p: suite_combinatorial(p, 30) for p in (2, 3, 5, 7)}


def _table(tables, p, n):
    return tables.setdefault((p, n), SimpleTable(p, n))


def _line(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}".rstrip())


def test_criterion1_thm_2good_equivalence(tables):
    failures = []
    for p, n, rmax in CRIT1_CONFIGS:
        rep = suite_thm_2good(p, n, rmax, _table(tables, p, n))
        if not rep.verdict:
            failures.append((p, n, rmax, rep.discrepancies[:3]))
    # mandatory index-1 primitive witness at p=2, n=3, degree 12
    witness_ok = (6, 4, 2) in enumerate_factors("SS", 12, _table(tables, 2, 3)) and (
        primitive_index((6, 4, 2), 2) == 1
    )
    ok = not failures and witness_ok
    _line(1, ok, f"thm-2good equivalence on {CRIT1_CONFIGS}; (6,4,2) witness={witness_ok}")
    assert not failures, failures
    assert witness_ok


def test_criterion2_thm_21special_equivalence(tables):
    failures = []
    for p, n, rmax in CRIT2_CONFIGS:
        rep = suite_thm_21special(p, n, rmax, _table(tables, p, n))
        if not rep.verdict:
            failures.append((p, n, rmax, rep.discrepancies[:3]))
    in_oracle = (2, 2, 2) in enumerate_factors("SbarSbarWedge", 6, _table(tables, 3, 3))
    ok = not failures and in_oracle and is_21special((2, 2, 2), 3)
    _line(2, ok, f"thm-21special equivalence on {CRIT2_CONFIGS}; (2,2,2) in factors and (2,1)-special")
    assert not failures, failures
    assert in_oracle
    assert is_21special((2, 2, 2), 3)


def test_criterion2_witness_222_not_2good_as_stated(tables):
    """The checklist's witness, "(2,2,2) is not 2-good at p=3", is wrong.

    At p=3, n=3 the degree-6 truncated power has the single weight (2,2,2),
    so it is the one-dimensional simple L(2,2,2); being a quotient of
    S^6 E = S^6 E (x) S^0 E, (2,2,2) is 2-good.  The test asserts that
    truncated-power character, the oracle's degree-6 factor and is_2good.
    """
    truncated = power_char(6, 3, 2).coeffs
    in_ss = (2, 2, 2) in enumerate_factors("SS", 6, _table(tables, 3, 3))
    good = is_2good((2, 2, 2), 3)
    ok = truncated == {(2, 2, 2): 1} and in_ss is True and good is True
    _line(
        2,
        ok,
        "(witness) checklist's '(2,2,2) not 2-good at p=3' was wrong: truncated S^6 = L(2,2,2), "
        f"a quotient of S^6 (x) S^0; truncated char={truncated}, oracle factor={in_ss}, 2good={good}",
    )
    assert truncated == {(2, 2, 2): 1}
    assert in_ss is True
    assert good is True


def test_criterion3_1special_baseline(tables):
    failures = []
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            rep = suite_1special(p, n, 8, _table(tables, p, n))
            if not rep.verdict:
                failures.append((p, n, rep.discrepancies[:3]))
    _line(3, not failures, "truncated-power factors match (p-1)^k a for p in {2,3,5}, n<=4, r<=8")
    assert not failures, failures


def test_criterion4_p_core_anchors():
    anchors_ok = p_core((4, 4, 3, 1, 1), 3) == (4, 2, 2, 1, 1) and p_core((4, 4, 2, 1, 1), 3) == (
        3,
        2,
        2,
        1,
        1,
    )
    rng = random.Random(20150120)
    pool = [lam for lam in partitions_up_to(20) if lam]
    random_ok = True
    for _ in range(200):
        lam = rng.choice(pool)
        p = rng.choice([2, 3, 5])
        cur = lam
        while True:
            hooks = rim_hook_removals(cur, p)
            if not hooks:
                break
            cur = rng.choice(hooks)
        if cur != p_core(lam, p):
            random_ok = False
            break
    ok = anchors_ok and random_ok
    _line(4, ok, "golden cores (4,2,2,1,1)/(3,2,2,1,1) plus 200 seeded removal orders")
    assert anchors_ok
    assert random_ok


def _combinatorial_sub(report, name):
    return next(sub for sub in report.sub_reports if sub.suite == f"combinatorial/{name}")


def test_criterion5_parse_uniqueness(combinatorial):
    subs = [_combinatorial_sub(combinatorial[p], "parse-uniqueness") for p in (2, 3, 5, 7)]
    bad = [(sub.params["p"], d) for sub in subs for d in sub.discrepancies]
    at_bound = all(sub.params["bound"] == 30 for sub in subs)
    _line(5, not bad and at_bound, "at most one primitive-chain parse, degree<=30, p in {2,3,5,7}")
    assert at_bound
    assert not bad, bad[:5]


def test_criterion6_piecewise_consistency(combinatorial):
    subs = [_combinatorial_sub(combinatorial[p], "piecewise-consistency") for p in (3, 5, 7)]
    bad = [(sub.params["p"], d) for sub in subs for d in sub.discrepancies]
    at_bound = all(sub.params["bound"] == 25 for sub in subs)
    _line(6, not bad and at_bound, "first-row piecewise forms = omega-subtraction search, degree<=25")
    assert at_bound
    assert not bad, bad[:5]


def test_criterion7_oracle_self_audits(tables):
    bad = []
    for (p, n), table in sorted(tables.items()):
        for lam, chi in sorted(table.cache.items()):
            if chi.coeffs.get(lam) != 1:
                bad.append(("top-multiplicity", p, n, lam))
            for mu, c in chi.coeffs.items():
                if c < 0 or c > kostka(lam, mu) or dominance_leq(mu, lam) is not Dominance.LEQ:
                    bad.append(("gram-sanity", p, n, lam, mu))
            if sum(lam) < p and chi != schur_char(lam, n):
                bad.append(("semisimple", p, n, lam))
            if lam and not is_restricted(lam, p):
                lam0, lbar = restricted_split(lam, p)
                if chi != table.char(lam0) * frobenius_twist(table.char(lbar), p):
                    bad.append(("steinberg", p, n, lam))
    # block gate and dimension audit on induced characters
    for p in (2, 3):
        table = _table(tables, p, 3)
        for mu in partitions_up_to(10, max_len=3):
            chi = schur_char(mu, 3)
            factors = decompose_simples(chi, table)
            if not factor_dimensions_check(factors, chi, table):
                bad.append(("dimension", p, mu))
            for lam in factors:
                if p_core(lam, p) != p_core(mu, p):
                    bad.append(("block-gate", p, mu, lam))
    _line(7, not bad, "Steinberg, semisimple range, block gate, dimension audit over all cached characters")
    assert not bad, bad[:5]


def test_criterion8_structural_invariants(combinatorial):
    failures = []
    for p, rep in combinatorial.items():
        if not rep.verdict:
            failures.extend(
                (p, sub.suite, sub.discrepancies[:2]) for sub in rep.sub_reports if not sub.verdict
            )
    _line(8, not failures, "dagger/reciprocity/row-removal/suitable-closure/additivity/duality at stated bounds")
    assert not failures, failures


def test_criterion9_remark38_anchors(tables):
    checks = {
        "divind((2,2,2),5)=2": divisibility_index_n3((2, 2, 2), 5) == 2,
        "g1inj((4,2),3)": g1_inj_n3((4, 2), 3) is True,
        "g1inj(0,2)=False": g1_inj_n3((), 2) is False,
        "g1inj(0,3)=False": g1_inj_n3((), 3) is False,
        "g1inj(0,5)=False": g1_inj_n3((), 5) is False,
    }
    # oracle confirmation of the criticality calls behind divind at p=5:
    # neither (2,2,2) nor (1,1,1) is a degree-matched factor, the zero
    # partition is
    t5 = _table(tables, 5, 3)
    checks["oracle: (2,2,2) not critical at p=5"] = (2, 2, 2) not in enumerate_factors("SS", 6, t5)
    checks["oracle: (1,1,1) not critical at p=5"] = (1, 1, 1) not in enumerate_factors("SS", 3, t5)
    checks["oracle: 0 critical"] = () in enumerate_factors("SS", 0, t5)
    ok = all(checks.values())
    _line(9, ok, "divisibility/injectivity anchors with oracle confirmation")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion9_divind_222_p3_as_stated(tables):
    """The checklist's anchor divind((2,2,2),3) = 1 is wrong; the index is 0.

    For three rows the index is the least j >= 0 with lam - j*omega_3
    critical, and critical means 2-good.  (2,2,2) is a degree-6 factor of
    the twofold symmetric power at p = 3 (the degree-6 truncated power is
    L(2,2,2)), so it is critical and j = 0 already qualifies.  The test
    asserts the oracle's criticality call and the index 0.
    """
    critical_per_oracle = (2, 2, 2) in enumerate_factors("SS", 6, _table(tables, 3, 3))
    got = divisibility_index_n3((2, 2, 2), 3)
    ok = critical_per_oracle is True and got == 0
    _line(
        9,
        ok,
        "(anchor) checklist's divind((2,2,2),3)=1 was wrong: (2,2,2) is critical at p=3, "
        f"so the index is 0; oracle-critical={critical_per_oracle}, divind={got}",
    )
    assert critical_per_oracle is True
    assert got == 0


def test_extended_tier_743_witness(tables):
    table = _table(tables, 3, 3)
    rep = suite_thm_2good(3, 3, 14, table)
    witness = (7, 4, 3) in enumerate_factors("SS", 14, table)
    _line("1-extended", rep.verdict and witness, "(7,4,3) appears at degree 14, p=3, n=3")
    assert rep.verdict and witness and primitive_index((7, 4, 3), 3) == 1
