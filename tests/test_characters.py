import itertools
import math
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import characters
from schurkit.characters import (
    SymChar,
    char_from_expr,
    decompose_schur,
    frobenius_twist,
    is_deficient,
    kostka,
    power_char,
    schur_char,
)
from schurkit.errors import DegreeMixed, LengthExceedsN, ResourceBudgetExceeded, VariableCountMismatch
from schurkit.partitions import (
    Dominance,
    dominance_leq,
    partition,
    partitions_of,
    partitions_up_to,
    subtract,
)


# --- independent oracles -------------------------------------------------------


def zero_char(n, degree=0):
    return SymChar(n, degree, {})


def dim_complete(r, n):
    """Dimension of S^r of an n-dimensional space: multisets of r of n letters."""
    return comb(n + r - 1, r)


def ssyt_count(shape, content):
    """Count semistandard tableaux cell by cell: weakly increasing along rows,
    strictly increasing down columns, letter i used content[i-1] times.
    Independent of the horizontal-strip recursion used by the library."""
    rows = [[0] * w for w in shape]
    remaining = list(content)
    letters = len(content)
    cells = [(i, j) for i, w in enumerate(shape) for j in range(w)]

    def rec(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        total = 0
        for v in range(lo, letters + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                rows[i][j] = v
                total += rec(idx + 1)
                remaining[v - 1] += 1
        return total

    return rec(0)


def poly_of_char(chi):
    """Full composition->coefficient dict (the character as a polynomial),
    by brute force over every permutation of each key padded to n parts."""
    out = {}
    for lam, c in chi.coeffs.items():
        for w in set(itertools.permutations(lam + (0,) * (chi.n - len(lam)))):
            out[w] = c
    return out


def poly_mul(f, g, n):
    out = {}
    for w1, c1 in f.items():
        for w2, c2 in g.items():
            key = tuple(a + b for a, b in zip(w1, w2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def greedy_decompose_schur(chi):
    """Schur coefficients by greedy Kostka subtraction: the lexicographically
    greatest supported weight is dominance maximal, so subtracting that
    multiple of its Schur character strictly shrinks the support."""
    residual = dict(chi.coeffs)
    out = {}
    while residual:
        lam = max(residual)
        c = residual.pop(lam)
        out[lam] = c
        for mu, k in schur_char(lam, chi.n).coeffs.items():
            if mu != lam:
                residual[mu] = residual.get(mu, 0) - c * k
                if residual[mu] == 0:
                    del residual[mu]
    return out


def test_kostka_against_ssyt_enumeration():
    for lam in partitions_up_to(7, max_len=4):
        for mu in partitions_of(sum(lam), max_len=4):
            assert kostka(lam, mu) == ssyt_count(lam, mu), (lam, mu)


def test_schur_char_examples():
    chi = schur_char((2, 1), 3)
    assert chi.coeffs == {(2, 1): 1, (1, 1, 1): 2}
    assert schur_char((1, 1, 1), 4).coeffs == {(1, 1, 1): 1}
    for lam in partitions_up_to(8, max_len=3):
        assert schur_char(lam, 3).coeffs.get(lam) == 1
    with pytest.raises(LengthExceedsN):
        schur_char((1, 1, 1), 2)


def test_kostka_triangularity():
    for lam in partitions_up_to(9, max_len=4):
        for mu, k in schur_char(lam, 4).coeffs.items():
            assert k > 0
            assert dominance_leq(mu, lam) is Dominance.LEQ


def test_power_char_examples():
    assert power_char(2, 2, inf).coeffs == {(2,): 1, (1, 1): 1}
    assert power_char(3, 3, 1).coeffs == {(1, 1, 1): 1}  # truncated at p = 2
    assert power_char(2, 3, 1).coeffs == {(1, 1): 1}  # exterior
    assert power_char(4, 3, 1).is_zero()
    assert power_char(7, 3, 1).is_zero()  # above n(p-1)


def test_power_char_of_tops_is_the_product_of_series():
    # the degree-r part of prod_t prod_j (1 + x_j + ... + x_j^t), multiplied
    # out one series at a time up to degree r
    for tops in [(), (inf,), (2,), (1, 1), (inf, 2), (2, 2, 1), (3, 1, inf)]:
        for n in range(1, 4):
            for r in range(10):
                poly = {(0,) * n: 1}
                for t, j in itertools.product(tops, range(n)):
                    grown = {}
                    for e, c in poly.items():
                        for a in range(min(t, r - sum(e)) + 1):
                            f = e[:j] + (e[j] + a,) + e[j + 1 :]
                            grown[f] = grown.get(f, 0) + c
                    poly = grown
                expected = {
                    tuple(x for x in e if x): c
                    for e, c in poly.items()
                    if sum(e) == r and list(e) == sorted(e, reverse=True)
                }
                assert power_char(r, n, *tops) == SymChar(n, r, expected), (tops, n, r)


def test_atoms_with_too_many_weights_exceed_the_budget(monkeypatch):
    r = 10**20
    assert power_char(r, 1, inf).coeffs == {(r,): 1}
    assert schur_char((r,), 1).coeffs == {(r,): 1}
    assert power_char(r, 3, 1).is_zero()  # above n times the top: no weight is built
    for atom in (lambda: power_char(r, 3, inf), lambda: power_char(r, 2, inf, inf), lambda: schur_char((r,), 3)):
        with pytest.raises(ResourceBudgetExceeded, match="more than 300000 weights"):
            atom()
    # the limit is exact: h8 has 10 weights in 3 variables, h9 has 12
    monkeypatch.setattr(characters, "DEFAULT_BUDGET", 10)
    assert len(power_char(8, 3, inf).coeffs) == 10
    with pytest.raises(ResourceBudgetExceeded):
        power_char(9, 3, inf)
    with pytest.raises(ResourceBudgetExceeded):
        char_from_expr("s[9]", 3)


def test_multiply_examples():
    h1 = power_char(1, 2, inf)
    assert (h1 * h1).coeffs == {(2,): 1, (1, 1): 2}
    assert (h1 * zero_char(2, 3)).is_zero()
    e2h1 = power_char(2, 3, 1) * power_char(1, 3, inf)
    assert decompose_schur(e2h1) == {(2, 1): 1, (1, 1, 1): 1}
    with pytest.raises(VariableCountMismatch):
        power_char(1, 2, inf) * power_char(1, 3, inf)


def _product_atoms(n):
    """Characters in n variables that products meet: the degree-0 unit that
    product_char starts from, a zero character, complete, exterior and Schur
    characters, a virtual character and truncated powers at three primes."""
    virtual = {(3,): -2, (2, 1): 1, (1, 1, 1): -3}
    atoms = [
        SymChar(n, 0, {(): 1}),
        zero_char(n, 2),
        power_char(2, n, inf),
        power_char(3, n, inf),
        power_char(2, n, 1),
        SymChar(n, 3, {lam: c for lam, c in virtual.items() if len(lam) <= n}),
        power_char(3, n, 1),  # truncated at p = 2
        power_char(4, n, 2),  # p = 3
        power_char(4, n, 4),  # p = 5
    ]
    if n >= 2:
        atoms.append(schur_char((2, 1), n))
    return atoms


def test_multiply_against_polynomial_oracle():
    for n in range(1, 6):
        atoms = _product_atoms(n)
        assert any(c < 0 for chi in atoms for c in chi.coeffs.values())
        for c1, c2 in itertools.product(atoms, repeat=2):
            prod = c1 * c2
            assert (prod.n, prod.degree) == (n, c1.degree + c2.degree)
            expect = poly_mul(poly_of_char(c1), poly_of_char(c2), n)
            got = poly_of_char(prod)
            assert {k: v for k, v in expect.items() if v} == got, (c1, c2)


def test_multiply_in_many_variables():
    # an n! walk over the weights of h3 or h2 would not finish at n = 12
    n = 12
    prod = power_char(3, n, inf) * power_char(2, n, inf)
    assert prod.dim() == comb(14, 3) * comb(13, 2)
    assert decompose_schur(prod) == {(5,): 1, (4, 1): 1, (3, 2): 1}


def test_decompose_schur_examples():
    n = 3
    h2h1 = power_char(2, n, inf) * power_char(1, n, inf)
    assert decompose_schur(h2h1) == {(3,): 1, (2, 1): 1}
    assert decompose_schur(power_char(3, n, 1)) == {(1, 1, 1): 1}
    for a in range(5):
        for b in range(a + 1):
            n2 = 4
            prod = power_char(a, n2, inf) * power_char(b, n2, inf)
            want = {}
            for i in range(b + 1):
                lam = partition((a + b - i, i))
                if len(lam) <= n2:
                    want[lam] = 1
            assert decompose_schur(prod) == want


def _decompose_atoms(n):
    """Atoms h, e, sbar@2, sbar@3 and s[...] of degree at most 4, a virtual
    character, the zero character and the degree-0 unit, in n variables."""
    virtual = {(3,): -2, (2, 1): 1, (1, 1, 1): -3}
    atoms = [SymChar(n, 0, {(): 1}), zero_char(n, 2), SymChar(n, 3, {lam: c for lam, c in virtual.items() if len(lam) <= n})]
    for r in range(1, 5):
        atoms += [power_char(r, n, inf), power_char(r, n, 1)]
        atoms += [power_char(r, n, p - 1) for p in (2, 3)]
    atoms += [schur_char(lam, n) for lam in ((2, 1), (2, 2), (3, 1), (2, 1, 1)) if len(lam) <= n]
    return _distinct(atoms)


def _distinct(chars):
    return list({(chi.degree, frozenset(chi.coeffs.items())): chi for chi in chars}.values())


def test_decompose_schur_against_greedy_kostka():
    # every product of two or three atoms of total degree at most 9
    for n in range(1, 7):
        atoms = _decompose_atoms(n)
        pairs = {}
        for i, j in itertools.combinations_with_replacement(range(len(atoms)), 2):
            if atoms[i].degree + atoms[j].degree <= 9:
                pairs[i, j] = atoms[i] * atoms[j]
        triples = [
            pair * atoms[k]
            for (_, j), pair in pairs.items()
            for k in range(j, len(atoms))
            if pair.degree + atoms[k].degree <= 9
        ]
        chars = _distinct(atoms + list(pairs.values()) + triples)
        assert any(c < 0 for chi in chars for c in chi.coeffs.values())
        assert any(chi.is_zero() for chi in chars)
        for chi in chars:
            assert decompose_schur(chi) == greedy_decompose_schur(chi), chi


class _CountingCoeffs(dict):
    """Monomial coefficients that count lookups and fail past a budget."""

    def __init__(self, coeffs, budget):
        super().__init__(coeffs)
        self.left = budget

    def get(self, key, default=None):
        self.left -= 1
        assert self.left >= 0, "more lookups than Jacobi-Trudi terms with no negative entry"
        return super().get(key, default)


def test_decompose_schur_skips_lex_greater_shapes_and_negative_entries():
    n = 12
    chi = power_char(6, n, 1) * power_char(6, n, 1)
    want = greedy_decompose_schur(chi)
    assert want == {(2,) * k + (1,) * (12 - 2 * k): 1 for k in range(7)}
    # only the shapes lex below the top key (2^6) are paired, and each over the
    # prod_i min(i, lam_i + 1) permutations with no negative entry: 4634
    # lookups, where every shape paired over all of S_l would take ~5 * 10^8
    top = max(chi.coeffs)
    budget = sum(
        math.prod(min(i, part + 1) for i, part in enumerate(lam, 1))
        for lam in partitions_of(12, max_len=n)
        if lam <= top
    )
    assert budget == 4634
    chi.coeffs = _CountingCoeffs(chi.coeffs, budget)
    assert decompose_schur(chi) == want


def test_decompose_schur_roundtrip():
    for lam in partitions_up_to(9, max_len=4):
        assert decompose_schur(schur_char(lam, 4)) == {lam: 1}


def test_pieri_rules():
    # row rule: s_lam * h_r supported on horizontal-strip extensions, coeff 1;
    # column rule: s_lam * e_r on vertical strips
    n = 4
    for lam in partitions_up_to(5, max_len=n):
        for r in range(4):
            row = decompose_schur(schur_char(lam, n) * power_char(r, n, inf))
            for mu, c in row.items():
                assert c == 1
                d = subtract(mu, lam)
                assert d is not None or _is_strip(mu, lam, horizontal=True)
                assert _is_strip(mu, lam, horizontal=True)
            col = decompose_schur(schur_char(lam, n) * power_char(r, n, 1))
            for mu, c in col.items():
                assert c == 1
                assert _is_strip(mu, lam, horizontal=False)


def _is_strip(mu, lam, horizontal):
    """mu/lam is a horizontal (resp. vertical) strip."""
    if any((lam[i] if i < len(lam) else 0) > (mu[i] if i < len(mu) else 0) for i in range(len(lam))):
        return False
    if horizontal:
        return all(
            (mu[i + 1] if i + 1 < len(mu) else 0) <= (lam[i] if i < len(lam) else 0)
            for i in range(len(mu))
        )
    return all((mu[i] if i < len(mu) else 0) - (lam[i] if i < len(lam) else 0) <= 1 for i in range(len(mu)))


def test_dim_consistency():
    for n in (2, 3, 4):
        for r in range(7):
            assert power_char(r, n, inf).dim() == dim_complete(r, n)
            assert power_char(r, n, 1).dim() == comb(n, r)
            assert schur_char(partition([r]), n).dim() == dim_complete(r, n)


def test_is_deficient():
    assert not is_deficient(schur_char((3,), 3), 1, 1)
    assert is_deficient(schur_char((2, 2, 2), 3), 2, 1)
    # deficiency is stable under multiplying by any good-filtration character
    base = schur_char((2, 2, 2), 3)
    for lam in partitions_up_to(3, max_len=3):
        prod = base * schur_char(lam, 3)
        assert is_deficient(prod, 2, 1)


def test_frobenius_twist():
    assert frobenius_twist(SymChar(2, 1, {(1,): 1}), 2).coeffs == {(2,): 1}
    assert frobenius_twist(zero_char(3), 5).is_zero()


def test_degree_mixed_rejected():
    with pytest.raises(DegreeMixed):
        SymChar(2, 2, {(2,): 1, (1,): 1})


def test_char_from_expr():
    assert char_from_expr("h2*h1", 3) == power_char(2, 3, inf) * power_char(1, 3, inf)
    assert char_from_expr("sbar3@2", 3) == power_char(3, 3, 1)
    assert char_from_expr("s[2,1]", 3) == schur_char((2, 1), 3)
    assert char_from_expr("e2 * h1", 3) == power_char(2, 3, 1) * power_char(1, 3, inf)
    with pytest.raises(ValueError):
        char_from_expr("q3", 2)


def test_a_product_is_multiplied_in_at_most_its_degree_variables(monkeypatch):
    exprs = ["h3*e2", "h2*h2*e1", "s[2,1]*h2", "sbar3@2*e2", "e1*e1*e1*e1", "h0*s[1,1]", "s[3]*sbar2@3*h1"]
    mul = SymChar.__mul__
    for n in range(2, 10):  # s[2,1] needs two variables
        for expr in exprs:
            atoms = [char_from_expr(token, n) for token in expr.split("*")]
            expected = atoms[0]
            for atom in atoms[1:]:
                expected = mul(expected, atom)
            seen = []
            monkeypatch.setattr(SymChar, "__mul__", lambda a, b: seen.append(a.n) or mul(a, b))
            assert char_from_expr(expr, n) == expected, (expr, n)
            monkeypatch.undo()
            assert all(m == min(n, expected.degree) for m in seen), (expr, n, seen)
    assert char_from_expr("h3*e2", 10**6).coeffs == char_from_expr("h3*e2", 5).coeffs


# --- randomized ring-axiom fuzz -------------------------------------------------

small_partition = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=3).map(
    lambda xs: partition(sorted(xs, reverse=True))
)


@st.composite
def small_char(draw, n=3):
    lam = draw(small_partition)
    kind = draw(st.sampled_from(["schur", "h", "e"]))
    if kind == "schur":
        return schur_char(lam, n)
    r = sum(lam) % 4
    return power_char(r, n, inf if kind == "h" else 1)


@given(small_char(), small_char())
@settings(max_examples=40, deadline=None)
def test_multiplication_commutes(c1, c2):
    assert c1 * c2 == c2 * c1


@given(small_char(), small_char(), small_char())
@settings(max_examples=25, deadline=None)
def test_multiplication_associates(c1, c2, c3):
    assert (c1 * c2) * c3 == c1 * (c2 * c3)


@given(small_char(), small_char(), st.sampled_from([2, 3, 5]))
@settings(max_examples=25, deadline=None)
def test_twist_is_ring_homomorphism(c1, c2, p):
    assert frobenius_twist(c1 * c2, p) == frobenius_twist(c1, p) * frobenius_twist(c2, p)
