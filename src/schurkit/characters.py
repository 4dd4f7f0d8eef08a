"""Formal characters of polynomial GL_n-modules as symmetric functions.

A character is stored in the monomial-symmetric basis: a finite map from
dominant weights (partitions of the degree with at most n parts) to integer
multiplicities.  The full weight multiset is recovered by symmetrizing each
key over coordinate permutations.  Characters are immutable values.

Products count orbits instead of convolving full weights.  With O(lam) the
distinct rearrangements of lam padded to n parts,

    m_lam * m_mu = sum over alpha in O(lam) of (|O(mu)| / |O(nu)|) * m_nu,
    nu = sort(alpha + mu).

The coefficient of m_nu counts the pairs (alpha, beta) in O(lam) x O(mu)
with alpha + beta = nu.  Every point of O(nu) is hit equally often, and
permuting beta to mu shows that the pairs landing in O(nu) are |O(mu)| times
the alpha with sort(alpha + mu) = nu.  So only one factor is expanded into
full weights; the other keeps its dominant keys.

Powers.  A symmetric, truncated or exterior power is its top, the largest
one coordinate of a weight may be (none, p - 1 or 1), and power_char builds
each power, and each family's sum of products of powers, from tops.  An atom
with more than DEFAULT_BUDGET weights raises ResourceBudgetExceeded, and so
does a product whose cheaper side expands more than DEFAULT_BUDGET pairs.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations, dropwhile, islice
from math import comb, factorial, inf, prod
from operator import add
from typing import Iterator

from .errors import DegreeMixed, LengthExceedsN, ResourceBudgetExceeded, VariableCountMismatch
from .partitions import PRIME_LIMIT, Partition, is_prime, partition, partitions_of

DEFAULT_BUDGET = 300_000  # weights of one atom; weight pairs of one product; represented words of one oracle weight


def _orbit(lam: Partition, n: int) -> list:
    """Every distinct rearrangement of lam padded with zeros to n parts.

    Each part value is put on a combination of the positions still free, one
    value after another, so the work grows with the orbit and never with n!.
    """
    weights = [([0] * n, tuple(range(n)))]
    for v in set(lam):
        k = lam.count(v)
        grown = []
        for w, free in weights:
            for chosen in combinations(free, k):
                placed = w.copy()
                for i in chosen:
                    placed[i] = v
                grown.append((placed, tuple(i for i in free if i not in chosen)))
        weights = grown
    return [tuple(w) for w, _ in weights]


@lru_cache(maxsize=None)
def _orbit_size(lam: tuple, n: int) -> int:
    """Number of distinct rearrangements of lam padded with zeros to n parts;
    memoised, as products and dim() ask for the same weights again."""
    padded = lam + (0,) * (n - len(lam))
    size = factorial(n)
    for v in set(padded):
        size //= factorial(padded.count(v))
    return size


class SymChar:
    """Symmetric character in n variables, keyed by dominant weights."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: dict):
        clean = {}
        for lam, c in coeffs.items():
            if c == 0:
                continue
            if len(lam) > n:
                raise LengthExceedsN(f"weight {lam} has more than {n} parts")
            if sum(lam) != degree:
                raise DegreeMixed(f"weight {lam} in a degree-{degree} character")
            clean[lam] = c
        self.n = n
        self.degree = degree
        self.coeffs = clean

    def __eq__(self, other):
        return (
            isinstance(other, SymChar)
            and self.n == other.n
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = " + ".join(f"{c}*m{list(l)}" for l, c in sorted(self.coeffs.items(), reverse=True))
        return f"SymChar(n={self.n}, deg={self.degree}: {body or '0'})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def dim(self) -> int:
        """Evaluation at all-ones: total weight multiplicity."""
        return sum(c * _orbit_size(lam, self.n) for lam, c in self.coeffs.items())

    def __mul__(self, other: "SymChar") -> "SymChar":
        """Product as symmetric functions, by orbit-stabilizer counting.

        One factor is expanded into its full weights alpha and each is added
        to every dominant key mu of the other, padded to n parts.  The sorted
        sum nu gains c_lam * c_mu * |O(mu)|, and each total is divided by
        |O(nu)| at the end; the division is exact (see the module docstring)
        and a remainder raises.  The factor expanded is the one that gives
        fewer (alpha, mu) pairs; when even those are more than DEFAULT_BUDGET,
        ResourceBudgetExceeded is raised before any weight is expanded.
        """
        if not isinstance(other, SymChar):
            return NotImplemented
        if self.n != other.n:
            raise VariableCountMismatch(f"{self.n} vs {other.n} variables")
        n, deg = self.n, self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return SymChar(n, deg, {})

        def pairs(expanded: SymChar, keyed: SymChar) -> int:
            return sum(_orbit_size(lam, n) for lam in expanded.coeffs) * len(keyed.coeffs)

        forward, backward = pairs(self, other), pairs(other, self)
        if min(forward, backward) > DEFAULT_BUDGET:
            raise ResourceBudgetExceeded(
                f"a product of degree {deg} in {n} variables expands more than {DEFAULT_BUDGET} weight pairs"
            )
        expanded, keyed = (other, self) if backward < forward else (self, other)
        keys = [(mu + (0,) * (n - len(mu)), c * _orbit_size(mu, n)) for mu, c in keyed.coeffs.items()]
        counts: dict[tuple, int] = {}
        for lam, c in expanded.coeffs.items():
            scaled = [(mu, c * cm) for mu, cm in keys]
            for alpha in _orbit(lam, n):
                for mu, cm in scaled:
                    nu = tuple(sorted(map(add, alpha, mu), reverse=True))
                    counts[nu] = counts.get(nu, 0) + cm
        out = {}
        for nu, total in counts.items():
            coeff, rem = divmod(total, _orbit_size(nu, n))
            if rem:
                raise ArithmeticError(f"count {total} of {nu} is not a multiple of its orbit size")
            out[nu[: n - nu.count(0)]] = coeff
        return SymChar(n, deg, out)


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    Peels the cells holding the largest letter (a horizontal strip) and
    recurses; memoized globally.
    """
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    k = mu[-1]
    rest = mu[:-1]
    total = 0
    for nu in _horizontal_strip_removals(lam, k):
        total += kostka(nu, rest)
    return total


def _horizontal_strip_removals(lam: Partition, k: int) -> Iterator[Partition]:
    """All nu with lam/nu a horizontal strip of size k."""
    n = len(lam)

    def rec(i: int, rem: int, acc: list):
        if i == n:
            if rem == 0:
                # lam[i+1] <= acc[i] <= lam[i] keeps acc weakly decreasing
                yield tuple(acc[: n - acc.count(0)])
            return
        lo = lam[i + 1] if i + 1 < n else 0
        # row i takes at most rem cells, and at least rem - lo: the rows below hold lo
        for v in range(min(lam[i], lam[i] - rem + lo), max(lo, lam[i] - rem) - 1, -1):
            acc.append(v)
            yield from rec(i + 1, rem - lam[i] + v, acc)
            acc.pop()

    yield from rec(0, k, [])


def _weights(r: int, n: int, max_part: int) -> Iterator[Partition]:
    """partitions_of(r, max_len=n, max_part=max_part), after counting them up
    to DEFAULT_BUDGET + 1 when (max_part + 1)^(k - 1), k = min(n, r), passes
    the limit: parts 2..k fix a weight.  Raises ResourceBudgetExceeded when
    there are more.  (An exponent at the limit's bit length passes it.)"""
    free = min(n - 1, r - 1, DEFAULT_BUDGET.bit_length())
    if (max_part + 1) ** free > DEFAULT_BUDGET and next(islice(partitions_of(r, n, max_part), DEFAULT_BUDGET, None), None):
        raise ResourceBudgetExceeded(f"a degree-{r} character in {n} variables has more than {DEFAULT_BUDGET} weights")
    return partitions_of(r, max_len=n, max_part=max_part)


def schur_char(lam: Partition, n: int) -> SymChar:
    """Character of the induced module with highest weight lam (Schur function)."""
    if len(lam) > n:
        raise LengthExceedsN(f"{lam} needs more than {n} variables")
    return SymChar(n, sum(lam), {mu: kostka(lam, mu) for mu in _weights(sum(lam), n, lam[0] if lam else 0)})


def power_char(r: int, n: int, *tops) -> SymChar:
    """Degree-r part of prod over tops t of prod_j (1 + x_j + ... + x_j^t).

    One top (inf, p - 1 or 1) gives that power; a family's tops give its sum
    over every ordered split of r.  In one coordinate the product is c(x),
    the ways to write x as one term in [0, t] per top, so m_nu has the
    coefficient prod_i c(nu_i), and no part of nu is above sum(tops).  For
    m tops, inclusion-exclusion over the terms pushed above their tops gives
    c(x) = sum over subsets T of (-1)^|T| C(x - sum_T (t + 1) + m - 1, m - 1).
    """
    most = sum(tops)
    if r > n * most:
        return SymChar(n, r, {})
    weights = _weights(r, n, min(r, most))
    m = len(tops)
    if m < 2:  # c is 1 on [0, most]: every weight once
        return SymChar(n, r, dict.fromkeys(weights, 1))
    pushed = [(sum(t + 1 for t in T), (-1) ** k) for k in range(m + 1) for T in combinations(tops, k)]
    c = cache(lambda x: sum(sign * comb(x - shift + m - 1, m - 1) for shift, sign in pushed if shift <= x))
    return SymChar(n, r, {nu: prod(map(c, nu)) for nu in weights})


def product(atoms: list, n: int) -> SymChar:
    """The product of atoms, characters in n variables, multiplied in
    m = min(n, their total degree) variables; the empty product is the unit.
    Setting variables to zero maps a product to the product, and no weight of
    the product has more parts than its degree, so the m-variable product has
    every coefficient of the n-variable one."""
    m = min(n, sum(atom.degree for atom in atoms))
    chi = None
    for atom in atoms:
        atom = SymChar(m, atom.degree, atom.coeffs)
        chi = atom if chi is None else chi * atom
    return SymChar(n, 0, {(): 1}) if chi is None else SymChar(n, chi.degree, chi.coeffs)


def decompose_schur(chi: SymChar) -> dict:
    """Coefficients of chi in the Schur basis, by Jacobi-Trudi pairing.

    Write chi = sum a_mu m_mu.  The Hall inner product has <m_mu, h_nu> =
    delta_{mu nu}, and Jacobi-Trudi gives s_lam = det(h_{lam_i - i + j}) with
    h_r = 0 for r < 0 (Macdonald, Symmetric Functions and Hall Polynomials,
    I.3.4 and I.4).  So

        [s_lam] chi = <chi, s_lam> = sum over sigma in S_l of
                      sgn(sigma) * a_{sort(alpha)},  alpha_i = lam_i - i + sigma(i),

    over the l = len(lam) rows, where a term with a negative alpha_i is 0.
    No Kostka number is needed.  Only lam with at most n parts are paired:
    the s_lam with more vanish in n variables.

    The first k entries of alpha sum to at least lam_1 + ... + lam_k, so
    every sort(alpha) of a nonzero term dominates lam.  Dominance implies
    lexicographic order, so a lam lexicographically greater than the largest
    key of chi is dominated by no key, its coefficient is 0, and it is
    skipped.  Coefficients may be negative for virtual characters.
    """
    if chi.is_zero():
        return {}
    top = max(chi.coeffs)
    out: dict[Partition, int] = {}
    for lam in dropwhile(lambda lam: lam > top, partitions_of(chi.degree, max_len=chi.n)):
        c = _pair_with_schur(chi.coeffs, lam)
        if c:
            out[lam] = c
    return out


def _pair_with_schur(coeffs: dict, lam: Partition) -> int:
    """<chi, s_lam> for chi with monomial coefficients coeffs (see
    decompose_schur).  sigma is built depth first from the bottom row and
    never takes a column that makes alpha_i negative, so it reaches only the
    terms that can be nonzero: prod over rows i = 1..l of min(i, lam_i + 1)."""
    rows = len(lam)
    alpha = [0] * rows
    used = [False] * rows

    def rows_up_from(i: int) -> int:
        if i < 0:
            return coeffs.get(tuple(sorted(filter(None, alpha), reverse=True)), 0)
        total = 0
        below = 0  # rows under i whose column lies left of j: their inversions with i
        for j in range(rows):
            if used[j]:
                below += 1
            elif j >= i - lam[i]:
                used[j] = True
                alpha[i] = lam[i] - i + j
                term = rows_up_from(i - 1)
                used[j] = False
                total += -term if below & 1 else term
        return total

    return rows_up_from(rows - 1)


def frobenius_twist(chi: SymChar, p: int) -> SymChar:
    """Scale every weight by p (precomposition with the p-power map)."""
    return SymChar(
        chi.n, chi.degree * p, {tuple(p * x for x in lam): c for lam, c in chi.coeffs.items()}
    )


# --- expression parsing for the command line ----------------------------------


def char_from_expr(expr: str, n: int) -> SymChar:
    """Parse products of character atoms: h<r>, e<r>, sbar<r>@<p>, s[...].

    The p of sbar<r>@<p> must be a prime below PRIME_LIMIT; any other atom or
    p raises ValueError naming the atom."""
    import json
    import re

    atoms = []
    for token in expr.split("*"):
        token = token.strip()
        if m := re.fullmatch(r"([he])(\d+)", token):
            atom = power_char(int(m.group(2)), n, inf if m.group(1) == "h" else 1)
        elif m := re.fullmatch(r"sbar(\d+)@(\d+)", token):
            p = int(m.group(2))
            if p >= PRIME_LIMIT or not is_prime(p):
                raise ValueError(f"character atom {token!r}: {p} is not a prime below {PRIME_LIMIT}")
            atom = power_char(int(m.group(1)), n, p - 1)
        elif m := re.fullmatch(r"s(\[.*\])", token):
            atom = schur_char(partition(json.loads(m.group(1))), n)
        else:
            raise ValueError(f"cannot parse character atom {token!r}")
        atoms.append(atom)
    return product(atoms, n)
