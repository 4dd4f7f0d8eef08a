"""Brute-force simple characters for GL_n in characteristic p.

Realization.  For a partition lam with column heights c_1 >= c_2 >= ... the
module M = U^- v generated by the highest weight vector v (the j-th column
block is 1..c_j) lies in V = Wedge^{c_1} E x Wedge^{c_2} E x ...  v and the
divided powers E_ji^(k) (j > i) of the lowering root operators commute with
every permutation of equal-height columns, so M lies in the symmetric
tensors of V, that is in the tensor product over heights c of the divided
powers Gamma^{m_c}(Wedge^c E), m_c being the number of columns of height c
(J. A. Green, Polynomial Representations of GL_n, LNM 830).

Basis.  A word of V is one strictly increasing block of letters per column.
Permuting equal-height columns splits the words into orbits, and a symmetric
tensor has one coefficient per orbit, shared by every word in it.  An orbit
is stored as a tuple of (block, count) pairs sorted by block, a block being
the bitmask of its letters (bit l-1 for letter l), so its height is its
popcount.  An orbit holds |O| = prod_c m_c! / prod_t m_t! words, where m_t
counts its blocks of type t.  v is the single orbit of the blocks 1..c_j,
with coefficient 1.

Lowering.  On a word, E_ji^(k) is the sum over the k-sets of blocks that
hold i and lack j of the word with i replaced by j in those blocks (blocks
already holding j vanish in the exterior power).  Re-sorting a moved block
gives it the sign (-1)^(number of its letters strictly between i and j).
On the orbit sum this moves j_t blocks of each eligible type t to t' (t with
i replaced by j), for every split k = sum_t j_t.  A word of the target orbit
arises from prod_t C(m_t' + j_t, j_t) source words, m_t' being the count of
t' before the move (choose which of its t'-blocks were moved), so that
product times prod_t sign_t^j_t, mod p, is the coefficient.  All arithmetic
stays in F_p.

Correctness.  Let M be the span of all divided-power lowering monomials
applied to v.  Declaring the words orthonormal gives a bilinear form for
which lowering and raising matrices are mutual transposes, so M's radical is
a submodule.  Any m in the radical pairs to zero with every F v, hence
(applying the transposed monomial) lies in a submodule avoiding the highest
weight line, while <v, v> = 1 keeps v out of the radical; therefore M modulo
the radical is the irreducible module with highest weight lam, and the rank
of the Gram matrix of any basis of a weight space of M is the weight
multiplicity of the simple module.  This holds even when M is a proper
reduction image of the integral Weyl module, so no purity assumption is
needed.  Restricted to symmetric tensors the same form reads
<a, b> = sum_O |O| a_O b_O over orbits O, with |O| taken mod p; M and the
form are unchanged, only written in fewer coordinates, so every rank is the
rank the word basis gives.

Tableau vectors.  The integral Weyl module U_Z^- v has the Z-basis F^(T) v,
one vector per semistandard tableau T of shape lam (R. W. Carter and
G. Lusztig, Math. Z. 136 (1974); Green, LNM 830), where F^(T) is the product
over rows r of T of E_jr^(t_rj) for the t_rj letters j > r in row r, the
bottom row acting first.  Reduced mod p, the vectors of content nu span M_nu,
so only the dominant weights nu are visited: their tableaux are peeled as
horizontal strips, their vectors row-reduced to an echelon basis, and the
Gram rank of that basis is the multiplicity of nu.

Budget.  A table's budget caps what one dominant weight holds: the orbit
terms of its tableau vectors plus the d^2 entries of its Gram matrix, d being
the echelon size.  It is checked before the Gram matrix is built.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Iterable, Optional

from .characters import SymChar, _horizontal_strip_removals, power_char
from .errors import LengthExceedsN, NegativeResidual, ResourceBudgetExceeded, SchurkitError
from .partitions import Partition, partition, partitions_of, transpose

DEFAULT_BUDGET = 300_000

S = "S"
SBAR = "Sbar"
WEDGE = "Wedge"

FAMILIES = ("SS", "SbarSbar", "SbarSbarWedge", "Sbar", "S")


@dataclass(frozen=True)
class TensorVector:
    """Sparse symmetric tensor in a product of exterior powers of the natural
    module, in the column-orbit basis.

    entries maps orbits (tuples of (block bitmask, count) pairs sorted by
    block) to nonzero residues mod p; each is the coefficient of every word
    in the orbit.
    """

    n: int
    p: int
    cols: tuple  # column heights, weakly decreasing
    entries: dict


def orbit_size(orbit: tuple) -> int:
    """Number of words in an orbit: its blocks arranged over the columns,
    equal-height columns only among themselves."""
    heights: Counter = Counter()
    size = 1
    for block, m in orbit:
        heights[block.bit_count()] += m
        size *= factorial(m)
    return prod(map(factorial, heights.values())) // size


def highest_weight_vector(lam: Partition, n: int, p: int = 2) -> TensorVector:
    """Product over columns of the wedge of the first column-height letters."""
    if len(lam) > n:
        raise LengthExceedsN(f"{lam} needs more than {n} letters")
    cols = transpose(lam)
    blocks = Counter((1 << c) - 1 for c in cols)
    return TensorVector(n, p, cols, {tuple(sorted(blocks.items())): 1})


def _splits(moves: list, k: int, p: int):
    """Ways to move k blocks, j_t <= m_t of each eligible type, as pairs
    (j, prod_t (+-1)^j_t C(m_t' + j_t, j_t) mod p); vanishing products are
    skipped."""
    if not moves:
        if k == 0:
            yield (), 1
        return
    (_, m, _, m_to, odd), rest = moves[0], moves[1:]
    room = sum(move[1] for move in rest)
    for j in range(max(0, k - room), min(m, k) + 1):
        c = comb(m_to + j, j) * (-1) ** (odd * j) % p
        if c:
            for js, d in _splits(rest, k - j, p):
                yield (j,) + js, c * d % p


def apply_lowering(v: TensorVector, i: int, j: int, k: int) -> TensorVector:
    """Divided power E_ji^(k) of the root operator taking letter i to j > i."""
    if not 1 <= i < j <= v.n:
        raise ValueError(f"lowering {i} -> {j} outside 1..{v.n}")
    lo, hi = 1 << (i - 1), 1 << (j - 1)
    step = lo | hi  # xor swaps letter i for j in an eligible block
    between = hi - (lo << 1)  # the letters strictly between i and j
    p = v.p
    out: dict = {}
    for orbit, coeff in v.entries.items():
        counts = dict(orbit)
        moves = [
            (t, m, t ^ step, counts.get(t ^ step, 0), (t & between).bit_count() & 1)
            for t, m in orbit
            if t & step == lo
        ]
        for js, c in _splits(moves, k, p):
            new = dict(counts)
            for (t, m, t_to, m_to, _), jt in zip(moves, js):
                if jt:
                    if jt == m:
                        del new[t]
                    else:
                        new[t] = m - jt
                    new[t_to] = m_to + jt
            key = tuple(sorted(new.items()))
            x = (out.get(key, 0) + coeff * c) % p
            if x:
                out[key] = x
            else:
                out.pop(key, None)
    return TensorVector(v.n, p, v.cols, out)


# --- tableau vectors and Gram ranks --------------------------------------------


def _tableau_operators(lam: Partition, nu: tuple):
    """For each semistandard tableau T of shape lam and content nu, the
    divided powers (r, j, t) of F^(T), t letters j > r in row r, bottom row
    first.  Tableaux are peeled one letter at a time, largest first, as
    horizontal strips."""

    def peel(shape: Partition, letter: int, ops: list):
        if letter == 0:
            yield sorted(ops, reverse=True)
            return
        for inner in _horizontal_strip_removals(shape, nu[letter - 1]):
            if len(inner) < letter:  # letters 1..letter-1 fill at most letter-1 rows
                moved = [
                    (r + 1, letter, a - b)
                    for r, (a, b) in enumerate(zip(shape, inner + (0,) * len(shape)))
                    if a > b and r + 1 < letter
                ]
                yield from peel(inner, letter - 1, ops + moved)

    yield from peel(lam, len(nu), [])


def _reduce_against(ech: dict, vec: dict, p: int) -> Optional[dict]:
    """Row-reduce vec against the echelon rows; return the normalized new row
    (also installed into ech) or None when vec lies in the span."""
    while vec:
        lead = max(vec)
        row = ech.get(lead)
        if row is None:
            inv = pow(vec[lead], -1, p)
            if inv != 1:
                vec = {w: (c * inv) % p for w, c in vec.items()}
            ech[lead] = vec
            return vec
        c = vec[lead]
        for w, x in row.items():
            t = (vec.get(w, 0) - c * x) % p
            if t:
                vec[w] = t
            else:
                vec.pop(w, None)
    return None


def _gram_rank(rows: list, p: int) -> int:
    """Rank of the Gram matrix <a, b> = sum_O |O| a_O b_O of orbit rows."""
    d = len(rows)
    if d == 0:
        return 0
    weighted = [{orbit: c * orbit_size(orbit) for orbit, c in row.items()} for row in rows]
    g = []
    for wa in weighted:
        line = []
        for rb in rows:
            s = 0
            for orbit, c in wa.items():
                x = rb.get(orbit)
                if x:
                    s += c * x
            line.append(s % p)
        g.append(line)
    # in-place Gaussian elimination mod p
    rank = 0
    for col in range(d):
        piv = next((r for r in range(rank, d) if g[r][col]), None)
        if piv is None:
            continue
        g[rank], g[piv] = g[piv], g[rank]
        inv = pow(g[rank][col], -1, p)
        g[rank] = [(x * inv) % p for x in g[rank]]
        for r in range(d):
            if r != rank and g[r][col]:
                f = g[r][col]
                g[r] = [(x - f * y) % p for x, y in zip(g[r], g[rank])]
        rank += 1
        if rank == d:
            break
    return rank


def _simple_char_by_gram(lam: Partition, p: int, n: int, budget: int) -> tuple[SymChar, int]:
    """Character of the simple module via Gram ranks of the tableau vectors
    at each dominant weight; also returns the largest weight-space dimension.

    Raises ResourceBudgetExceeded when the orbit terms of one weight's
    vectors plus its Gram entries pass budget, before the Gram matrix is
    built.
    """
    hwv = highest_weight_vector(lam, n, p)
    coeffs = {}
    max_dim = 0
    for nu in partitions_of(sum(lam), max_len=n):
        held = 0
        ech: dict = {}
        for ops in _tableau_operators(lam, nu + (0,) * (n - len(nu))):
            vec = hwv
            for r, j, t in ops:
                vec = apply_lowering(vec, r, j, t)
            held += len(vec.entries)
            if held > budget:
                break
            _reduce_against(ech, dict(vec.entries), p)
        d = len(ech)
        if held + d * d > budget:
            raise ResourceBudgetExceeded(
                f"weight {list(nu)} of L{list(lam)} needs more than {budget} orbit terms and Gram entries"
            )
        max_dim = max(max_dim, d)
        rank = _gram_rank(list(ech.values()), p)
        if rank:
            coeffs[nu] = rank
    return SymChar(n, sum(lam), coeffs), max_dim


def simple_char_defect(lam: Partition, coeffs: dict) -> str | None:
    """Why coeffs, weight -> multiplicity, cannot be the character of the
    simple module L(lam), or None.  Only the checks that need no Kostka
    number are made: lam occurs once and every listed weight occurs."""
    top = coeffs.get(lam, 0)
    if top != 1:
        return f"top weight {list(lam)} has multiplicity {top}, not 1"
    for mu, c in coeffs.items():
        if c <= 0:
            return f"weight {list(mu)} has multiplicity {c}, not positive"
    return None


class SimpleTable:
    """Cache of simple characters for one (p, n).

    With cache_dir, the table starts from the file simple_p{p}_n{n}.jsonl in
    that directory when it exists, and persist() writes the table back there.
    """

    def __init__(self, p: int, n: int, budget: int = DEFAULT_BUDGET, cache_dir: str | os.PathLike | None = None):
        self.p = p
        self.n = n
        self.budget = budget
        self.cache: dict[Partition, SymChar] = {}
        self.hits = 0
        self.misses = 0
        self.max_weight_dim = 0
        self.path = None if cache_dir is None else os.path.join(cache_dir, f"simple_p{p}_n{n}.jsonl")
        if self.path is not None and os.path.exists(self.path):
            self.load(self.path)
        self._saved = len(self.cache)

    def char(self, lam: Partition) -> SymChar:
        lam = tuple(lam)
        cached = self.cache.get(lam)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        chi, dim = _simple_char_by_gram(lam, self.p, self.n, self.budget)
        self.cache[lam] = chi
        self.max_weight_dim = max(self.max_weight_dim, dim)
        return chi

    def stats(self) -> dict:
        return {
            "cacheHits": self.hits,
            "cacheMisses": self.misses,
            "maxWeightSpaceDim": self.max_weight_dim,
            "cachedCharacters": len(self.cache),
        }

    # --- persistence: one JSON record per line ---------------------------------

    def persist(self) -> None:
        """Save the table to its cache file if it gained characters since it
        was loaded or last saved (characters are only ever added)."""
        if self.path is None or len(self.cache) == self._saved:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self.save(self.path)
        self._saved = len(self.cache)

    def save(self, path) -> None:
        """Write every cached character to path.  The records go to a
        temporary file in the same directory that then replaces path, so an
        interrupted save leaves the previous file as it was."""
        path = os.fspath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        fh = open(tmp, "w")
        try:
            with fh:
                for lam in sorted(self.cache):
                    chi = self.cache[lam]
                    rec = {
                        "lambda": list(lam),
                        "char": {json.dumps(list(mu), separators=(",", ":")): c for mu, c in sorted(chi.coeffs.items())},
                    }
                    fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load(self, path) -> int:
        """Add the records of path to the table and return how many there were.

        A record that is not JSON, lacks a key, holds a bad partition, a
        coefficient that is not an integer or a bad character, a lambda with
        more than n parts, a top coefficient other than 1 or a coefficient
        that is not positive, raises SchurkitError naming the file and the
        line."""
        count = 0
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    lam = partition(rec["lambda"])
                    if len(lam) > self.n:
                        raise LengthExceedsN(f"lambda {list(lam)} has more than {self.n} parts")
                    coeffs = {partition(json.loads(k)): v for k, v in rec["char"].items()}
                    if any(type(c) is not int for c in coeffs.values()):
                        raise SchurkitError(f"coefficients must be integers: {rec['char']}")
                    if defect := simple_char_defect(lam, coeffs):
                        raise SchurkitError(defect)
                    chi = SymChar(self.n, sum(lam), coeffs)
                except (SchurkitError, ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise SchurkitError(f"bad cache record in {path}, line {lineno}: {type(exc).__name__}: {exc}") from exc
                self.cache[lam] = chi
                count += 1
        return count


def simple_char(lam: Partition, p: int, n: int, table: SimpleTable | None = None) -> SymChar:
    """Character of the irreducible polynomial module with highest weight lam."""
    if table is None:
        table = SimpleTable(p, n)
    return table.char(tuple(lam))


def decompose_simples(chi: SymChar, p: int, table: SimpleTable) -> dict:
    """Greedy expansion of a module character in the simple basis.

    Repeatedly strips the lexicographically greatest supported weight; a
    negative residual coefficient means the input was not the character of a
    module (or the oracle is broken) and aborts loudly.
    """
    residual = dict(chi.coeffs)
    out: dict[Partition, int] = {}
    while residual:
        lam = max(residual)
        m = residual.pop(lam)
        if m == 0:
            continue
        if m < 0:
            raise NegativeResidual(f"coefficient {m} at {lam}")
        out[lam] = m
        for mu, c in table.char(lam).coeffs.items():
            if mu == lam:
                continue
            t = residual.get(mu, 0) - m * c
            if t:
                residual[mu] = t
            else:
                residual.pop(mu, None)
    return out


def factor_dimensions_check(factors: dict, chi: SymChar, table: SimpleTable) -> bool:
    """Sum of multiplicity * dim of each simple equals the module dimension."""
    return sum(m * table.char(lam).dim() for lam, m in factors.items()) == chi.dim()


def product_char(spec: Iterable[tuple], p: int, n: int) -> SymChar:
    """Character of a product of symmetric / truncated / exterior powers."""
    chi = SymChar(n, 0, {(): 1})
    for kind, r in spec:
        if kind == S:
            atom = power_char("complete", r, n)
        elif kind == SBAR:
            atom = power_char("truncated", r, n, p=p)
        elif kind == WEDGE:
            atom = power_char("exterior", r, n)
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
        chi = chi * atom
    return chi


def composition_factors(spec: Iterable[tuple], p: int, n: int, table: SimpleTable | None = None) -> dict:
    """Composition factors, with multiplicities, of a product of powers."""
    if table is None:
        table = SimpleTable(p, n)
    return decompose_simples(product_char(spec, p, n), p, table)


def _degree_splits(family: str, r: int, n: int):
    if family == "SS":
        for a in range(r // 2 + 1):
            yield ((S, a), (S, r - a))
    elif family == "SbarSbar":
        for a in range(r // 2 + 1):
            yield ((SBAR, a), (SBAR, r - a))
    elif family == "SbarSbarWedge":
        for c in range(min(r, n) + 1):
            for a in range((r - c) // 2 + 1):
                yield ((SBAR, a), (SBAR, r - c - a), (WEDGE, c))
    elif family == "Sbar":
        yield ((SBAR, r),)
    elif family == "S":
        yield ((S, r),)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def enumerate_factors(
    family: str,
    r: int,
    p: int,
    n: int,
    table: SimpleTable | None = None,
) -> set:
    """Union of composition-factor sets over all degree splits of a family."""
    if table is None:
        table = SimpleTable(p, n)
    out: set = set()
    for split in _degree_splits(family, r, n):
        out.update(composition_factors(split, p, n, table))
    return out
