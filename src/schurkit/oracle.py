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
tensor has one coefficient per orbit, shared by every word in it.  A block is
the bitmask t of its letters (bit l-1 for letter l), so its height is its
popcount.  An orbit holds |O| = prod_c m_c! / prod_t m_t! words, where m_c
counts the columns of height c and m_t the orbit's blocks of type t.  Every
orbit of lam has the same column heights, so the numerator prod_c m_c! is
one number per lam, and only prod_t m_t! is read from the orbit.  An orbit
is packed into one integer, the sum over t of m_t 2^(w t): a field of
w = lam_1.bit_length() bits per block type holds m_t.  No count exceeds the
lam_1 columns, so no field overflows into the next.  v is the single orbit
of the blocks 1..c_j, with coefficient 1.

Lowering.  On a word, E_ji^(k) is the sum over the k-sets of blocks that
hold i and lack j of the word with i replaced by j in those blocks (blocks
already holding j vanish in the exterior power).  Re-sorting a moved block
gives it the sign (-1)^(number of its letters strictly between i and j).
On the orbit sum this moves j_t blocks of each eligible type t to t' (t with
i replaced by j), for every split k = sum_t j_t.  A word of the target orbit
arises from prod_t C(m_t' + j_t, j_t) source words, m_t' being the count of
t' before the move (choose which of its t'-blocks were moved), so that
product times prod_t sign_t^j_t, mod p, is the coefficient; for k = 1 it is
sign_t (m_t' + 1).  The target orbit is the source plus
sum_t j_t (2^(w t') - 2^(w t)); the counts are read with a shift and a mask,
and the eligible types of a move i -> j depend only on (n, i, j, w).  All
arithmetic stays in F_p.

Correctness.  Let M be the span of all divided-power lowering monomials
applied to v.  Declaring the words orthonormal gives a bilinear form for
which lowering and raising matrices are mutual transposes, so M's radical is
a submodule.  Any m in the radical pairs to zero with every F v, hence
(applying the transposed monomial) lies in a submodule avoiding the highest
weight line, while <v, v> = 1 keeps v out of the radical; therefore M modulo
the radical is the irreducible module with highest weight lam, and the rank
of the Gram matrix of any spanning set of a weight space of M is the weight
multiplicity of the simple module (the Gram matrix of a spanning set is
C G C^T, G that of a basis and C of full column rank).  This holds even when
M is a proper reduction image of the integral Weyl module, so no purity
assumption is needed.  Restricted to symmetric tensors the same form reads
<a, b> = sum_O |O| a_O b_O over orbits O, with |O| taken mod p; M and the
form are unchanged, only written in fewer coordinates, so every rank is the
rank the word basis gives.

Tableau vectors.  The integral Weyl module U_Z^- v has the Z-basis F^(T) v,
one vector per semistandard tableau T of shape lam (R. W. Carter and
G. Lusztig, Math. Z. 136 (1974); Green, LNM 830), where F^(T) is the product
over rows r of T of E_jr^(t_rj) for the t_rj letters j > r in row r, the
bottom row acting first.  Reduced mod p, the vectors of content nu are a
basis of M_nu (see Duality), so only the dominant weights nu are visited,
and only the nu that lam dominates are generated, since no other nu has a
tableau.  The tableaux are peeled as horizontal strips, largest letter
first.  A strip's inner shape is built row by row and cut short as soon as
it stops dominating the rest of the content, so every branch ends in a
tableau; the peel of each (shape, content) is memoised.  The operators of
a tableau act bottom row first, and the tableaux of lam share many leading
operators, also across weights: the vectors of every proper prefix are kept
in a trie, op -> (vector, subtrie), for all of lam's weights, and each
operator prefix is lowered once.  The Gram matrix is built from the
tableau vectors themselves, summed orbit by orbit over the vectors that hold
each orbit, and its rank is the multiplicity of nu.

Pruning.  A trie node's prefix lowers v to a weight nu'.  The character is
symmetric, so dim L(lam)_nu' = dim L(lam)_sort(nu'), and when sort(nu') was
visited and its rank was 0 the prefix vector lies in the radical.  The
radical is a submodule (see Correctness), so every lowering of that vector
lies in it too and pairs to zero with every row: leaving its row out keeps
the rank.  So a node is created without a vector when sort(nu') is a weight
this call recorded with rank 0, and every tableau through it is left out of
its weight's rows; a weight whose rows are all left out has rank 0 without a
Gram matrix.  sort(nu') strictly dominates the weight of every tableau
through the node, so the descending-lex walk has visited it first, but only
ranks this call computed for lam are read, whatever the order.  The prune
pays where most weights of L(lam) have multiplicity 0, as at small p and
high degree.

Full columns.  When lam has n parts, its first k = lam_n columns hold the
full block 1..n in every word.  A full block holds every letter, so no
lowering moves it, and in an orbit it is the only block of height n, so it
adds the same factorial above and below |O|.  The vectors, Gram matrices and
ranks of lam are therefore those of lam - k 1^n with every weight shifted by
k 1^n, and a table that computed lam - k 1^n shifts its character.

Duality.  The dual of L(lam), twisted by det^lam_1, is the simple module
L(lam_1 - lam_n, ..., lam_1 - lam_1) (J. C. Jantzen, Representations of
Algebraic Groups, II.2.13; Green, LNM 830): its weights are the
lam_1 1^n - nu over the weights nu of L(lam), with the same multiplicities.
So a table that computed lam* = (lam_1 - lam_n, ..., lam_1 - lam_2), zeros
dropped, maps each weight nu of lam* to (lam_1 - nu_n, ..., lam_1 - nu_1)
instead of computing lam.  The largest weight space is taken from lam* too.
The ranks need only that the tableau vectors span M_nu, but the recorded
dimensions rest on M being the Weyl module: its standard basis stays free
over every field (K. Akin, D. A. Buchsbaum and J. Weyman, Adv. Math. 44
(1982)), so the tableau vectors of content nu are a basis of M_nu, dim M_nu
is their number, the Kostka number K_{lam nu}, and K_{lam nu} =
K_{lam* nu*}.

Stability.  Green's truncation functor (LNM 830, section 6) keeps the weight
spaces whose weights have at most m parts and takes L(lam) in n variables to
L(lam) in m <= n variables when lam has at most m parts.  Every weight of
degree |lam| has at most |lam| parts, so for n >= |lam| the multiplicities of
L(lam) do not depend on n.  A table therefore computes L(lam) in
min(n, |lam|) variables and stores it as the n-variable character, and
product_char multiplies in min(n, total degree) variables
(characters.product), so no cost grows with n above the degree; a packed
orbit over n letters has w 2^n bits.  The weight spaces, their dimensions and
the orbit terms the budget counts are those of n variables.  So the stability
check of verify's oracle-self, which compares the tables of n and n + 1
variables, compares two independent computations only at degrees above n.

Budget.  A table's budget caps what one dominant weight holds: the orbit
terms of its tableau vectors plus the d^2 entries of its Gram matrix, d
being the number of its tableaux, known before any vector is lowered.  It is
checked after each vector, so a run stops as soon as the sum passes the
budget and before the Gram matrix is built.  A row left out by the prune
holds no terms, while d^2 still counts every tableau.  The prefix vectors
that the trie keeps are not counted, and a character shifted or mapped from
its dual builds no vectors.  A lam with more columns than the budget stops
at once.  A lam whose weights below lam need a lowering also stops, before
its first lowering, when one lowering's move table (_moves) would cost more
than the budget in held terms.  The table lists 2^(n-2) block types, each
with a packed delta averaging w 2^(n-1) bits, and a held term (a dict slot
and its orbit's int) takes about 128 bytes, so each row is charged one term
plus one per TERM_BITS of its delta (_move_table_terms).  One table in 16
variables would take about 335 MB; in 13 it takes a few MB and is within the
default budget.  A lam with no weight below it, such as 1^n, builds no table
and is not charged.

Families.  A family is a tuple of factor kinds (FAMILIES), and its degree-r
part is the sum over the splits r = a_1 + ... + a_m of the products of the
kinds' a_i-th powers.  A kind is its top (KINDS): all its powers together
have, once each, the weights with no coordinate above the top, the
character prod_j (1 + x_j + ... + x_j^top).  So the sum over every ordered
split is the degree-r part of the product of the kinds' series, which
characters.power_char builds from their tops (family_char).  An ordered
split and its sorted form give isomorphic products, and each product's
character has non-negative multiplicities in the simple basis, so the
simples of the sum are those of some split's product, the union that
Jordan-Hoelder gives for the direct sum.  enumerate_factors therefore
decomposes one character per degree; _degree_splits lists the sorted splits
for the checks that need each product on its own.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, inf, prod
from types import MappingProxyType
from typing import Iterable, Iterator, Optional

from .characters import DEFAULT_BUDGET, SymChar, power_char, product
from .errors import LengthExceedsN, NegativeResidual, ResourceBudgetExceeded, SchurkitError, VariableCountMismatch
from .partitions import PRIME_LIMIT, Partition, is_prime, partition, transpose

# Factor kind -> (its power's name, for help; its top at p, the largest
# coordinate of its weights).  Above n times its top a power is zero.
KINDS = MappingProxyType({
    "S": ("complete", lambda p: inf),
    "Sbar": ("truncated", lambda p: p - 1),
    "Wedge": ("exterior", lambda p: 1),
})

# Family name -> the kinds of its factors, equal kinds next to each other.
FAMILIES = MappingProxyType({
    "SS": ("S", "S"), "SbarSbar": ("Sbar", "Sbar"), "SbarSbarWedge": ("Sbar", "Sbar", "Wedge"),
    "Sbar": ("Sbar",), "S": ("S",),
})


@dataclass(slots=True)
class TensorVector:
    """Sparse symmetric tensor in a product of exterior powers of the natural
    module, in the column-orbit basis.

    entries maps orbits (packed integers, the sum over block bitmasks t of
    m_t 2^(w t), w the width) to nonzero residues mod p; each is the
    coefficient of every word in the orbit.
    """

    n: int
    p: int
    cols: tuple  # column heights, weakly decreasing
    entries: dict

    @property
    def width(self) -> int:
        """Bits per count of a packed orbit: no count exceeds len(cols)."""
        return len(self.cols).bit_length()


def highest_weight_vector(lam: Partition, n: int, p: int) -> TensorVector:
    """Product over columns of the wedge of the first column-height letters."""
    if len(lam) > n:
        raise LengthExceedsN(f"{lam} needs more than {n} letters")
    v = TensorVector(n, p, transpose(lam), {})
    v.entries[sum(1 << v.width * ((1 << c) - 1) for c in v.cols)] = 1
    return v


TERM_BITS = 1024  # about the 128 bytes of one held orbit term: its dict slot and int


def _move_table_terms(n: int, w: int) -> int:
    """What one lowering's _moves table over n letters costs in held terms:
    2^(n-2) rows, each one term for its tuple and one per TERM_BITS of its
    delta, which averages w 2^(n-1) bits."""
    return (1 << n - 2) * (1 + (w << n - 1) // TERM_BITS)


@lru_cache(maxsize=None)
def _moves(n: int, i: int, j: int, w: int) -> tuple:
    """The block types t over the letters 1..n that E_ji moves (t holds i and
    lacks j), each as (shift of m_t, shift of m_t', odd_t, the change
    2^(w t') - 2^(w t) of the packed orbit when one t-block becomes t')."""
    lo, hi = 1 << (i - 1), 1 << (j - 1)
    step = lo | hi  # xor swaps letter i for j in an eligible block
    between = hi - (lo << 1)  # the letters strictly between i and j
    return tuple(
        (w * t, w * (t ^ step), (t & between).bit_count() & 1, (1 << w * (t ^ step)) - (1 << w * t))
        for t in range(1, 1 << n)
        if t & step == lo
    )


@lru_cache(maxsize=None)
def _splits(moves: tuple, k: int, p: int) -> tuple:
    """Ways to move k blocks, j_t <= m_t of each eligible type, as pairs
    (j, prod_t (+-1)^j_t C(m_t' + j_t, j_t) mod p); vanishing products are
    skipped.  A move is (m_t, m_t', odd_t): only these counts and signs
    matter, never the blocks, so the splits are memoised on them."""
    if not moves:
        return (((), 1),) if k == 0 else ()
    (m, m_to, odd), rest = moves[0], moves[1:]
    room = sum(move[0] for move in rest)
    out = []
    for j in range(max(0, k - room), min(m, k) + 1):
        c = comb(m_to + j, j) * (-1) ** (odd * j) % p
        if c:
            out.extend(((j,) + js, c * d % p) for js, d in _splits(rest, k - j, p))
    return tuple(out)


def apply_lowering(v: TensorVector, i: int, j: int, k: int) -> TensorVector:
    """Divided power E_ji^(k) of the root operator taking letter i to j > i.

    For k = 1 each target moves one block of one eligible type t, with the
    coefficient (+-1)(m_t' + 1), so no split is looked up."""
    if not 1 <= i < j <= v.n:
        raise ValueError(f"lowering {i} -> {j} outside 1..{v.n}")
    w = v.width
    mask = (1 << w) - 1
    table = _moves(v.n, i, j, w)
    p = v.p
    out: dict = {}
    get = out.get
    if k == 1:
        for orbit, coeff in v.entries.items():
            for at, to, odd, delta in table:
                if orbit >> at & mask:
                    key = orbit + delta
                    c = coeff * ((orbit >> to & mask) + 1)
                    x = (get(key, 0) - c if odd else get(key, 0) + c) % p
                    if x:
                        out[key] = x
                    else:
                        out.pop(key, None)
        return TensorVector(v.n, p, v.cols, out)
    for orbit, coeff in v.entries.items():
        moves = []
        deltas = []
        for at, to, odd, delta in table:
            m = orbit >> at & mask
            if m:
                moves.append((m, orbit >> to & mask, odd))
                deltas.append(delta)
        for js, c in _splits(tuple(moves), k, p):
            key = orbit
            for jt, delta in zip(js, deltas):
                key += jt * delta
            x = (get(key, 0) + coeff * c) % p
            if x:
                out[key] = x
            else:
                out.pop(key, None)
    return TensorVector(v.n, p, v.cols, out)


# --- tableau vectors and Gram ranks --------------------------------------------


@lru_cache(maxsize=None)
def _peel(shape: Partition, content: tuple) -> tuple:
    """The divided powers (r, j, t) of F^(T), t letters j > r in row r, for
    each semistandard tableau T of the given shape and content, unsorted.

    The largest letter is peeled as a horizontal strip.  The strip empties
    every row at index letter-1 or more, and the inner shape is built row by
    row, each row's value from the largest down; a value is dropped, with
    every smaller one, once the inner shape's partial sum falls below the
    rest of the content's, so every inner shape dominates the rest and every
    branch ends in a tableau."""
    letter = len(content)
    if letter == 0:
        return ((),)
    if len(shape) > letter:
        return ()
    rest = content[:-1]
    rows = min(len(shape), letter - 1)  # the rows that keep cells
    left = content[-1] - (shape[letter - 1] if len(shape) == letter else 0)
    if left < 0:
        return ()
    out = []
    inner = [0] * rows

    def strip(i: int, left: int, have: int, need: int) -> None:
        if i == rows:
            if left == 0:
                inner_shape = tuple(inner[: rows - inner.count(0)])
                moved = tuple((r + 1, letter, a - b) for r, (a, b) in enumerate(zip(shape, inner)) if a > b)
                out.extend(moved + ops for ops in _peel(inner_shape, rest))
            return
        a = shape[i]
        need += rest[i]
        lo = shape[i + 1] if i + 1 < len(shape) else 0
        for v in range(a, max(lo, a - left, need - have) - 1, -1):
            inner[i] = v
            strip(i + 1, left - a + v, have + v, need)

    strip(0, left, 0, 0)
    return tuple(out)


def _tableau_operators(lam: Partition, nu: tuple):
    """For each semistandard tableau T of shape lam and content nu, the
    divided powers (r, j, t) of F^(T), t letters j > r in row r, bottom row
    first.  Tableaux are peeled one letter at a time, largest first, as
    horizontal strips (_peel)."""
    for ops in _peel(lam, nu):
        yield sorted(ops, reverse=True)


PRUNED = (None, None)  # a trie node whose prefix vector lies in the radical


def _prefix_weight(lam: Partition, n: int, ops) -> Partition:
    """The dominant weight of the vector that the operators (r, j, t), each
    moving t from coordinate r to j, lower lam's highest weight vector to:
    the weight sorted, zeros dropped."""
    weight = list(lam) + [0] * (n - len(lam))
    for r, j, t in ops:
        weight[r - 1] -= t
        weight[j - 1] += t
    return tuple(sorted(filter(None, weight), reverse=True))


def _gram_rank(rows: list, p: int, w: int, numerator: int) -> int:
    """Rank of the Gram matrix <a, b> = sum_O |O| a_O b_O of rows of packed
    orbits of field width w, whose columns give |O| the numerator
    prod_c m_c!.

    The matrix is built from an orbit index: each orbit adds |O| a b to the
    entries of every pair of rows that hold it, with coefficients a and b."""
    mask = (1 << w) - 1

    def size(orbit: int) -> int:
        """|O| mod p: the numerator over prod_t m_t!, read from the nonzero
        fields, lowest first."""
        denominator = 1
        while orbit:
            orbit >>= ((orbit & -orbit).bit_length() - 1) // w * w
            denominator *= factorial(orbit & mask)
            orbit >>= w
        return numerator // denominator % p

    d = len(rows)
    if d == 0:
        return 0
    if d == 1:
        return int(sum(size(orbit) * c * c for orbit, c in rows[0].items()) % p != 0)
    index: dict = {}
    for a, row in enumerate(rows):
        for orbit, c in row.items():
            index.setdefault(orbit, []).append((a, c))
    g = [[0] * d for _ in range(d)]
    for orbit, holders in index.items():
        s = size(orbit)
        if s:
            for a, x in holders:
                line, sx = g[a], s * x
                for b, y in holders:
                    line[b] += sx * y
    g = [[x % p for x in line] for line in g]
    # forward elimination mod p: the rank is the number of pivots
    rank = 0
    for col in range(d):
        piv = next((r for r in range(rank, d) if g[r][col]), None)
        if piv is None:
            continue
        g[rank], g[piv] = g[piv], g[rank]
        top = g[rank]
        inv = pow(top[col], -1, p)
        for r in range(rank + 1, d):
            if g[r][col]:
                f = g[r][col] * inv
                g[r] = [(x - f * y) % p for x, y in zip(g[r], top)]
        rank += 1
    return rank


def _dominated(lam: Partition, n: int) -> Iterator[Partition]:
    """The partitions nu of |lam| with at most n parts that lam dominates, in
    descending lex order (the order of partitions_of).  Each part is at most
    the previous one and at most lam's partial sum less nu's, and at least
    what the remaining parts can still hold."""
    total = sum(lam)
    bound = list(accumulate(lam)) + [total] * (n - len(lam))

    def gen(i: int, done: int, cap: int) -> Iterator[tuple]:
        left = total - done
        if left == 0:
            yield ()
            return
        for v in range(min(cap, bound[i] - done), -(-left // (n - i)) - 1, -1):
            for tail in gen(i + 1, done + v, v):
                yield (v,) + tail

    yield from gen(0, 0, total)


def _simple_char_by_gram(lam: Partition, p: int, n: int, budget: int) -> tuple[SymChar, int]:
    """Character of the simple module via the Gram ranks of the tableau
    vectors at each dominant weight; also returns the largest weight-space
    dimension, the largest number of tableaux of one content.  The vectors
    are the rows of the Gram matrix unreduced: they are a basis of the weight
    space, and the Gram matrix of any spanning set has the form's rank.  The
    vectors of the proper operator prefixes are shared by all of lam's
    weights; the last operator of each tableau is applied unstored.  A
    prefix whose weight sorts to one of rank 0 is not lowered, and the
    tableaux through it are left out (see Pruning in the module docstring).

    Raises ResourceBudgetExceeded as soon as the orbit terms of one weight's
    vectors plus its d^2 Gram entries, d the number of its tableaux, pass
    budget, before the Gram matrix is built; at once when lam has more
    columns than budget; and before the first lowering when one move table
    costs more than budget (_move_table_terms).
    """
    if lam and lam[0] > budget:
        raise ResourceBudgetExceeded(f"L{list(lam)} has more than {budget} columns")
    hwv = highest_weight_vector(lam, n, p)
    w = hwv.width
    numerator = prod(map(factorial, Counter(hwv.cols).values()))
    trie: dict = {}  # op -> (the vector after the prefix ending in op, subtrie), or PRUNED
    coeffs = {}
    zeros = set()  # the weights visited here whose rank is 0
    max_dim = 0
    for nu in _dominated(lam, n):
        if nu != lam and _move_table_terms(n, w) > budget:  # nu needs a lowering
            raise ResourceBudgetExceeded(
                f"a lowering of L{list(lam)} in {n} variables needs a move table of "
                f"{_move_table_terms(n, w)} terms, more than {budget}"
            )
        d = len(_peel(lam, nu))  # the number of tableaux
        held = d * d
        rows = []
        for ops in _tableau_operators(lam, nu):
            vec, node = hwv, trie
            for depth, op in enumerate(ops[:-1]):
                hit = node.get(op)
                if hit is None:
                    pruned = _prefix_weight(lam, n, ops[: depth + 1]) in zeros
                    hit = node[op] = PRUNED if pruned else (apply_lowering(vec, *op), {})
                vec, node = hit
                if vec is None:
                    break
            else:  # no prefix of ops was pruned
                if ops:
                    vec = apply_lowering(vec, *ops[-1])
                held += len(vec.entries)
                if held > budget:
                    raise ResourceBudgetExceeded(
                        f"weight {list(nu)} of L{list(lam)} needs more than {budget} orbit terms and Gram entries"
                    )
                rows.append(vec.entries)
        max_dim = max(max_dim, d)
        rank = _gram_rank(rows, p, w, numerator)
        if rank:
            coeffs[nu] = rank
        else:
            zeros.add(nu)
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


def _unique_keys(pairs: list) -> dict:
    """JSON object hook that rejects a key listed twice (json keeps the last)."""
    out = dict(pairs)
    if len(out) != len(pairs):
        dup = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise SchurkitError(f"key {dup!r} is listed twice")
    return out


class SimpleTable:
    """Cache of simple characters for one (p, n), the only place the oracle
    functions read p and n from.  p must be a prime below PRIME_LIMIT and
    n at least 1, else ValueError.

    With cache_dir, the table starts from the file simple_p{p}_n{n}.jsonl in
    that directory when it exists, and persist() writes the table back there.
    Used as a context manager, the table persists when the block ends, also
    after an exception such as a budget trip, and the module memos of the
    tableau peel, the eligible block types and the block splits are
    cleared.
    """

    def __init__(self, p: int, n: int, budget: int = DEFAULT_BUDGET, cache_dir: str | os.PathLike | None = None):
        if not (p < PRIME_LIMIT and is_prime(p)):
            raise ValueError(f"p = {p} is not a prime below {PRIME_LIMIT}")
        if n < 1:
            raise ValueError(f"n = {n} is not a positive number of variables")
        self.p = p
        self.n = n
        self.budget = budget
        self.cache_dir = cache_dir
        self.cache: dict[Partition, SymChar] = {}
        self.hits = 0
        self.misses = 0
        self.dims: dict[Partition, int] = {}  # largest weight space of each character computed here
        self.path = None if cache_dir is None else os.path.join(cache_dir, f"simple_p{p}_n{n}.jsonl")
        if self.path is not None and os.path.exists(self.path):
            self.load(self.path)
        self._saved = len(self.cache)

    def char(self, lam: Partition) -> SymChar:
        """The character of L(lam), from the table, else derived from a
        character this table computed (_derived), else computed."""
        lam = tuple(lam)
        cached = self.cache.get(lam)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if len(lam) > self.n:
            raise LengthExceedsN(f"{lam} needs more than {self.n} letters")
        chi, dim = self._derived(lam) or _simple_char_by_gram(lam, self.p, min(self.n, sum(lam)), self.budget)
        self.cache[lam] = chi = SymChar(self.n, chi.degree, chi.coeffs)
        self.dims[lam] = dim
        return chi

    def _derived(self, lam: Partition) -> Optional[tuple[SymChar, int]]:
        """The character and largest weight space of L(lam), mapped from a
        character this table computed, or None (see the module docstring).

        Full columns: a lam with n parts, k = lam_n, has the Gram ranks of
        lam - k 1^n, every weight shifted by k 1^n.  Duality: L(lam) is
        L(lam_1 - lam_n, ..., lam_1 - lam_2) dualised and twisted by
        det^lam_1, so each of that character's weights nu gives the weight
        (lam_1 - nu_n, ..., lam_1 - nu_1) of lam.  A loaded character has no
        recorded dimension and is not used."""
        n = self.n
        pad = (0,) * n
        top = lam[0] if lam else 0
        k = lam[-1] if lam and len(lam) == n else 0
        base = tuple(x - k for x in lam if x > k)
        dual = tuple(top - x for x in reversed(lam + pad[len(lam) :]) if x < top)
        if k and base in self.dims:
            source, move = base, lambda nu: [x + k for x in nu]
        elif dual in self.dims:
            source, move = dual, lambda nu: [top - x for x in reversed(nu)]
        else:
            return None
        coeffs = {tuple(x for x in move(mu + pad[len(mu) :]) if x): c for mu, c in self.cache[source].coeffs.items()}
        return SymChar(n, sum(lam), coeffs), self.dims[source]

    def __enter__(self) -> SimpleTable:
        return self

    def __exit__(self, *exc) -> None:
        _peel.cache_clear()
        _moves.cache_clear()
        _splits.cache_clear()
        self.persist()

    def stats(self) -> dict:
        return {
            "cacheHits": self.hits,
            "cacheMisses": self.misses,
            "maxWeightSpaceDim": max(self.dims.values(), default=0),
            "cachedCharacters": len(self.cache),
        }

    # --- persistence: one JSON record per line ---------------------------------

    def persist(self) -> None:
        """Save the table to its cache file if it gained characters since it
        was loaded or last saved (characters are only ever added).  The
        records of the file that the table lacks, such as those another table
        of the same (p, n) saved meanwhile, are added to the table first, so a
        save keeps every character the file held."""
        if self.path is None or len(self.cache) == self._saved:
            return
        if os.path.exists(self.path):
            for lam, chi in self._records(self.path):
                self.cache.setdefault(lam, chi)
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
        more than n parts, a top coefficient other than 1, a coefficient
        that is not positive, or a key or a weight listed twice, raises
        SchurkitError naming the file and the line."""
        count = 0
        for lam, chi in self._records(path):
            self.cache[lam] = chi
            count += 1
        return count

    def _records(self, path) -> Iterator[tuple[Partition, SymChar]]:
        """The checked (lambda, character) records of path, in file order
        (see load)."""
        weights: dict = {}  # key text -> its weight, so each key is parsed once per file
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line, object_pairs_hook=_unique_keys)
                    lam = partition(rec["lambda"])
                    if len(lam) > self.n:
                        raise LengthExceedsN(f"lambda {list(lam)} has more than {self.n} parts")
                    coeffs = {}
                    for k, v in rec["char"].items():
                        mu = weights.get(k)
                        if mu is None:
                            mu = weights[k] = partition(json.loads(k))
                        coeffs[mu] = v
                    if len(coeffs) != len(rec["char"]):
                        raise SchurkitError(f"a weight is listed twice: {rec['char']}")
                    if any(type(c) is not int for c in coeffs.values()):
                        raise SchurkitError(f"coefficients must be integers: {rec['char']}")
                    if defect := simple_char_defect(lam, coeffs):
                        raise SchurkitError(defect)
                    chi = SymChar(self.n, sum(lam), coeffs)
                except (SchurkitError, ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise SchurkitError(f"bad cache record in {path}, line {lineno}: {type(exc).__name__}: {exc}") from exc
                yield lam, chi


def decompose_simples(chi: SymChar, table: SimpleTable) -> dict:
    """Greedy expansion of a module character in the simple basis of table.

    Repeatedly strips the lexicographically greatest supported weight; a
    negative residual coefficient means the input was not the character of a
    module (or the oracle is broken) and aborts loudly.
    """
    if chi.n != table.n:
        raise VariableCountMismatch(f"character in {chi.n} variables, table for n={table.n}")
    residual = dict(chi.coeffs)
    out: dict[Partition, int] = {}
    while residual:
        lam = max(residual)
        m = residual.pop(lam)
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
    """Character of a product of powers, one (kind, degree) per factor with
    kind in KINDS, multiplied in min(n, total degree) variables
    (characters.product); the empty product is the unit character."""
    atoms = []
    for kind, r in spec:
        if kind not in KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        atoms.append(power_char(r, n, KINDS[kind][1](p)))
    return product(atoms, n)


def composition_factors(spec: Iterable[tuple], table: SimpleTable) -> dict:
    """Composition factors, with multiplicities, of a product of powers."""
    return decompose_simples(product_char(spec, table.p, table.n), table)


def _degree_splits(kinds: tuple, r: int, p: int, n: int, low: int = 0) -> Iterator[tuple]:
    """The specs ((kind, degree), ...) of kinds with degrees summing to r, the
    first at least low, weakly increasing along each run of equal kinds, in
    lexicographic order.  No degree is above n times its kind's top (KINDS),
    where the power is zero."""
    kind, rest = kinds[0], kinds[1:]
    top = min(r, n * KINDS[kind][1](p))
    if not rest:
        if low <= r <= top:
            yield ((kind, r),)
        return
    for a in range(low, top + 1):
        for tail in _degree_splits(rest, r - a, p, n, a if rest[0] == kind else 0):
            yield ((kind, a), *tail)


def family_char(family: str, r: int, p: int, n: int) -> SymChar:
    """The degree-r part of a family's product summed over every ordered split
    of r: power_char of its kinds' tops (see Families in the module docstring)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    return power_char(r, n, *(KINDS[kind][1](p) for kind in FAMILIES[family]))


def enumerate_factors(family: str, r: int, table: SimpleTable) -> set:
    """The composition factors of a family in degree r: those of its summed
    character (family_char), which are the union over its degree splits."""
    return set(decompose_simples(family_char(family, r, table.p, table.n), table))
