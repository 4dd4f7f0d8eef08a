"""Brute-force simple characters for GL_n in characteristic p.

Realization.  For a partition lam with column heights c_1 >= c_2 >= ... the
highest-weight closure lies in V = Wedge^{c_1} E x Wedge^{c_2} E x ...  The
highest weight vector v (the j-th column block is 1..c_j) and the divided
powers F_i^(k) of the lowering operators commute with every permutation of
equal-height columns, so the closure lies in the symmetric tensors of V, that
is in the tensor product over heights c of the divided powers
Gamma^{m_c}(Wedge^c E), m_c being the number of columns of height c
(J. A. Green, Polynomial Representations of GL_n, LNM 830).

Basis.  A word of V is one strictly increasing block of letters per column.
Permuting equal-height columns splits the words into orbits, and a symmetric
tensor has one coefficient per orbit, shared by every word in it.  An orbit
is stored as a tuple of (block, count) pairs sorted by block, a block being
the bitmask of its letters (bit l-1 for letter l), so its height is its
popcount.  An orbit holds |O| = prod_c m_c! / prod_t m_t! words, where m_t
counts its blocks of type t.  v is the single orbit of the blocks 1..c_j,
with coefficient 1.

Lowering.  On a word, F_i^(k) is the sum over the k-sets of blocks that hold
i and lack i+1 of the word with i replaced by i+1 in those blocks; each term
has coefficient 1 (blocks already holding i+1 vanish in the exterior power).
On the orbit sum this moves j_t blocks of each eligible type t to t' (t with
i replaced by i+1), for every split k = sum_t j_t.  A word of the target
orbit arises from prod_t C(m_t' + j_t, j_t) source words, m_t' being the
count of t' before the move (choose which of its t'-blocks were moved), so
that product mod p is the coefficient.  All arithmetic stays in F_p.

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

Generators.  Divided powers at p-power exponents generate all divided powers
(Lucas), so the closure explores k in {1, p, p^2, ...}; a regression test
checks the resulting characters against exploring every k.  A weight space
is never expanded past the number of semistandard tableaux of that content,
which bounds the dimension of the corresponding Weyl weight space.

Budget.  A table's budget caps the words an image represents, the sum of the
orbit sizes over its support (the image's word count in V); it is checked
while each image is built.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Iterable, Optional

from .characters import SymChar, kostka, power_char
from .errors import LengthExceedsN, NegativeResidual, ResourceBudgetExceeded
from .partitions import Partition, partition, transpose

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
    (j, prod_t C(m_t' + j_t, j_t) mod p); vanishing products are skipped."""
    if not moves:
        if k == 0:
            yield (), 1
        return
    (_, m, _, m_to), rest = moves[0], moves[1:]
    room = sum(move[1] for move in rest)
    for j in range(max(0, k - room), min(m, k) + 1):
        c = comb(m_to + j, j) % p
        if c:
            for js, d in _splits(rest, k - j, p):
                yield (j,) + js, c * d % p


def apply_lowering(v: TensorVector, i: int, k: int, budget: int = DEFAULT_BUDGET) -> TensorVector:
    """Divided power F_i^(k) of the i-th lowering operator.

    Raises ResourceBudgetExceeded as soon as the image built so far
    represents more than budget words.
    """
    if not 1 <= i <= v.n - 1:
        raise ValueError(f"lowering index {i} outside 1..{v.n - 1}")
    lo = 1 << (i - 1)
    step = lo | (lo << 1)  # xor swaps letter i for i+1 in an eligible block
    p = v.p
    out: dict = {}
    represented = 0
    for orbit, coeff in v.entries.items():
        counts = dict(orbit)
        moves = [(t, m, t ^ step, counts.get(t ^ step, 0)) for t, m in orbit if t & step == lo]
        for js, c in _splits(moves, k, p):
            new = dict(counts)
            for (t, m, t_to, m_to), j in zip(moves, js):
                if j:
                    if j == m:
                        del new[t]
                    else:
                        new[t] = m - j
                    new[t_to] = m_to + j
            key = tuple(sorted(new.items()))
            old = out.get(key, 0)
            x = (old + coeff * c) % p
            if x:
                out[key] = x
                if not old:
                    represented += orbit_size(key)
                    if represented > budget:
                        raise ResourceBudgetExceeded(
                            f"F_{i}^({k}) image in L{list(transpose(v.cols))} passes {budget} represented words"
                        )
            elif old:
                del out[key]
                represented -= orbit_size(key)
    return TensorVector(v.n, p, v.cols, out)


# --- closure and Gram ranks ----------------------------------------------------


def _p_power_exponents(p: int, limit: int) -> list:
    out = []
    k = 1
    while k <= limit:
        out.append(k)
        k *= p
    return out


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


def _simple_char_by_gram(
    lam: Partition, p: int, n: int, budget: int, all_k: bool = False
) -> tuple[SymChar, int]:
    """Character of the simple module via Gram ranks per dominant weight of
    the lowering closure; also returns the largest weight-space dimension."""
    if len(lam) > n:
        raise LengthExceedsN(f"{lam} needs more than {n} letters")
    deg = sum(lam)
    if deg == 0:
        return SymChar(n, 0, {(): 1}), 1
    hwv = highest_weight_vector(lam, n, p)
    root_w = tuple(lam) + (0,) * (n - len(lam))
    root_row = hwv.entries

    echelons: dict[tuple, dict] = {root_w: {next(iter(root_row)): root_row}}
    caps: dict[tuple, int] = {}

    def cap(w: tuple) -> int:
        c = caps.get(w)
        if c is None:
            c = kostka(lam, partition(sorted(w, reverse=True)))
            caps[w] = c
        return c

    queue = [(root_w, root_row)]
    while queue:
        w, row = queue.pop()
        vec = TensorVector(n, p, hwv.cols, row)
        for i in range(1, n):
            cnt = w[i - 1]
            ks = range(1, cnt + 1) if all_k else _p_power_exponents(p, cnt)
            for k in ks:
                tw = list(w)
                tw[i - 1] -= k
                tw[i] += k
                tw = tuple(tw)
                ech = echelons.setdefault(tw, {})
                if len(ech) >= cap(tw):
                    continue  # weight space already as big as the Weyl bound
                img = apply_lowering(vec, i, k, budget).entries
                new = _reduce_against(ech, img, p)
                if new is not None:
                    queue.append((tw, new))

    coeffs = {}
    max_dim = 0
    for w, ech in echelons.items():
        max_dim = max(max_dim, len(ech))
        desc = tuple(sorted(w, reverse=True))
        if tuple(w) != desc:
            continue  # rank needed at dominant weights only
        rank = _gram_rank(list(ech.values()), p)
        if rank:
            coeffs[partition(desc)] = rank
    return SymChar(n, deg, coeffs), max_dim


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
        count = 0
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                lam = partition(rec["lambda"])
                coeffs = {partition(json.loads(k)): v for k, v in rec["char"].items()}
                self.cache[lam] = SymChar(self.n, sum(lam), coeffs)
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
