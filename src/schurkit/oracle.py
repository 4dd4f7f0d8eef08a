"""Brute-force simple characters for GL_n in characteristic p.

Realization.  For a partition lam with column heights c_1 >= c_2 >= ... the
highest-weight closure is taken inside V = Wedge^{c_1} E x Wedge^{c_2} E x ...
A basis word of V is a concatenation of strictly increasing column blocks
over the alphabet 1..n, stored as bytes; the highest weight vector is the
single word whose j-th block is 1..c_j, with coefficient 1.  Divided powers
of the lowering operators act by replacing the letter i with i+1 in a chosen
set of k blocks (blocks already holding i+1 contribute nothing), always with
coefficient 1, so all arithmetic stays in F_p from the start.

Correctness.  Let M be the span of all divided-power lowering monomials
applied to the highest weight vector v.  Declaring the words orthonormal
gives a bilinear form for which lowering and raising matrices are mutual
transposes, so M's radical is a submodule.  Any m in the radical pairs to
zero with every F v, hence (applying the transposed monomial) lies in a
submodule avoiding the highest weight line, while <v, v> = 1 keeps v out of
the radical; therefore M modulo the radical is the irreducible module with
highest weight lam, and the rank of the Gram matrix of any basis of a weight
space of M is the weight multiplicity of the simple module.  This holds even
when M is a proper reduction image of the integral Weyl module, so no purity
assumption is needed.

Generators.  Divided powers at p-power exponents generate all divided powers
(Lucas), so the closure explores k in {1, p, p^2, ...}; a regression test
checks the resulting characters against exploring every k.  A weight space
is never expanded past the number of semistandard tableaux of that content,
which bounds the dimension of the corresponding Weyl weight space.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import combinations
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
    """Sparse vector in a product of exterior powers of the natural module.

    entries maps words (bytes over 1..n, one strictly increasing block per
    column of the shape) to nonzero residues mod p.
    """

    n: int
    p: int
    cols: tuple  # column heights, weakly decreasing
    entries: dict

    def weight(self) -> Optional[tuple]:
        """Common content of the words, as a length-n count vector."""
        for word in self.entries:
            return _content(word, self.n)
        return None

    def words(self) -> dict:
        """Entries keyed by tuples of ints, for display and tests."""
        return {tuple(w): c for w, c in sorted(self.entries.items())}


def _content(word: bytes, n: int) -> tuple:
    out = [0] * n
    for letter in word:
        out[letter - 1] += 1
    return tuple(out)


def _block_offsets(cols: Iterable[int]) -> list:
    offs = [0]
    for c in cols:
        offs.append(offs[-1] + c)
    return offs


def highest_weight_vector(lam: Partition, n: int, p: int = 2) -> TensorVector:
    """Product over columns of the wedge of the first column-height letters."""
    if len(lam) > n:
        raise LengthExceedsN(f"{lam} needs more than {n} letters")
    cols = transpose(lam)
    word = b"".join(bytes(range(1, c + 1)) for c in cols)
    return TensorVector(n, p, cols, {word: 1})


def apply_lowering(v: TensorVector, i: int, k: int) -> TensorVector:
    """Divided power of the i-th lowering operator.

    Sums over all k-element sets of column blocks in which the letter i can
    move to i+1; words where a chosen block already holds i+1 vanish inside
    the exterior power, so only eligible blocks are chosen.
    """
    if not 1 <= i <= v.n - 1:
        raise ValueError(f"lowering index {i} outside 1..{v.n - 1}")
    offs = _block_offsets(v.cols)
    nblocks = len(v.cols)
    p = v.p
    out: dict = {}
    for word, coeff in v.entries.items():
        eligible = []
        for b in range(nblocks):
            block = word[offs[b] : offs[b + 1]]
            if i in block and i + 1 not in block:
                eligible.append(b)
        if len(eligible) < k:
            continue
        positions = {b: word.index(i, offs[b], offs[b + 1]) for b in eligible}
        for chosen in combinations(eligible, k):
            w = bytearray(word)
            for b in chosen:
                # the block stays strictly increasing: the next letter, if
                # any, exceeds i+1 because i+1 is absent
                w[positions[b]] = i + 1
            key = bytes(w)
            c = (out.get(key, 0) + coeff) % p
            if c:
                out[key] = c
            else:
                out.pop(key, None)
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
    d = len(rows)
    if d == 0:
        return 0
    g = []
    for a in range(d):
        ra = rows[a]
        line = []
        for b in range(d):
            rb = rows[b]
            small, big = (ra, rb) if len(ra) <= len(rb) else (rb, ra)
            s = 0
            for w, c in small.items():
                x = big.get(w)
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
    root_word = next(iter(hwv.entries))
    root_w = _content(root_word, n)
    root_row = {root_word: 1}

    echelons: dict[tuple, dict] = {root_w: {root_word: root_row}}
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
                img = apply_lowering(vec, i, k).entries
                if len(img) > budget:
                    raise ResourceBudgetExceeded(
                        f"weight {tw} of L{list(lam)} needs {len(img)} words (budget {budget})"
                    )
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
