import hashlib
import inspect
import json
import random
import sys
import types
from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial, inf, prod

import pytest

from schurkit import characters, classify, oracle
from schurkit.characters import (
    _horizontal_strip_removals,
    decompose_schur,
    frobenius_twist,
    kostka,
    power_char,
    schur_char,
)
from schurkit.errors import (
    LengthExceedsN,
    NegativeResidual,
    ResourceBudgetExceeded,
    SchurkitError,
    VariableCountMismatch,
)
from schurkit.characters import SymChar
from schurkit.oracle import (
    DEFAULT_BUDGET,
    FAMILIES,
    KINDS,
    SimpleTable,
    TensorVector,
    _degree_splits,
    _dominated,
    _gram_rank,
    _moves,
    _peel,
    _simple_char_by_gram,
    _splits,
    _tableau_operators,
    apply_lowering,
    composition_factors,
    decompose_simples,
    enumerate_factors,
    factor_dimensions_check,
    family_char,
    highest_weight_vector,
    product_char,
)
from schurkit.partitions import (
    PRIME_LIMIT,
    Dominance,
    dominance_leq,
    is_restricted,
    p_core,
    partition,
    partitions_of,
    partitions_up_to,
    restricted_split,
    transpose,
)


def _encode(counts, w):
    """Packed orbit of {block bitmask: count}: the count of block t in bits
    w*t to w*t + w - 1."""
    key = 0
    for t, m in counts.items():
        assert 0 < m < 1 << w
        key |= m << w * t
    return key


def _decode(orbit, w):
    """{block bitmask: count} of a packed orbit, read one w-bit field at a time."""
    if not orbit:
        return {}
    bits = bin(orbit)[2:][::-1]
    fields = (int(bits[a : a + w][::-1], 2) for a in range(0, len(bits), w))
    return {t: m for t, m in enumerate(fields) if m}


def _width(cols):
    """Field width of the orbits of a vector with these columns."""
    return len(cols).bit_length()


def _orbit(w, *blocks):
    """Packed orbit, in fields of w bits, of the given blocks, each a tuple of
    letters."""
    return _encode(Counter(sum(1 << (letter - 1) for letter in block) for block in blocks), w)


def _tuples(v):
    """The entries of v with each orbit a tuple of (block, count) pairs
    sorted by block."""
    w = _width(v.cols)
    return {tuple(sorted(_decode(orbit, w).items())): c for orbit, c in v.entries.items()}


def _orbit_size(orbit, w):
    """Words in a packed orbit: prod_h (blocks of height h)! / prod_t m_t!."""
    counts = _decode(orbit, w)
    heights = Counter()
    for t, m in counts.items():
        heights[t.bit_count()] += m
    return prod(map(factorial, heights.values())) // prod(map(factorial, counts.values()))


def _words(v):
    """The vector in the word basis: every arrangement of an orbit's blocks
    over columns of their own height carries the orbit's coefficient."""
    out = {}
    for orbit, c in v.entries.items():
        counts = _decode(orbit, _width(v.cols))
        groups = []
        for h in sorted(set(v.cols), reverse=True):
            blocks = [b for b, m in counts.items() for _ in range(m) if b.bit_count() == h]
            groups.append(set(permutations(blocks)))
        for arrangement in product(*groups):
            word = tuple(l for group in arrangement for b in group for l in range(1, v.n + 1) if b >> (l - 1) & 1)
            out[word] = c
    return out


def _lower_words(words, cols, i, j, k, p):
    """Reference E_ji^(k) on words: i becomes j in each k-set of the blocks
    that hold i and lack j, and each changed block is sorted back into
    increasing order at the sign of that permutation."""
    offs = [sum(cols[:c]) for c in range(len(cols) + 1)]
    out = {}
    for word, c in words.items():
        blocks = [word[offs[b] : offs[b + 1]] for b in range(len(cols))]
        eligible = [b for b, block in enumerate(blocks) if i in block and j not in block]
        for chosen in combinations(eligible, k):
            new, sign = [], 1
            for b, block in enumerate(blocks):
                if b in chosen:
                    block = [j if l == i else l for l in block]
                    sign *= (-1) ** sum(x > y for x, y in combinations(block, 2))
                new.extend(sorted(block))
            out[tuple(new)] = (out.get(tuple(new), 0) + sign * c) % p
    return {w: c for w, c in out.items() if c}


def _rank_mod_p(g, p):
    """Rank of a matrix of residues mod p, by Gaussian elimination."""
    g = [list(line) for line in g]
    rank = 0
    for col in range(len(g[0]) if g else 0):
        piv = next((r for r in range(rank, len(g)) if g[r][col]), None)
        if piv is None:
            continue
        g[rank], g[piv] = g[piv], g[rank]
        inv = pow(g[rank][col], -1, p)
        for r in range(rank + 1, len(g)):
            f = g[r][col] * inv
            g[r] = [(x - f * y) % p for x, y in zip(g[r], g[rank])]
        rank += 1
    return rank


def _reduce_mod_p(ech, vec, p):
    """Reference echelon step: reduce a copy of the sparse vector vec against
    the rows of ech, each keyed by its smallest orbit; install and return the
    remainder when it is nonzero, else return None."""
    vec = dict(vec)
    while vec:
        lead = min(vec)
        row = ech.get(lead)
        if row is None:
            ech[lead] = vec
            return vec
        f = vec[lead] * pow(row[lead], -1, p)
        for o, x in row.items():
            t = (vec.get(o, 0) - f * x) % p
            if t:
                vec[o] = t
            else:
                vec.pop(o, None)
    return None


def _numerator(cols):
    """prod_c m_c! over the column heights c, m_c columns of height c."""
    return prod(map(factorial, Counter(cols).values()))


def _dense_gram_rank(rows, p, w):
    """Reference Gram rank: one dict dot product <a, b> = sum_O |O| a_O b_O
    per pair of rows of packed orbits of field width w."""
    g = [[sum(_orbit_size(o, w) * c * b.get(o, 0) for o, c in a.items()) % p for b in rows] for a in rows]
    return _rank_mod_p(g, p)


def _unpruned_tableau_operators(lam, nu):
    """Reference tableau peel: every horizontal strip that leaves at most
    letter-1 rows is followed, whether or not a tableau can be finished."""

    def peel(shape, letter, ops):
        if letter == 0:
            yield sorted(ops, reverse=True)
            return
        for inner in _horizontal_strip_removals(shape, nu[letter - 1]):
            if len(inner) < letter:
                moved = [
                    (r + 1, letter, a - b)
                    for r, (a, b) in enumerate(zip(shape, inner + (0,) * len(shape)))
                    if a > b and r + 1 < letter
                ]
                yield from peel(inner, letter - 1, ops + moved)

    yield from peel(lam, len(nu), [])


def _reference_splits(moves, k, p):
    """Reference block splits: the unmemoised generator over (m, m', odd)
    moves."""
    if not moves:
        if k == 0:
            yield (), 1
        return
    (m, m_to, odd), rest = moves[0], moves[1:]
    room = sum(move[0] for move in rest)
    for j in range(max(0, k - room), min(m, k) + 1):
        c = comb(m_to + j, j) * (-1) ** (odd * j) % p
        if c:
            for js, d in _reference_splits(rest, k - j, p):
                yield (j,) + js, c * d % p


def _tuple_lowering(entries, n, i, j, k, p):
    """Reference E_ji^(k) on orbits kept as tuples of (block, count) pairs
    sorted by block: the counts are copied into a dict for each split and
    the target orbit is sorted back into a tuple."""
    lo, hi = 1 << (i - 1), 1 << (j - 1)
    step, between = lo | hi, hi - (lo << 1)
    out = {}
    for orbit, coeff in entries.items():
        counts = dict(orbit)
        eligible = [t for t, _ in orbit if t & step == lo]
        moves = tuple((counts[t], counts.get(t ^ step, 0), (t & between).bit_count() & 1) for t in eligible)
        for js, c in _reference_splits(moves, k, p):
            new = dict(counts)
            for t, (m, m_to, _), jt in zip(eligible, moves, js):
                if jt:
                    if jt == m:
                        del new[t]
                    else:
                        new[t] = m - jt
                    new[t ^ step] = m_to + jt
            key = tuple(sorted(new.items()))
            out[key] = (out.get(key, 0) + coeff * c) % p
    return {o: c for o, c in out.items() if c}


def _tableau_vectors(lam, nu, p, n):
    """The tableau vectors of content nu, each lowered from the highest
    weight vector on its own."""
    hwv, out = highest_weight_vector(lam, n, p), []
    for ops in _tableau_operators(lam, nu):
        vec = hwv
        for op in ops:
            vec = apply_lowering(vec, *op)
        out.append(vec.entries)
    return out


def _unshared_char(lam, p, n):
    """Reference oracle without prefix sharing: the tableau vectors are
    lowered one by one, row-reduced to an echelon basis and the dense Gram
    rank of that basis taken."""
    w = _width(transpose(lam))
    coeffs, max_dim = {}, 0
    for nu in _dominated(lam, n):
        ech = {}
        for vec in _tableau_vectors(lam, nu, p, n):
            _reduce_mod_p(ech, vec, p)
        max_dim = max(max_dim, len(ech))
        rank = _dense_gram_rank(list(ech.values()), p, w)
        if rank:
            coeffs[nu] = rank
    return SymChar(n, sum(lam), coeffs), max_dim


def _closure_char(lam, p, n):
    """Reference oracle: the closure of the highest weight vector under every
    F_i^(k) = E_{i+1,i}^(k), weight by weight, each weight space capped at
    its Kostka number; Gram ranks at the dominant weights.  Also returns the
    largest weight-space dimension."""
    hwv = highest_weight_vector(lam, n, p)
    top = tuple(lam) + (0,) * (n - len(lam))
    echelons = {top: {}}
    _reduce_mod_p(echelons[top], hwv.entries, p)
    queue = [(top, hwv.entries)]
    while queue:
        w, row = queue.pop()
        vec = TensorVector(n, p, hwv.cols, row)
        for i in range(1, n):
            for k in range(1, w[i - 1] + 1):
                tw = w[: i - 1] + (w[i - 1] - k, w[i] + k) + w[i + 1 :]
                ech = echelons.setdefault(tw, {})
                if len(ech) < kostka(lam, partition(sorted(tw, reverse=True))):
                    new = _reduce_mod_p(ech, apply_lowering(vec, i, i + 1, k).entries, p)
                    if new is not None:
                        queue.append((tw, new))
    coeffs = {}
    for w, ech in echelons.items():
        rank = _dense_gram_rank(list(ech.values()), p, _width(hwv.cols))
        if rank and list(w) == sorted(w, reverse=True):
            coeffs[partition(w)] = rank
    return SymChar(n, sum(lam), coeffs), max(map(len, echelons.values()))


def test_highest_weight_vector_single_row():
    # two columns: fields of two bits, the count 2 of block [1] in bits 2-3
    v = highest_weight_vector((2,), 2, 2)
    assert v.entries == {_orbit(2, (1,), (1,)): 1} == {0b1000: 1}
    assert _words(v) == {(1, 1): 1}


def test_highest_weight_vector_column_blocks():
    # one column of height 2 is a single wedge basis element of norm one
    v = highest_weight_vector((1, 1), 2, 2)
    assert v.entries == {_orbit(1, (1, 2)): 1}
    # columns (2),(1): blocks [1,2] and [1]
    v = highest_weight_vector((2, 1), 2, 2)
    assert v.entries == {_orbit(2, (1, 2), (1,)): 1}
    assert _words(v) == {(1, 2, 1): 1}
    with pytest.raises(LengthExceedsN):
        highest_weight_vector((1, 1, 1), 2, 2)


def test_apply_lowering_examples():
    v = highest_weight_vector((2,), 2, p=5)
    # the orbit {[1],[2]} stands for the words (2,1) and (1,2)
    assert apply_lowering(v, 1, 2, 1).entries == {_orbit(2, (1,), (2,)): 1}
    assert apply_lowering(v, 1, 2, 2).entries == {_orbit(2, (2,), (2,)): 1}
    # F^2 = 2 F^(2): [2] is made from either of the two blocks of the target
    assert apply_lowering(apply_lowering(v, 1, 2, 1), 1, 2, 1).entries == {_orbit(2, (2,), (2,)): 2}
    w = apply_lowering(v, 1, 2, 2)
    assert apply_lowering(w, 1, 2, 1).entries == {}  # no letter 1 left


def test_apply_lowering_kills_occupied_block():
    # within a single wedge block the letter can only move if j is absent
    v = highest_weight_vector((1, 1), 3, p=5)  # block [1,2]
    assert apply_lowering(v, 1, 2, 1).entries == {}
    assert apply_lowering(v, 2, 3, 1).entries == {_orbit(1, (1, 3)): 1}
    # 1 -> 3 passes letter 2: e_3 ^ e_2 = -e_2 ^ e_3
    assert apply_lowering(v, 1, 3, 1).entries == {_orbit(1, (2, 3)): 4}
    for i, j in ((3, 4), (2, 2), (2, 1)):
        with pytest.raises(ValueError):
            apply_lowering(v, i, j, 1)


def test_apply_lowering_matches_word_reference():
    # two steps from the highest weight vector, every (i, j, k), against the
    # lowering on words; the orbit sizes add up to the words represented
    for p in (2, 3, 5):
        for n, deg in ((2, 6), (3, 6), (4, 5)):
            for lam in partitions_up_to(deg, max_len=n):
                hwv = highest_weight_vector(lam, n, p)
                ops = [(i, j, k) for i in range(1, n) for j in range(i + 1, n + 1) for k in range(1, len(hwv.cols) + 1)]
                for v in [hwv] + [apply_lowering(hwv, *op) for op in ops]:
                    words = _words(v)
                    for op in ops:
                        img = apply_lowering(v, *op)
                        expect = _lower_words(words, hwv.cols, *op, p)
                        assert _words(img) == expect, (lam, p, op, v.entries)
                        assert sum(_orbit_size(o, _width(hwv.cols)) for o in img.entries) == len(expect)


def test_packed_lowering_matches_tuple_kernel():
    # every step of every tableau vector, against the tuple-keyed kernel; up
    # to nine columns, so fields of four bits hold counts up to 9
    for p in (2, 3, 5):
        for n, deg in ((2, 9), (3, 9), (4, 8), (5, 7)):
            for lam in partitions_up_to(deg, max_len=n):
                hwv = highest_weight_vector(lam, n, p)
                for nu in _dominated(lam, n):
                    for ops in _tableau_operators(lam, nu):
                        vec, ref = hwv, _tuples(hwv)
                        for op in ops:
                            vec, ref = apply_lowering(vec, *op), _tuple_lowering(ref, n, *op, p)
                            assert _tuples(vec) == ref, (lam, p, n, op)


def test_simple_char_one_variable():
    for p in (2, 5):
        for r in range(5):
            assert SimpleTable(p, 1).char((r,) if r else ()).coeffs == {((r,) if r else ()): 1}


def test_simple_char_hand_example_p2():
    # the Gram value at weight (1,1) is <(1,2)+(2,1), same> = 2 = 0 mod 2
    chi = SimpleTable(2, 2).char((2,))
    assert chi.coeffs == {(2,): 1}
    chi5 = SimpleTable(5, 2).char((2,))
    assert chi5.coeffs == {(2,): 1, (1, 1): 1}


def test_simple_char_exterior_powers():
    for p in (2, 3):
        for k in range(1, 4):
            chi = SimpleTable(p, 4).char((1,) * k)
            assert chi.coeffs == {(1,) * k: 1}


def test_simple_char_semisimple_range():
    for p in (3, 5):
        for n in (2, 3):
            for lam in partitions_up_to(p - 1, max_len=n):
                assert SimpleTable(p, n).char(lam) == schur_char(lam, n), lam


def test_simple_char_known_p3():
    assert SimpleTable(3, 3).char((2, 1)).coeffs == {(2, 1): 1, (1, 1, 1): 1}
    assert SimpleTable(3, 3).char((2, 2, 2)).coeffs == {(2, 2, 2): 1}


def test_tableau_vectors_match_closure():
    for p in (2, 3, 5):
        for n, deg in ((2, 8), (3, 8), (4, 7)):
            for lam in partitions_up_to(deg, max_len=n):
                assert _simple_char_by_gram(lam, p, n, 10**6) == _closure_char(lam, p, n), (lam, p, n)


def test_shared_prefixes_match_unshared_reference():
    for p in (2, 3, 5):
        for n in range(1, 5):
            for lam in partitions_up_to(10, max_len=n):
                assert _simple_char_by_gram(lam, p, n, 10**6) == _unshared_char(lam, p, n), (lam, p, n)


def test_tableau_vectors_are_independent_mod_p():
    # the kernel takes the Gram rank of the tableau vectors unreduced and
    # records their number as the weight-space dimension: both rest on the
    # vectors of one content being a basis mod p (Akin-Buchsbaum-Weyman)
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            for lam in partitions_up_to(10, max_len=n):
                for nu in _dominated(lam, n):
                    vecs = _tableau_vectors(lam, nu, p, n)
                    ech = {}
                    for vec in vecs:
                        _reduce_mod_p(ech, vec, p)
                    assert len(ech) == len(vecs) == kostka(lam, nu), (lam, nu, p)


def test_dominated_weights_are_the_filtered_partitions():
    for n in range(1, 6):
        for lam in partitions_up_to(12, max_len=n):
            want = [nu for nu in partitions_of(sum(lam), max_len=n) if dominance_leq(nu, lam) is Dominance.LEQ]
            assert list(_dominated(lam, n)) == want, (lam, n)


def _dual(lam, n):
    """(lam_1 - lam_n, ..., lam_1 - lam_2): the highest weight of L(lam)^*
    twisted by det^lam_1, without its zeros."""
    top = lam[0] if lam else 0
    return tuple(top - x for x in reversed(lam + (0,) * (n - len(lam))) if x < top)


def test_full_columns_reuse_the_character_without_them(monkeypatch):
    # a lam with n parts is shifted from lam - lam_n 1^n, which has fewer
    # parts and a smaller degree, so every full-length lam here is reused;
    # a shorter lam whose dual the table computed first is mapped from it
    gram = oracle._simple_char_by_gram
    computed = []
    monkeypatch.setattr(oracle, "_simple_char_by_gram", lambda lam, *args: computed.append(lam) or gram(lam, *args))
    for p, n in ((2, 3), (3, 3), (2, 4), (3, 4)):
        tab = SimpleTable(p, n)
        dual = []
        for lam in partitions_up_to(10, max_len=n):
            if len(lam) < n and _dual(lam, n) in tab.dims:
                dual.append(lam)
            tab.char(lam)
        full = [lam for lam in tab.cache if len(lam) == n]
        assert full and dual and not set(full + dual) & set(computed), (p, n)
        assert len(computed) == len(tab.cache) - len(full) - len(dual)
        assert len(computed) == tab.stats()["cacheMisses"] - len(full) - len(dual)
        for lam in full + dual:
            assert (tab.cache[lam], tab.dims[lam]) == gram(lam, p, n, DEFAULT_BUDGET), (lam, p, n)
        computed.clear()


def test_a_loaded_character_is_not_shifted(tmp_path, monkeypatch):
    # a loaded character has no recorded dimension: the Gram path runs and
    # the largest weight space is reported as it is computed, both for a lam
    # with full columns and for a lam whose dual was loaded
    cases = (((5, 3, 1), (4, 2)), ((4, 3), (4, 1)))
    assert _dual((4, 3), 3) == (4, 1)
    with SimpleTable(3, 3, cache_dir=tmp_path) as tab:
        for _, base in cases:
            tab.char(base)
    fresh = SimpleTable(3, 3, cache_dir=tmp_path)
    assert sorted(fresh.cache) == sorted(base for _, base in cases) and fresh.dims == {}
    gram = oracle._simple_char_by_gram
    computed = []
    monkeypatch.setattr(oracle, "_simple_char_by_gram", lambda lam, *args: computed.append(lam) or gram(lam, *args))
    for lam, base in cases:
        chi, dim = gram(lam, 3, 3, DEFAULT_BUDGET)
        assert dim == tab.dims[base] > 1
        assert fresh.char(lam) == chi and fresh.dims[lam] == dim
    assert computed == [lam for lam, _ in cases]
    assert fresh.stats()["maxWeightSpaceDim"] == max(fresh.dims.values())


def test_length_is_checked_before_a_character_is_derived():
    # (2,2,1) has more than n = 2 parts; the dual formula would map it from
    # (1), which the table computed, yet it raises and the miss is counted
    tab = SimpleTable(2, 2)
    tab.char((1,))
    assert _dual((2, 2, 1), 2) == (1,)
    with pytest.raises(LengthExceedsN):
        tab.char((2, 2, 1))
    assert tab.stats()["cacheMisses"] == 2 and (2, 2, 1) not in tab.cache


# (p, n, smallest degree, largest degree) of the larger cases
LARGER_CASES = ((2, 3, 9, 12), (3, 3, 9, 13), (2, 5, 0, 7), (3, 4, 8, 9), (5, 3, 9, 13), (7, 3, 9, 15))

# _case_digest of the small and the larger cases, recorded from the kernel
# that took every orbit size from the orbit alone and had no k = 1 lowering
# or dual rule; a change to the kernel must leave both as they are
SMALL_DIGEST = "fbe2155d4adf8227bef3afc818477822f845eeee96863d34bb5e2af99203d91a"
LARGER_DIGEST = "35fd455c8a282de59f73b07051644679055e21862f2f317b4d291812bc5ab4f9"


def _small_cases():
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            yield p, n, list(partitions_up_to(7 if n == 4 else 8, max_len=n))


def _larger_cases():
    for p, n, lo, hi in LARGER_CASES:
        yield p, n, [lam for lam in partitions_up_to(hi, max_len=n) if sum(lam) >= lo]


def _case_digest(groups):
    """SHA-256 over each lam of each (p, n, lams) group, asked of one fresh
    table per group, of (p, n, lam, sorted character, largest weight
    space); also the number of lam."""
    h, count = hashlib.sha256(), 0
    for p, n, lams in groups:
        tab = SimpleTable(p, n)
        for lam in lams:
            chi = tab.char(lam)
            h.update(repr((p, n, lam, sorted(chi.coeffs.items()), tab.dims[lam])).encode())
            count += 1
    return h.hexdigest(), count


def test_characters_match_the_recorded_digests():
    # the exactness gate of every kernel change: characters and largest
    # weight spaces, whether computed, shifted or mapped from a dual
    assert _case_digest(_small_cases()) == (SMALL_DIGEST, 452)
    assert _case_digest(_larger_cases()) == (LARGER_DIGEST, 433)


def test_tableau_operators_match_unpruned_peel():
    for n in range(1, 6):
        for lam in partitions_up_to(8, max_len=n):
            for nu in partitions_of(sum(lam), max_len=n):
                content = nu + (0,) * (n - len(nu))
                assert list(_tableau_operators(lam, nu)) == list(_tableau_operators(lam, content)), (lam, nu, n)
                got = sorted(map(tuple, _tableau_operators(lam, content)))
                assert got == sorted(map(tuple, _unpruned_tableau_operators(lam, content))), (lam, nu, n)
                assert len(got) == kostka(lam, nu), (lam, nu, n)
                if dominance_leq(nu, lam) is not Dominance.LEQ:
                    assert got == [], (lam, nu, n)


def test_splits_match_reference_generator():
    rng = random.Random(11)
    for _ in range(2000):
        p = rng.choice((2, 3, 5))
        moves = tuple((rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 1)) for _ in range(rng.randint(0, 4)))
        k = rng.randint(0, sum(m for m, _, _ in moves) + 1)
        assert _splits(moves, k, p) == tuple(_reference_splits(moves, k, p)), (moves, k, p)


def test_gram_rank_matches_dense_reference():
    # orbits of the columns (2,2,1,1,1) over the letters 1..3, packed in
    # fields of three bits; the numerator is 2! 3! and the sizes are 1, 2,
    # 3, 6 and 12
    cols = (2, 2, 1, 1, 1)
    w, numerator = _width(cols), _numerator(cols)
    pool = [
        _orbit(w, *blocks)
        for blocks in (
            ((1, 2), (1, 2), (1,), (1,), (1,)),
            ((1, 2), (1, 3), (1,), (1,), (1,)),
            ((1, 2), (1, 2), (1,), (1,), (2,)),
            ((1, 2), (1, 2), (1,), (2,), (3,)),
            ((1, 3), (2, 3), (1,), (2,), (3,)),
            ((2, 3), (2, 3), (3,), (3,), (1,)),
            ((1, 3), (1, 3), (2,), (2,), (2,)),
            ((1, 2), (2, 3), (2,), (3,), (3,)),
            ((1, 3), (2, 3), (1,), (1,), (3,)),
        )
    ]
    assert sorted({_orbit_size(o, w) for o in pool}) == [1, 2, 3, 6, 12]
    rng = random.Random(5)
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        rows = [
            {o: rng.randint(1, p - 1) for o in rng.sample(pool, rng.randint(1, 4))} for _ in range(rng.randint(1, 6))
        ]
        if rng.random() < 0.5:  # a dependent row
            a, b = rng.choice(rows), rng.choice(rows)
            row = {o: (a.get(o, 0) + 2 * b.get(o, 0)) % p for o in set(a) | set(b)}
            rows.append({o: c for o, c in row.items() if c})
        assert _gram_rank(rows, p, w, numerator) == _dense_gram_rank(rows, p, w), (rows, p)
    assert _gram_rank([], 3, w, numerator) == 0


def test_module_memos_clear_to_cold():
    # the bench harness clears every module-level cache_clear memo before
    # each operation; a memo kept in a module dict, list or set, on a class
    # or on a function would keep a benchmark operation warm
    def held_state(namespace):
        return [k for k, x in namespace.items() if not k.startswith("__") and isinstance(x, (dict, list, set))]

    for mod in (oracle, characters):
        assert held_state(vars(mod)) == [], mod.__name__
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                assert held_state(vars(value)) == [], name
            if isinstance(value, types.FunctionType):
                assert not vars(value), (mod.__name__, name)
    memos = {
        (mod.__name__, name)
        for mod in (oracle, characters)
        for name, value in vars(mod).items()
        if callable(getattr(value, "cache_clear", None))
    }
    assert memos == {
        ("schurkit.oracle", "_peel"),
        ("schurkit.oracle", "_moves"),
        ("schurkit.oracle", "_splits"),
        ("schurkit.characters", "kostka"),
        ("schurkit.characters", "_orbit_size"),
    }
    SimpleTable(2, 3).char((4, 2))  # lowers by E^(2), so it fills _splits also when run alone
    product_char([("S", 2), ("S", 1)], 2, 3)
    assert _peel.cache_info().currsize > 0 and _splits.cache_info().currsize > 0
    assert _moves.cache_info().currsize > 0 and characters._orbit_size.cache_info().currsize > 0
    for name, mod in list(sys.modules.items()):
        if name.startswith("schurkit."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    assert _peel.cache_info().currsize == 0
    assert _moves.cache_info().currsize == 0
    assert _splits.cache_info().currsize == 0
    assert characters._orbit_size.cache_info().currsize == 0


def test_gram_sanity_invariants():
    for p in (2, 3):
        tab = SimpleTable(p, 3)
        for lam in partitions_up_to(8, max_len=3):
            chi = tab.char(lam)
            assert chi.coeffs[lam] == 1
            for mu, c in chi.coeffs.items():
                assert 0 < c <= kostka(lam, mu)
                assert dominance_leq(mu, lam) is Dominance.LEQ


def test_steinberg_factorization():
    for p in (2, 3):
        tab = SimpleTable(p, 3)
        for lam in partitions_up_to(9, max_len=3):
            if is_restricted(lam, p):
                continue
            lam0, lbar = restricted_split(lam, p)
            expect = tab.char(lam0) * frobenius_twist(tab.char(lbar), p)
            assert tab.char(lam) == expect, lam


def test_decompose_simples_examples():
    tab = SimpleTable(2, 2)
    assert decompose_simples(schur_char((2,), 2), tab) == {(2,): 1, (1, 1): 1}
    for p in (2, 3):
        tab = SimpleTable(p, 3)
        for r in range(1, 4):
            assert decompose_simples(power_char(r, 3, 1), tab) == {(1,) * r: 1}
    # below the prime the simple basis is the Schur basis
    tab5 = SimpleTable(5, 3)
    for lam in partitions_up_to(4, max_len=3):
        chi = schur_char(lam, 3) * power_char(0, 3, inf)
        assert decompose_simples(chi, tab5) == decompose_schur(chi)


def test_decompose_simples_rejects_non_character():
    tab = SimpleTable(2, 2)
    virtual = SymChar(2, 2, {(2,): 1, (1, 1): -1})
    with pytest.raises(NegativeResidual):
        decompose_simples(virtual, tab)


def test_block_gate():
    # all factors of an induced-module character share its p-core
    for p in (2, 3):
        tab = SimpleTable(p, 3)
        for mu in partitions_up_to(8, max_len=3):
            for lam in decompose_simples(schur_char(mu, 3), tab):
                assert p_core(lam, p) == p_core(mu, p), (mu, lam)


def test_product_char_starts_from_its_first_atom(monkeypatch):
    # the old fold started from the unit character: one more multiplication
    atoms = {
        "S": lambda r, p, n: power_char(r, n, inf),
        "Sbar": lambda r, p, n: power_char(r, n, p - 1),
        "Wedge": lambda r, p, n: power_char(r, n, 1),
    }

    def fold(spec, p, n):
        chi = SymChar(n, 0, {(): 1})
        for kind, r in spec:
            chi = chi * atoms[kind](r, p, n)
        return chi

    rng = random.Random(7)
    for _ in range(400):
        p, n = rng.choice((2, 3, 5)), rng.randint(1, 4)
        spec = [(rng.choice(tuple(atoms)), rng.randint(0, n + 2)) for _ in range(rng.randint(0, 3))]
        assert product_char(spec, p, n) == fold(spec, p, n), (spec, p, n)
    assert product_char([], 3, 2) == SymChar(2, 0, {(): 1})
    assert product_char([("Wedge", 3)], 3, 2) == SymChar(2, 3, {})  # r > n: zero
    mul = SymChar.__mul__
    calls = []
    monkeypatch.setattr(SymChar, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for spec in ([], [("S", 2)], [("S", 2), ("Sbar", 3)], [("S", 2), ("Wedge", 5), ("Sbar", 1)]):
        calls.clear()
        product_char(spec, 3, 3)
        assert len(calls) == max(len(spec) - 1, 0), spec


def test_composition_factors_examples():
    assert composition_factors([("S", 3)], SimpleTable(2, 3)) == {(3,): 1, (1, 1, 1): 1}
    assert composition_factors([("S", 2), ("S", 1)], SimpleTable(2, 2)) == {(3,): 1, (2, 1): 1}
    for p in (2, 5):
        assert composition_factors([("Wedge", 3)], SimpleTable(p, 4)) == {(1, 1, 1): 1}


def test_dimension_audit():
    for p in (2, 3):
        tab = SimpleTable(p, 3)
        for spec in ([("S", 4), ("S", 2)], [("Sbar", 3), ("Sbar", 2), ("Wedge", 1)]):
            chi = product_char(spec, p, 3)
            factors = decompose_simples(chi, tab)
            assert factor_dimensions_check(factors, chi, tab)


def test_enumerate_factors_examples():
    assert enumerate_factors("SS", 3, SimpleTable(2, 3)) == {(3,), (2, 1), (1, 1, 1)}
    assert enumerate_factors("Sbar", 2, SimpleTable(3, 2)) == {(2,)}
    for p in (2, 3, 7):
        assert enumerate_factors("SbarSbarWedge", 1, SimpleTable(p, 2)) == {(1,)}
    with pytest.raises(ValueError):
        enumerate_factors("SSS", 2, SimpleTable(2, 2))


def test_family_char_is_the_sum_over_ordered_splits():
    # the definition: every ordered split of r, zero powers included
    for family, kinds in FAMILIES.items():
        for p in (2, 3, 5):
            for n in range(1, 5):
                for r in range(11):
                    total = Counter()
                    for degrees in product(range(r + 1), repeat=len(kinds)):
                        if sum(degrees) == r:
                            total.update(product_char(zip(kinds, degrees), p, n).coeffs)
                    assert family_char(family, r, p, n) == SymChar(n, r, dict(total)), (family, r, p, n)
    with pytest.raises(ValueError):
        family_char("SSS", 2, 2, 2)


def test_one_top_is_each_bounded_weight_once():
    # a kind's power has every weight with no coordinate above its top, once
    for kind, (_, top) in KINDS.items():
        for p in (2, 3, 5, 7):
            for n in range(1, 6):
                for r in range(14):
                    weights = partitions_of(r, max_len=n, max_part=min(r, top(p)))
                    assert power_char(r, n, top(p)) == SymChar(n, r, dict.fromkeys(weights, 1)), (kind, p, n, r)
                    assert product_char([(kind, r)], p, n) == power_char(r, n, top(p))


def test_enumerate_factors_is_the_union_over_degree_splits():
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            for family, kinds in FAMILIES.items():
                tab = SimpleTable(p, n)
                for r in range((12, 12, 10, 9)[n - 1] + 1):
                    union = set()
                    for split in _degree_splits(kinds, r, p, n):
                        union.update(composition_factors(split, tab))
                    assert enumerate_factors(family, r, tab) == union, (family, r, p, n)


def test_enumerate_factors_reads_no_classify(monkeypatch):
    # the oracle's answer stays independent of the closed criteria
    tab = SimpleTable(3, 3)
    expected = {family: [enumerate_factors(family, r, tab) for r in range(9)] for family in FAMILIES}

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called classify")

    for name, value in list(vars(classify).items()):
        if not name.startswith("_") and inspect.isfunction(value):
            monkeypatch.setattr(classify, name, forbidden)
    fresh = SimpleTable(3, 3)
    for family in FAMILIES:
        assert [enumerate_factors(family, r, fresh) for r in range(9)] == expected[family], family


def test_enumerate_factors_decomposes_one_character_per_degree(monkeypatch):
    # a count, not a timing: one decomposition and no product of powers
    calls = Counter()
    real_decompose, real_product = oracle.decompose_simples, oracle.product_char
    monkeypatch.setattr(oracle, "decompose_simples", lambda *a: calls.update(["decompose_simples"]) or real_decompose(*a))
    monkeypatch.setattr(oracle, "product_char", lambda *a: calls.update(["product_char"]) or real_product(*a))
    assert (6, 4, 2) in enumerate_factors("SS", 12, SimpleTable(2, 3))
    assert calls == Counter(decompose_simples=1)


def _five_branch_splits(family, r, n):
    # reference: one loop per family name, zero products included
    if family == "SS":
        return [(("S", a), ("S", r - a)) for a in range(r // 2 + 1)]
    if family == "SbarSbar":
        return [(("Sbar", a), ("Sbar", r - a)) for a in range(r // 2 + 1)]
    if family == "SbarSbarWedge":
        return [
            (("Sbar", a), ("Sbar", r - c - a), ("Wedge", c)) for c in range(min(r, n) + 1) for a in range((r - c) // 2 + 1)
        ]
    return [((family, r),)]  # Sbar and S


def test_degree_splits_are_the_five_branch_splits_without_zero_products():
    # the same specs less those with a zero power, and for every family but
    # SbarSbarWedge in the same order: it decides which of lam and its dual a
    # table computes and which it derives
    tops = {"S": lambda p: inf, "Sbar": lambda p: p - 1, "Wedge": lambda p: 1}
    zero = {}

    def is_zero(kind, d, p, n):
        if (kind, d, p, n) not in zero:
            zero[kind, d, p, n] = not power_char(d, n, tops[kind](p)).coeffs
        return zero[kind, d, p, n]

    kept = dropped = 0
    for family, kinds in FAMILIES.items():
        for p in (2, 3, 5, 7):
            for n in range(1, 6):
                for r in range(25):
                    old = _five_branch_splits(family, r, n)
                    expected = [s for s in old if not any(is_zero(kind, d, p, n) for kind, d in s)]
                    got = list(_degree_splits(kinds, r, p, n))
                    if family == "SbarSbarWedge":
                        got.sort(key=lambda s: (s[2][1], s[0][1]))
                    assert got == expected, (family, r, p, n)
                    kept += len(got)
                    dropped += len(old) - len(got)
    assert (kept, dropped) == (10781, 8775)


def test_the_table_fixes_p_and_n():
    # at p=5, (2,2,2) is no factor of the twofold symmetric power in degree
    # 6 (it is at p=3), and S^2 of two variables is simple (not at p=2)
    assert (2, 2, 2) not in enumerate_factors("SS", 6, SimpleTable(5, 3))
    assert (2, 2, 2) in enumerate_factors("SS", 6, SimpleTable(3, 3))
    assert decompose_simples(schur_char((2,), 2), SimpleTable(5, 2)) == {(2,): 1}
    assert composition_factors([("S", 2)], SimpleTable(5, 2)) == {(2,): 1}
    with pytest.raises(VariableCountMismatch):
        decompose_simples(schur_char((2,), 2), SimpleTable(2, 3))


def test_the_table_rejects_a_bad_p_or_n():
    # PRIME_LIMIT itself passes the Miller-Rabin bases, so the bound is checked too
    for p, n in ((4, 2), (1, 2), (0, 2), (-3, 2), (PRIME_LIMIT, 2), (3, 0), (3, -1)):
        with pytest.raises(ValueError):
            SimpleTable(p, n)


def test_stability_in_n():
    for p in (2, 3):
        for n in (1, 2, 3):
            tab_n = SimpleTable(p, n)
            tab_n1 = SimpleTable(p, n + 1)
            for family in ("SS", "Sbar"):
                for r in range(7):
                    small = enumerate_factors(family, r, tab_n)
                    big = enumerate_factors(family, r, tab_n1)
                    assert small == {lam for lam in big if len(lam) <= n}, (family, r, p, n)


def test_a_character_is_computed_in_at_most_its_degree_variables(monkeypatch):
    # for n >= |lam| the weight multiplicities of L(lam) do not depend on n
    # (Green, LNM 830, 6), so the table computes in |lam| variables
    gram = oracle._simple_char_by_gram
    seen = []
    monkeypatch.setattr(oracle, "_simple_char_by_gram", lambda lam, p, n, budget: seen.append(n) or gram(lam, p, n, budget))
    cases = 0
    for p in (2, 3, 5):
        for r in range(7):
            for lam in partitions_of(r):
                for n in range(r + 1, 8):
                    chi, dim = gram(lam, p, n, DEFAULT_BUDGET)
                    table = SimpleTable(p, n)
                    assert table.char(lam) == chi and table.dims[lam] == dim, (lam, p, n)
                    assert seen.pop() == r
                    cases += 1
    assert cases == 225


def test_restricted_good_equals_special():
    for p in (2, 3):
        tab = SimpleTable(p, 3)
        for r in range(8):
            good = enumerate_factors("SS", r, tab)
            special = enumerate_factors("SbarSbar", r, tab)
            assert {l for l in good if is_restricted(l, p)} == {
                l for l in special if is_restricted(l, p)
            }, (p, r)


def test_budget_exceeded():
    tab = SimpleTable(2, 3, budget=10)
    with pytest.raises(ResourceBudgetExceeded):
        tab.char((4, 2))  # needs 18: at nu = (2,2,2), three vectors of four terms and 3 x 3 entries


def test_budget_counts_orbit_terms_and_gram_entries():
    # at nu = (1,1,1) the tableau vectors of lambda = (2,1) are
    # E_21 E_32 v = {[2,3],[1]} + {[1,3],[2]} and E_31 v = -{[2,3],[1]} + {[1,2],[3]}:
    # four orbit terms and a 2 x 2 Gram matrix, eight in all (of rank 1 at p=3)
    with pytest.raises(ResourceBudgetExceeded, match=r"weight \[1, 1, 1\] of L\[2, 1\]"):
        SimpleTable(3, 3, budget=7).char((2, 1))
    assert SimpleTable(3, 3, budget=8).char((2, 1)).coeffs == {(2, 1): 1, (1, 1, 1): 1}


def test_table_cache_and_persistence(tmp_path):
    tab = SimpleTable(3, 2)
    for lam in partitions_up_to(6, max_len=2):
        tab.char(lam)
    misses = tab.stats()["cacheMisses"]
    tab.char((3, 2))
    assert tab.stats()["cacheHits"] >= 1
    assert tab.stats()["cacheMisses"] == misses

    path = tmp_path / "chars.jsonl"
    tab.save(path)
    fresh = SimpleTable(3, 2)
    assert fresh.load(path) == len(tab.cache)
    assert fresh.cache == tab.cache
    # reloaded table serves from cache without recomputation
    assert fresh.char((3, 2)) == tab.char((3, 2))


def test_table_from_cache_dir_persists_only_changes(tmp_path, monkeypatch):
    tab = SimpleTable(2, 2, cache_dir=tmp_path / "cache")
    tab.char((3, 1))
    tab.persist()
    path = tmp_path / "cache" / "simple_p2_n2.jsonl"
    assert path.exists()

    saves = []
    monkeypatch.setattr(SimpleTable, "save", lambda self, p: saves.append(p))
    again = SimpleTable(2, 2, cache_dir=tmp_path / "cache")
    assert again.cache == tab.cache
    again.char((3, 1))
    again.persist()
    assert saves == []  # nothing new, nothing written
    again.char((4,))
    again.persist()
    assert saves == [again.path]


def test_table_block_persists_after_a_budget_trip_and_clears_the_memos(tmp_path):
    with pytest.raises(ResourceBudgetExceeded):
        with SimpleTable(2, 3, budget=10, cache_dir=tmp_path) as tab:
            tab.char((2, 1))  # needs 8
            tab.char((4, 2))  # needs 18
    assert _peel.cache_info().currsize == 0 and _splits.cache_info().currsize == 0
    assert _moves.cache_info().currsize == 0
    assert list(tab.cache) == [(2, 1)]
    assert SimpleTable(2, 3, cache_dir=tmp_path).cache == tab.cache


def test_persist_adds_the_records_of_the_file_it_replaces(tmp_path):
    first = SimpleTable(2, 2, cache_dir=tmp_path)
    second = SimpleTable(2, 2, cache_dir=tmp_path)
    first.char((3, 1))
    first.persist()
    second.char((4,))
    second.persist()
    assert set(second.cache) == {(3, 1), (4,)}
    assert SimpleTable(2, 2, cache_dir=tmp_path).cache == second.cache
    # the merged records pass every load check
    second.char((5,))
    (tmp_path / "simple_p2_n2.jsonl").write_text('{"lambda":[3,1],"char":{"[3,1]":2}}\n')
    with pytest.raises(SchurkitError, match=r"simple_p2_n2.jsonl, line 1: .*multiplicity 2"):
        second.persist()


def test_interrupted_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "chars.jsonl"
    tab = SimpleTable(3, 2)
    for lam in partitions_up_to(4, max_len=2):
        tab.char(lam)
    tab.save(path)
    before = path.read_bytes()

    for lam in partitions_up_to(6, max_len=2):
        tab.char(lam)
    real_dumps = json.dumps
    calls = []

    def failing_dumps(obj, **kw):
        calls.append(obj)
        if len(calls) > 5:  # fail after some records have been written
            raise OSError("disk full")
        return real_dumps(obj, **kw)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(OSError):
        tab.save(path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["chars.jsonl"]
