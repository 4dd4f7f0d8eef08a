import random

import pytest

from schurkit.errors import (
    DegreeMismatch,
    FirstPartExceedsBound,
    InputNotWeaklyDecreasing,
    LengthExceedsN,
    NegativePart,
    NotRemovable,
)
from schurkit.partitions import (
    Dominance,
    addable_nodes,
    add,
    dagger,
    dominance_leq,
    is_bounded,
    is_regular,
    is_restricted,
    node_residue,
    nodes,
    omega,
    p_adic_digits,
    p_core,
    partition,
    partitions_of,
    partitions_up_to,
    recombine,
    removable_nodes,
    remove_node,
    restricted_split,
    rim_hook_removals,
    subtract,
    suitable_nodes,
    transpose,
)


def test_construct_strips_zeros():
    assert partition([3, 1, 0]) == (3, 1)
    assert partition([]) == ()
    assert partition([0, 0]) == ()


def test_construct_rejects_bad_input():
    from schurkit.errors import SchurkitError

    with pytest.raises(InputNotWeaklyDecreasing):
        partition([1, 2])
    with pytest.raises(NegativePart):
        partition([3, -1])
    for bad in ([2.5], ["a"], [None], [[1]], [float("inf")], [float("nan")], ["3"], [True], [3, False]):
        with pytest.raises(SchurkitError, match="is not an integer"):
            partition(bad)
    assert partition([3.0, 1.0]) == (3, 1)  # integral floats from JSON are fine


def _all_partitions(rmax):
    """Every partition of each degree up to rmax, grown from those of the
    degree below by adding a cell to a row or a new row of one cell."""
    table = [{()}]
    for _ in range(rmax):
        table.append({
            tuple(sorted(lam[:i] + (lam[i] + 1,) + lam[i + 1 :], reverse=True)) for lam in table[-1] for i in range(len(lam))
        } | {lam + (1,) for lam in table[-1]})
    return table


def test_partitions_of_matches_brute_force():
    # the same sequence, descending lex, for every length and part bound
    for r, every in enumerate(_all_partitions(21)):
        ordered = sorted(every, reverse=True)
        for max_len in (None, *range(r + 2)):
            for max_part in (None, *range(r + 2)):
                expected = [
                    lam for lam in ordered
                    if (max_len is None or len(lam) <= max_len) and (max_part is None or not lam or lam[0] <= max_part)
                ]
                assert list(partitions_of(r, max_len=max_len, max_part=max_part)) == expected, (r, max_len, max_part)


def test_partitions_of_huge_degree_yields_at_once():
    r = 10**20
    assert list(partitions_of(r, max_len=1)) == [(r,)]
    assert list(partitions_of(r, max_len=2, max_part=r // 2)) == [(r // 2, r // 2)]
    assert next(partitions_of(r, max_len=3)) == (r,)
    assert list(partitions_of(r, max_len=3, max_part=r // 3)) == []


def test_transpose_examples():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()
    assert transpose((2, 2)) == (2, 2)


def test_transpose_is_involution():
    for lam in partitions_up_to(16):
        assert transpose(transpose(lam)) == lam


def test_add_examples():
    assert add((3, 1), (1, 1)) == (4, 2)
    assert add((2, 1), ()) == (2, 1)
    assert add(omega(2), omega(3)) == (2, 2, 1)


def test_subtract():
    assert subtract((4, 2), (1, 1)) == (3, 1)
    assert subtract((2, 2), (1,)) is None  # (1,2) not weakly decreasing
    assert subtract((1,), (2,)) is None
    assert subtract((3, 1), ()) == (3, 1)


def test_is_restricted():
    assert is_restricted((3, 2, 1), 2)
    assert not is_restricted((2, 2), 2)  # last part 2 > 1
    for p in (2, 3, 5):
        assert not is_restricted((p,), p)
    assert is_restricted((), 2)


def test_is_regular():
    assert is_regular((2, 2, 1), 3)
    assert not is_regular((1, 1, 1), 3)
    assert is_regular((), 2)


def test_is_bounded():
    assert is_bounded((4, 1, 1, 1), 1, 1)  # hook
    assert is_bounded((5, 5, 2, 2, 2), 2, 2)
    assert not is_bounded((3, 3), 1, 2)
    assert is_bounded((), 0, 0)


def test_bounded_transpose_duality():
    for lam in partitions_up_to(12):
        for a in range(4):
            for b in range(4):
                assert is_bounded(lam, a, b) == is_bounded(transpose(lam), b, a)


def test_p_adic_digit_examples():
    assert p_adic_digits((4, 1), 3).digits == ((1, 1), (1,))
    assert p_adic_digits((6, 4, 2), 2).digits == ((), (3, 2, 1))
    assert p_adic_digits((3, 2, 1), 5).digits == ((3, 2, 1),)
    assert p_adic_digits((), 7).digits == ()


def _all_restricted_digit_splits(lam, p):
    """Count restricted alpha <= lam with (lam - alpha)/p a partition.

    Independent check of digit-0 uniqueness: each valid alpha starts one
    restricted-digit expansion, and conversely.
    """
    n = len(lam)
    count = 0

    def rec(i, chosen):
        nonlocal count
        if i == n:
            alpha = partition(chosen)
            if not is_restricted(alpha, p):
                return
            rest = [(lam[t] - alpha[t] if t < len(alpha) else lam[t]) // p for t in range(n)]
            if all(rest[t] >= (rest[t + 1] if t + 1 < n else 0) for t in range(n)):
                count += 1
            return
        hi = lam[i] if not chosen else min(lam[i], chosen[-1])
        for a in range(lam[i] % p, hi + 1, p):
            if chosen and a > chosen[-1]:
                break
            rec(i + 1, chosen + [a])

    rec(0, [])
    return count


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_adic_digits_roundtrip_and_uniqueness(p):
    # restricted digits that recombine to lam are unique, so the round trip
    # fixes the expansion; the 3-row partitions with parts up to 300 have
    # differences of several base-p digits
    rng = random.Random(p)
    rows = [tuple(sorted((rng.randint(0, 300) for _ in range(3)), reverse=True)) for _ in range(300)]
    for lam in [*partitions_up_to(14), *map(partition, rows)]:
        dg = p_adic_digits(lam, p)
        assert recombine(dg.digits, p) == lam
        for d in dg.digits:
            assert is_restricted(d, p)
        if dg.digits:
            assert dg.digits[-1] != ()
        assert restricted_split(lam, p) == (dg.digits[0] if dg.digits else (), recombine(dg.digits[1:], p))


@pytest.mark.parametrize("p", [2, 3])
def test_digit_zero_unique_exhaustive(p):
    for lam in partitions_up_to(12):
        assert _all_restricted_digit_splits(lam, p) == 1


def test_restricted_split():
    assert restricted_split((8, 8, 2, 1), 5) == ((3, 3, 2, 1), (1, 1))
    assert restricted_split((4,), 3) == ((1,), (1,))
    assert restricted_split((2, 1), 5) == ((2, 1), ())


def test_p_core_golden_anchors():
    assert p_core((4, 4, 3, 1, 1), 3) == (4, 2, 2, 1, 1)
    assert p_core((4, 4, 2, 1, 1), 3) == (3, 2, 2, 1, 1)


def test_p_core_small_degree_fixed():
    for p in (2, 3, 5):
        for lam in partitions_up_to(p - 1):
            assert p_core(lam, p) == lam


def _core_by_random_stripping(lam, p, rng):
    while True:
        hooks = rim_hook_removals(lam, p)
        if not hooks:
            return lam
        lam = rng.choice(hooks)


def test_p_core_matches_randomized_rim_stripping():
    rng = random.Random(20150120)
    pool = [lam for lam in partitions_up_to(18) if lam]
    for _ in range(200):
        lam = rng.choice(pool)
        p = rng.choice([2, 3, 5])
        assert _core_by_random_stripping(lam, p, rng) == p_core(lam, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_core_order_independent_exhaustive(p):
    # every removal order reaches the same core, degree <= 14 here
    # (the verify harness pushes this to 20)
    memo = {}

    def core_set(lam):
        if lam in memo:
            return memo[lam]
        hooks = rim_hook_removals(lam, p)
        if not hooks:
            out = {lam}
        else:
            out = set()
            for nu in hooks:
                out |= core_set(nu)
        memo[lam] = out
        return out

    for lam in partitions_up_to(14):
        cs = core_set(lam)
        assert len(cs) == 1
        assert cs == {p_core(lam, p)}
        assert (sum(lam) - sum(p_core(lam, p))) % p == 0
        assert p_core(p_core(lam, p), p) == p_core(lam, p)


def test_nodes_example():
    ns = nodes((2, 1), 3)
    rem = {(n.row, n.col): n.residue for n in ns if n.kind == "removable"}
    adb = {(n.row, n.col): n.residue for n in ns if n.kind == "addable"}
    assert rem == {(1, 2): 2, (2, 1): 1}
    assert adb == {(1, 3): 1, (2, 2): 0, (3, 1): 2}


def test_nodes_zero_partition():
    ns = nodes((), 5)
    assert [n for n in ns if n.kind == "removable"] == []
    assert [(n.row, n.col, n.residue) for n in ns if n.kind == "addable"] == [(1, 1, 0)]


def test_node_residue_definition():
    assert node_residue(1, 3, 5) == 3  # (1-3) mod 5


def test_suitable_nodes_examples():
    suit = {(n.row, n.col) for n in suitable_nodes((5, 3, 2, 1), 7)}
    assert (1, 5) in suit
    for p in (2, 3, 5, 7):
        assert [(n.row, n.col) for n in suitable_nodes((1,), p)] == [(1, 1)]
    assert suitable_nodes((2, 2), 2) == []


def test_suitable_nodes_invariant_under_residue_negation():
    # residue convention row-col vs col-row gives identical suitable sets
    for p in (2, 3, 5):
        for lam in partitions_up_to(12):
            adds = [(r, (c - r) % p) for r, c in addable_nodes(lam)]
            alt = [
                (r, c)
                for r, c in removable_nodes(lam)
                if all(ar <= r or ares != (c - r) % p for ar, ares in adds)
            ]
            assert [(n.row, n.col) for n in suitable_nodes(lam, p)] == alt


def test_remove_node():
    assert remove_node((3, 1), (1, 3)) == (2, 1)
    assert remove_node((1,), (1, 1)) == ()
    with pytest.raises(NotRemovable):
        remove_node((2, 2), (1, 2))


def test_dagger_examples():
    assert dagger((5, 3, 2), 2, 1, 3, 3) == (3, 2)
    assert dagger((), 1, 0, 3, 2) == (2, 2)
    with pytest.raises(FirstPartExceedsBound):
        dagger((6,), 2, 1, 3, 1)
    with pytest.raises(LengthExceedsN):
        dagger((1, 1, 1), 2, 1, 3, 2)


def test_dagger_involution():
    for p in (2, 3, 5):
        for a, b in ((1, 0), (2, 0), (2, 1), (0, 1)):
            c = a * (p - 1) + b
            for n in range(1, 5):
                for lam in partitions_up_to(min(c * n, 10), max_len=n, max_part=c):
                    assert dagger(dagger(lam, a, b, p, n), a, b, p, n) == lam


def test_dominance():
    assert dominance_leq((1, 1, 1), (2, 1)) is Dominance.LEQ
    assert dominance_leq((4, 1, 1), (3, 3)) is Dominance.INCOMPARABLE
    assert dominance_leq((2, 1), (2, 1)) is Dominance.LEQ
    assert dominance_leq((3,), (2, 1)) is Dominance.GREATER
    with pytest.raises(DegreeMismatch):
        dominance_leq((2,), (1,))


def test_partitions_of_generator():
    assert list(partitions_of(4, max_len=2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(0)) == [()]
    assert len(list(partitions_of(10))) == 42
