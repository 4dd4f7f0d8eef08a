import functools
import random

import pytest

from schurkit import classify
from schurkit.classify import (
    BEGINNING,
    END,
    MIDDLE,
    RESTRICTED_2SPECIAL,
    ParseBlock,
    _matches_two_ones_sum,
    _omega_candidates,
    classify_term,
    divisibility_index_n3,
    g1_inj_n3,
    is_1special,
    is_21good_piecewise,
    is_21special,
    is_2good,
    is_2special,
    is_beginning_term,
    is_critical_n3,
    is_end_term,
    is_middle_term,
    is_standard,
    primitive_index,
    specht_d_lower,
    specht_d_upper,
    standard_parses,
    two_one_special_witness,
)
from schurkit.errors import LengthExceedsN, NotRegular, NotRestricted, PrimeTooSmall
from schurkit.partitions import (
    is_regular,
    is_restricted,
    omega,
    p_adic_digits,
    partition,
    partitions_up_to,
    removable_nodes,
    restricted_split,
    subtract,
    transpose,
)


# --- brute-force oracles -------------------------------------------------------


def brute_sum_of_two_1special(lam, p):
    """Search over the first summand (p-1)^u c directly."""
    for u in range(len(lam) + 2):
        for c in range(p - 1):
            mu = partition((p - 1,) * u + ((c,) if c else ()))
            nu = subtract(lam, mu)
            if nu is not None and is_1special(nu, p):
                return True
    return False


def brute_omega_sum(lam):
    """Is lam = omega_a + omega_b for some a >= b >= 0?"""
    if not lam:
        return True
    if lam[0] > 2:
        return False
    b = sum(1 for x in lam if x == 2)
    return all(x in (1, 2) for x in lam) and (b == 0 or lam[: b] == (2,) * b)


def test_is_1special():
    assert is_1special((4, 4, 2), 5)
    assert not is_1special((3, 3), 5)
    assert is_1special((), 7)
    assert is_1special((2, 2, 2), 3)
    assert not is_1special((1, 1, 1), 3)  # first parts must be p-1
    assert is_1special((1, 1, 1), 2)


def test_is_2special_examples():
    assert is_2special((3, 3, 2, 1), 5)  # (p-2)^2 a b
    assert is_2special((8, 6, 4, 3), 5)  # (2p-2)^1 (p-1+2) (p-1)^1 3
    assert is_2special((8, 8, 2, 1), 5)  # (3,3,2,1) + 5*omega_2
    assert not is_2special((2, 1, 1), 3)
    assert is_2special((), 2) and is_2special((), 5)


def test_is_2special_222_p3_is_a_sum_of_two_1specials():
    # (2,2,2) = (p-1)^3 + 0 at p=3: both summands 1-special, so it is
    # 2-special (the degree-6 truncated power is one-dimensional with this
    # highest weight).
    assert is_1special((2, 2, 2), 3)
    assert brute_sum_of_two_1special((2, 2, 2), 3)
    assert is_2special((2, 2, 2), 3)
    assert not is_2special((2, 2, 2), 5)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_2special_restricted_matches_brute_search(p):
    # restricted 2-special = (p-2)^k a b or a sum of two 1-special partitions;
    # sums with no (p-1)-part fall inside the (p-2)^k a b shape, so the union
    # must agree with the direct search over first summands
    for lam in partitions_up_to(14):
        if is_restricted(lam, p):
            got = is_beginning_term(lam, p) or _matches_two_ones_sum(lam, p)
            want = is_beginning_term(lam, p) or brute_sum_of_two_1special(lam, p)
            assert got == want, lam
            assert is_2special(lam, p) == want or not lam


def test_2special_p2_is_omega_sums():
    for lam in partitions_up_to(12):
        assert is_2special(lam, 2) == brute_omega_sum(lam)


def test_is_21special_examples():
    assert is_21special((4, 3, 1), 5)
    assert two_one_special_witness((4, 3, 1), 5) is not None
    assert is_21special((2, 2, 2), 3)
    assert not is_21special((10,), 5)  # first part exceeds 2p-1
    mu, s = two_one_special_witness((2, 2, 2), 5) or (None, None)
    assert mu is None  # not (2,1)-special at p=5


def test_21special_witness_reconstructs():
    for p in (2, 3, 5):
        for lam in partitions_up_to(10):
            w = two_one_special_witness(lam, p)
            if w is not None:
                mu, s = w
                assert is_2special(mu, p)
                assert subtract(lam, omega(s)) == mu


@functools.cache
def full_column_scan(lam):
    """Each (mu, r) with lam = mu + omega_r, trying every r in turn."""
    below = tuple((mu, r) for r in range(1, len(lam) + 1) if (mu := subtract(lam, omega(r))) is not None)
    return ((lam, 0),) + below


# classify-stream's 3-row requests (parts up to 300) and their transposes,
# the long columns that specht_d_upper searches
_rng = random.Random("omega-candidates")
THREE_ROWS = [partition(sorted((_rng.randint(0, 300) for _ in range(3)), reverse=True)) for _ in range(300)]
LONG_COLUMNS = [transpose(lam) for lam in THREE_ROWS]


def test_omega_candidates_are_the_full_column_scan():
    for lam in [*partitions_up_to(20), *LONG_COLUMNS]:
        assert tuple(_omega_candidates(lam)) == full_column_scan(lam), lam


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_column_searches_match_the_full_scan(p, monkeypatch):
    def answers(lam):
        out = [two_one_special_witness(lam, p), is_middle_term(lam, p), is_end_term(lam, p)]
        if is_regular(lam, p):
            out.append(specht_d_upper(lam, p))
        if p > 2 and is_restricted(lam, p):
            out.append(is_21good_piecewise(lam, p))
        return out

    sample = [*partitions_up_to(12), *THREE_ROWS, *LONG_COLUMNS]
    corners = [answers(lam) for lam in sample]
    monkeypatch.setattr(classify, "_omega_candidates", full_column_scan)
    for lam, got in zip(sample, corners):
        assert got == answers(lam), lam


# --- the row scans against their row-by-row definitions ------------------------


def literal_is_restricted(lam, p):
    return all(x - y <= p - 1 for x, y in zip(lam, (*lam[1:], 0)))


def literal_removable_nodes(lam):
    return [(i + 1, x) for i, x in enumerate(lam) if i + 1 == len(lam) or lam[i + 1] < x]


def literal_p_adic_digits(lam, p):
    digits = []
    while lam:
        digit, lam = restricted_split(lam, p)
        digits.append(digit)
    return tuple(digits)


def literal_two_ones_sum(lam, p):
    """(2(p-1))^j (p-1+a) (p-1)^k b, walked row by row."""
    j = 0
    while j < len(lam) and lam[j] == 2 * (p - 1):
        j += 1
    if j == len(lam) or not p - 1 <= lam[j] <= 2 * p - 3:
        return False
    k = 0
    while j + 1 + k < len(lam) and lam[j + 1 + k] == p - 1:
        k += 1
    tail = lam[j + 1 + k :]
    b = tail[0] if tail else 0
    return len(tail) <= 1 and b <= p - 2 and (k > 0 or lam[j] - (p - 1) <= b)


def literal_beginning_term(lam, p):
    return all(x <= p - 2 for x in lam) and all(x == p - 2 for x in lam[:-2])


ROW_SCAN_SAMPLE = [*partitions_up_to(20), *THREE_ROWS, *LONG_COLUMNS]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_row_scans_match_their_row_by_row_definitions(p):
    for lam in ROW_SCAN_SAMPLE:
        assert is_restricted(lam, p) == literal_is_restricted(lam, p), lam
        assert removable_nodes(lam) == literal_removable_nodes(lam), lam
        assert p_adic_digits(lam, p).digits == literal_p_adic_digits(lam, p), lam
        assert _matches_two_ones_sum(lam, p) == literal_two_ones_sum(lam, p), lam
        assert is_beginning_term(lam, p) == literal_beginning_term(lam, p), lam


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_restrictedness_facts_the_searches_rely_on(p):
    # the differences of lam' are the multiplicities of lam's parts, and
    # lowering a corner lowers one difference by one
    for lam in ROW_SCAN_SAMPLE:
        assert is_regular(lam, p) == literal_is_restricted(transpose(lam), p), lam
        if literal_is_restricted(lam, p):
            assert all(literal_is_restricted(mu, p) for mu, _ in _omega_candidates(lam)), lam


def literal_transpose(lam):
    return tuple(sum(1 for x in lam if x > c) for c in range(lam[0] if lam else 0))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_specht_upper_is_the_full_column_scan_of_the_transpose(p):
    for lam in [*partitions_up_to(14), *THREE_ROWS]:
        if not is_regular(lam, p):
            continue
        cols = literal_transpose(lam)
        want = (not cols or cols[0] <= 2 * p - 1) and any(is_2special(mu, p) for mu, _ in full_column_scan(cols))
        assert specht_d_upper(lam, p) == want, lam


def test_piecewise_examples():
    assert is_21good_piecewise((6, 4), 5)  # (4,4) + (2)
    assert is_21good_piecewise((8, 4, 1), 5)  # (2p-2, p-1, 1) = (p-1)^2 1 + (p-1)
    assert not is_21good_piecewise((5, 3, 2), 5)  # p a 2 is a core
    with pytest.raises(PrimeTooSmall):
        is_21good_piecewise((1,), 2)
    with pytest.raises(NotRestricted):
        is_21good_piecewise((6,), 5)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_piecewise_agrees_with_omega_search(p):
    for lam in partitions_up_to(16):
        if is_restricted(lam, p):
            assert is_21good_piecewise(lam, p) == is_21special(lam, p), lam


def test_classify_term_examples():
    assert classify_term((3, 3, 2, 1), 5) == {BEGINNING, RESTRICTED_2SPECIAL}
    # (4,4,3,1) at p=5 is a middle term ((3,3,2) is beginning) and also an
    # end term ((3,3,2) is 2-special); the two flags are not exclusive.
    assert classify_term((4, 4, 3, 1), 5) == {MIDDLE, END}
    # (2,1,1) at p=3 is an end term ((1) is 2-special) and also a middle term
    # ((1,1,1) is a beginning term at p=3)
    assert classify_term((2, 1, 1), 3) == {MIDDLE, END}
    assert classify_term((3, 2, 1), 2) == {END}
    assert classify_term((), 3) == {BEGINNING, RESTRICTED_2SPECIAL}


def test_term_exclusions():
    # middle excludes beginning; end excludes restricted 2-special
    for p in (2, 3, 5):
        for lam in partitions_up_to(12):
            flags = classify_term(lam, p)
            assert not (BEGINNING in flags and MIDDLE in flags)
            assert not (END in flags and RESTRICTED_2SPECIAL in flags)


def test_beginning_terms_are_2special():
    for p in (2, 3, 5, 7):
        for lam in partitions_up_to(12):
            if is_beginning_term(lam, p):
                assert is_restricted(lam, p) and is_2special(lam, p)


def test_primitive_index_examples():
    assert primitive_index((7, 4, 3), 3) == 1
    assert primitive_index((3, 3, 2, 1), 5) == 0
    assert primitive_index((6, 4, 2), 2) == 1
    # (2,2,2) at p=3 is restricted 2-special, hence primitive of index 0
    assert primitive_index((2, 2, 2), 3) == 0
    assert primitive_index((2, 2, 2), 5) is None
    assert primitive_index((), 5) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_term_rules_match_their_literal_definitions(p):
    # end and middle terms by the column-removal scan lam - omega(r), r >= 1;
    # the primitive index by the digit chain: beginning, middles, end
    for lam in partitions_up_to(18):
        below = [mu for r in range(1, len(lam) + 1) if (mu := subtract(lam, omega(r))) is not None]
        end = is_restricted(lam, p) and not is_2special(lam, p) and any(is_2special(mu, p) for mu in below)
        middle = not is_beginning_term(lam, p) and any(is_beginning_term(mu, p) for mu in below)
        assert (is_end_term(lam, p), is_middle_term(lam, p)) == (end, middle), lam
        digits = p_adic_digits(lam, p).digits
        if len(digits) <= 1:
            index = 0 if is_2special(lam, p) else None
        elif (
            is_beginning_term(digits[0], p)
            and all(is_middle_term(d, p) for d in digits[1:-1])
            and is_end_term(digits[-1], p)
        ):
            index = len(digits) - 1
        else:
            index = None
        assert primitive_index(lam, p) == index, lam


def test_standard_parse_examples():
    [parse] = standard_parses((2,), 2)
    assert parse.blocks == (ParseBlock((), 0, 0), ParseBlock((1,), 0, 1))

    [parse] = standard_parses((7, 4, 3), 3)
    assert parse.blocks == (ParseBlock((7, 4, 3), 1, 0),)

    [parse] = standard_parses((), 3)
    assert parse.blocks == ()

    # faithful value: (2,2,2) at p=3 is its own index-0 primitive
    [parse] = standard_parses((2, 2, 2), 3)
    assert parse.blocks == (ParseBlock((2, 2, 2), 0, 0),)

    assert standard_parses((2, 2, 2), 5) == []


def test_parse_shifts_accumulate():
    for p in (2, 3, 5):
        for lam in partitions_up_to(14):
            for parse in standard_parses(lam, p):
                shift = 0
                total = ()
                for blk in parse.blocks:
                    assert blk.shift == shift
                    shift += blk.index + 1
                    total = partition(
                        a + b
                        for a, b in zip(
                            total + (0,) * 40,
                            tuple(x * p**blk.shift for x in blk.primitive) + (0,) * 40,
                        )
                    )
                assert total == lam
                if parse.blocks and lam:
                    assert parse.blocks[-1].primitive != ()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_parse_uniqueness_small(p):
    for lam in partitions_up_to(18):
        assert len(standard_parses(lam, p)) <= 1


def test_is_2good_examples():
    assert is_2good((7, 4, 3), 3)
    assert is_2good((2, 2, 2), 3)  # faithful: index-0 primitive
    assert not is_2good((2, 2, 2), 5)
    assert is_2good((6, 4, 2), 2)
    assert is_standard((), 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_2special_implies_standard(p):
    for lam in partitions_up_to(16):
        if is_2special(lam, p):
            assert is_standard(lam, p), lam


def test_specht_predicates():
    assert specht_d_lower((3, 3, 2, 1), 5)
    assert specht_d_lower((8, 4, 1), 5)
    assert not specht_d_lower((5, 3, 2), 5)
    with pytest.raises(NotRestricted):
        specht_d_lower((6,), 5)

    assert specht_d_upper((4, 3, 2), 5)  # transpose of (3,3,2,1)
    assert not specht_d_upper((3, 3, 2, 1, 1), 5)  # transpose of (5,3,2)
    for p in (2, 3, 5):
        assert specht_d_upper((1,), p)
    with pytest.raises(NotRegular):
        specht_d_upper((1, 1, 1), 3)


def test_specht_upper_matches_lower_on_transpose():
    from schurkit.partitions import is_regular

    for p in (2, 3, 5):
        for lam in partitions_up_to(10):
            if is_regular(lam, p):
                assert specht_d_upper(lam, p) == specht_d_lower(transpose(lam), p)


def test_critical_n3():
    assert is_critical_n3((3, 3, 3), 3)
    assert is_critical_n3((2, 2, 2), 3)  # faithful
    assert not is_critical_n3((2, 2, 2), 5)
    assert is_critical_n3((), 7)
    with pytest.raises(LengthExceedsN):
        is_critical_n3((1, 1, 1, 1), 3)


def test_divisibility_index():
    # every critical partition has index 0
    for lam in [(3, 3, 3), (2, 1), (4, 2)]:
        for p in (2, 3, 5):
            if is_critical_n3(lam, p):
                assert divisibility_index_n3(lam, p) == 0
    # (2,2,2) is critical at p=3 (it is a restricted 2-special partition),
    # so its index is 0 there; at p=5 two column removals reach 0.
    assert divisibility_index_n3((2, 2, 2), 3) == 0
    assert divisibility_index_n3((2, 2, 2), 5) == 2


def brute_divisibility_index(lam, p):
    """The least j < lam_3 with lam - j*omega_3 critical, else lam_3."""
    top = lam[2] if len(lam) == 3 else 0
    return next((j for j in range(top) if is_critical_n3(partition(x - j for x in lam), p)), top)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_divisibility_index_is_the_brute_walk(p):
    for a in range(31):
        for b in range(a + 1):
            for c in range(b + 1):
                lam = partition((a, b, c))
                assert divisibility_index_n3(lam, p) == brute_divisibility_index(lam, p), (lam, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_divisibility_index_of_long_rows_is_the_brute_walk(p):
    # classify-stream's 3-row requests: parts up to 300, indices up to about 300
    rng = random.Random(f"divisibility-{p}")
    for _ in range(100):
        lam = partition(sorted((rng.randint(0, 300) for _ in range(3)), reverse=True))
        assert divisibility_index_n3(lam, p) == brute_divisibility_index(lam, p), (lam, p)
    assert divisibility_index_n3((298, 253, 214), 7) == 202


def test_divisibility_index_for_a_prime_above_the_first_row():
    # every part is a single digit, so the chain is one digit
    p = 1000003
    for lam in [(5, 3, 2), (40, 20, 10), (9, 9, 9), (300, 1, 1), (7,), ()]:
        assert divisibility_index_n3(lam, p) == brute_divisibility_index(lam, p), lam
    with pytest.raises(LengthExceedsN):
        divisibility_index_n3((1, 1, 1, 1), p)


def test_two_row_partitions_are_2good():
    # why divisibility_index_n3 stops at lam_3 without testing it: lam - lam_3*omega_3
    # has at most two rows, and L(a, b) is the socle of nabla(a, b), a good-filtration
    # section of S^a E (x) S^b E
    for p in (2, 3, 5, 7):
        for lam in partitions_up_to(40, max_len=2):
            assert is_2good(lam, p), (lam, p)


def test_g1_injectivity():
    assert g1_inj_n3((4, 2), 3)  # restricted digit hits the 2p-2 band
    assert not g1_inj_n3((4,), 3)  # quotient column is critical
    for p in (2, 3, 5):
        assert not g1_inj_n3((), p)
    with pytest.raises(LengthExceedsN):
        g1_inj_n3((2, 1, 1, 1), 3)
