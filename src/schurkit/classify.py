"""Classification predicates for composition factors of symmetric-power products.

Vocabulary, with S the symmetric algebra of the natural module E, Sbar its
truncation by p-th powers, and W the exterior algebra:

* 1-special: highest weight of a factor of Sbar(E); the partitions (p-1)^k a.
* 2-special: factor of Sbar(E) x Sbar(E).
* (2,1)-special: factor of Sbar x Sbar x W; equals mu + omega_s with mu 2-special.
* 2-good: factor of S(E) x S(E); equals the standard partitions, i.e. digit
  chains of primitive blocks (beginning / middle / end terms).  A beginning
  term is (p-2)^k a b, a middle term is one column more than a beginning
  term without being one, and an end term is a restricted (2,1)-special
  partition that is not 2-special.

All predicates are pure functions of (partition, prime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import LengthExceedsN, NotRegular, NotRestricted, PrimeTooSmall
from .partitions import (
    Partition,
    is_regular,
    is_restricted,
    omega,
    p_adic_digits,
    partition,
    recombine,
    removable_nodes,
    restricted_split,
    subtract,
    transpose,
)

BEGINNING = "beginning"
MIDDLE = "middle"
END = "end"
RESTRICTED_2SPECIAL = "restricted_2special"


def is_1special(lam: Partition, p: int) -> bool:
    """lam = (p-1)^k a with k >= 0 and 0 <= a < p-1 (the zero partition qualifies)."""
    for i, x in enumerate(lam):
        if i + 1 < len(lam):
            if x != p - 1:
                return False
        elif x > p - 1:
            return False
    return True


def is_beginning_term(lam: Partition, p: int) -> bool:
    """(p-2)^k a b with p-2 >= a >= b >= 0: every part at most p-2, and all
    but the last two equal to p-2.  The parts decrease from lam_1 <= p-2, so
    the third part from the end is the only one left to test."""
    return not lam or (lam[0] <= p - 2 and (len(lam) < 3 or lam[-3] == p - 2))


def _matches_two_ones_sum(lam: Partition, p: int) -> bool:
    """(2(p-1))^j (p-1+a) (p-1)^k b, j,k >= 0, 0 <= a,b <= p-2, and a <= b when k = 0.
    These are exactly the restricted sums of two 1-special partitions.

    Equal parts are adjacent, so each run is counted, not walked."""
    if not lam or lam[0] > 2 * (p - 1):
        return False
    j = lam.count(lam[0]) if lam[0] == 2 * (p - 1) else 0
    if j == len(lam) or not p - 1 <= lam[j] <= 2 * p - 3:
        return False
    a = lam[j] - (p - 1)
    k = 0
    if j + 1 < len(lam) and lam[j + 1] == p - 1:
        k = lam.count(p - 1) - (a == 0)  # the run after lam_j, not lam_j itself
    tail = len(lam) - (j + 1 + k)
    if tail > 1:
        return False
    b = lam[-1] if tail else 0
    if b > p - 2:
        return False
    if k == 0 and a > b:
        return False
    return True


def _is_restricted_2special(lam: Partition, p: int) -> bool:
    """is_2special for a restricted lam."""
    return is_beginning_term(lam, p) or _matches_two_ones_sum(lam, p)


def is_2special(lam: Partition, p: int) -> bool:
    """Factor of the twofold truncated symmetric power.

    Restricted case: (p-2)^k a b, or a sum of two 1-special partitions in the
    canonical shape (2(p-1))^j (p-1+a) (p-1)^k b.  Non-restricted case: the
    restricted digit is (p-2)^k a b and the quotient is a single column.
    """
    if is_restricted(lam, p):
        return _is_restricted_2special(lam, p)
    lam0, lbar = restricted_split(lam, p)
    return is_beginning_term(lam0, p) and lbar == omega(len(lbar)) and len(lbar) >= 1


def _omega_candidates(lam):
    """Each (mu, s) with lam = mu + omega_s, s = 0 first and s increasing.

    For 1 <= s <= len(lam), lam - omega_s lowers rows 1..s by one.  Every
    such row has lam_i >= 1, and the rows above s stay weakly decreasing, so
    the difference is a partition exactly when lam_s - 1 >= lam_{s+1}
    (lam_{len+1} = 0), i.e. when row s ends in a removable node.  So only the
    rows of removable_nodes are tried, top to bottom; the last row is always
    one of them.  The rows between two corners are one run of equal parts,
    so each candidate is built run by run: O(corners) Python steps and one
    copy of its parts.
    """
    yield lam, 0
    lowered, top = (), 0
    for s, x in removable_nodes(lam):
        # only a last run of 1s lowers to zeros, and those are dropped
        if x > 1:
            lowered += (x - 1,) * (s - top)
        top = s
        yield lowered + lam[s:], s


def two_one_special_witness(lam: Partition, p: int) -> Optional[tuple[Partition, int]]:
    """A pair (mu, s) with lam = mu + omega_s and mu 2-special, if one exists.

    Lowering the corner at row s lowers one difference, lam_s - lam_{s+1},
    by one, so every candidate of a restricted lam is restricted, and
    restrictedness is tested once, on lam, not on each candidate.
    """
    if lam and lam[0] > 2 * p - 1:
        return None
    test = _is_restricted_2special if is_restricted(lam, p) else is_2special
    return next(((mu, s) for mu, s in _omega_candidates(lam) if test(mu, p)), None)


def is_21special(lam: Partition, p: int) -> bool:
    """lam_1 <= 2p-1 and lam = mu + omega_s for some 2-special mu and s >= 0."""
    return two_one_special_witness(lam, p) is not None


# --- piecewise first-row classification (p > 2, restricted input) ------------


def _is_pminus1_run(lam, p):
    # (p-1)^k a with k >= 1 and 0 <= a < p-1
    return bool(lam) and lam[0] == p - 1 and is_1special(lam, p)


def is_21good_piecewise(lam: Partition, p: int) -> bool:
    """First-row dispatch for restricted partitions, p > 2.

    Cross-checks the omega-subtraction search: each first-row band has its
    own closed form, with the exact parameter ranges of the band statements.
    """
    if p == 2:
        raise PrimeTooSmall("piecewise classification requires p > 2")
    if not is_restricted(lam, p):
        raise NotRestricted(f"{lam} is not restricted for p={p}")
    l1 = lam[0] if lam else 0

    if l1 <= p - 1:
        # (p-2)^k a b + omega_r, r >= 0
        return any(is_beginning_term(mu, p) for mu, _ in _omega_candidates(lam))

    if l1 == p:
        # (p-1)^k a + omega_r, k >= 1, r >= 1
        return any(r >= 1 and _is_pminus1_run(mu, p) for mu, r in _omega_candidates(lam))

    if l1 < 2 * p - 2:
        # (p-1)^k a + (b) + omega_r, k >= 1, p-1 > b > 0, r > 0 when b = 1
        for mu, r in _omega_candidates(lam):
            if not mu:
                continue
            for b in range(1, p - 1):
                if b == 1 and r == 0:
                    continue
                nu = (mu[0] - b,) + mu[1:]
                if nu[0] >= (nu[1] if len(nu) > 1 else 0) and _is_pminus1_run(partition(nu), p):
                    return True
        return False

    if l1 == 2 * p - 2:
        # (p-1)^k a + (p-1)^m b with k,m >= 1, or (p-1)^k a + (p-2) + omega_r, r >= 1
        if _sum_of_two_pminus1_runs(lam, p, allow_omega=False):
            return True
        for mu, r in _omega_candidates(lam):
            if r < 1 or not mu:
                continue
            nu = (mu[0] - (p - 2),) + mu[1:]
            if nu[0] >= 0 and nu[0] >= (nu[1] if len(nu) > 1 else 0) and _is_pminus1_run(partition(nu), p):
                return True
        return False

    if l1 == 2 * p - 1:
        # (p-1)^k a + (p-1)^m b + omega_r with k,m >= 1
        return _sum_of_two_pminus1_runs(lam, p, allow_omega=True)

    return False


def _sum_of_two_pminus1_runs(lam, p, allow_omega):
    # lam = (p-1)^k a + (p-1)^m b (+ omega_r), k,m >= 1, 0 <= a,b < p-1
    candidates = _omega_candidates(lam) if allow_omega else [(lam, 0)]
    for mu, _ in candidates:
        for m in range(1, len(mu) + 1):
            for b in range(0, p - 1):
                second = (p - 1,) * m + ((b,) if b else ())
                nu = subtract(mu, second)
                if nu is not None and _is_pminus1_run(nu, p):
                    return True
    return False


# --- digit-chain parsing ------------------------------------------------------


def is_middle_term(lam: Partition, p: int) -> bool:
    """Not a beginning term, but beginning after removing a column."""
    return not is_beginning_term(lam, p) and any(is_beginning_term(mu, p) for mu, _ in _omega_candidates(lam))


def is_end_term(lam: Partition, p: int) -> bool:
    """Restricted, not 2-special, and 2-special after removing a column:
    the restricted (2,1)-special partitions that are not 2-special."""
    return is_restricted(lam, p) and not _is_restricted_2special(lam, p) and is_21special(lam, p)


def classify_term(lam: Partition, p: int) -> frozenset:
    """Flags from {beginning, middle, end, restricted_2special}; may overlap."""
    flags = set()
    if is_beginning_term(lam, p):
        flags.add(BEGINNING)
    if is_middle_term(lam, p):
        flags.add(MIDDLE)
    if is_end_term(lam, p):
        flags.add(END)
    if is_restricted(lam, p) and _is_restricted_2special(lam, p):
        flags.add(RESTRICTED_2SPECIAL)
    return frozenset(flags)


@dataclass(frozen=True)
class ParseBlock:
    primitive: Partition
    index: int
    shift: int


@dataclass(frozen=True)
class StandardParse:
    blocks: tuple


def primitive_index(lam: Partition, p: int) -> Optional[int]:
    """Index of lam as a primitive partition, or None: the index of the
    parse of lam's whole digit sequence as one block (standard_parses).

    Index 0: restricted and 2-special.  Index m > 0: the digit sequence has
    exactly m+1 entries running beginning, middles, end.
    """
    if not lam:
        return 0
    return next((parse.blocks[0].index for parse in standard_parses(lam, p) if len(parse.blocks) == 1), None)


def standard_parses(lam: Partition, p: int) -> list[StandardParse]:
    """All decompositions of the digit sequence into consecutive primitive blocks.

    An index-0 block is a single restricted 2-special digit (a zero digit
    counts); an index-m block is a beginning term, m-1 middle terms and an
    end term.  The uniqueness statement for standard partitions predicts at
    most one parse; callers may rely on the list but not on that bound.
    """
    if not lam:
        return [StandardParse(())]
    digits = p_adic_digits(lam, p).digits
    n = len(digits)
    memo: dict[int, list[tuple]] = {}

    def parses_from(t: int) -> list[tuple]:
        if t == n:
            return [()]
        if t in memo:
            return memo[t]
        out = []
        if _is_restricted_2special(digits[t], p):  # digits are restricted by construction
            for rest in parses_from(t + 1):
                out.append(((digits[t], 0, t),) + rest)
        if is_beginning_term(digits[t], p):
            m = 1
            while t + m < n:
                # digits t+1 .. t+m-1 are already verified middle terms
                if is_end_term(digits[t + m], p):
                    prim = recombine(digits[t : t + m + 1], p)
                    for rest in parses_from(t + m + 1):
                        out.append(((prim, m, t),) + rest)
                if not is_middle_term(digits[t + m], p):
                    break
                m += 1
        memo[t] = out
        return out

    return [
        StandardParse(tuple(ParseBlock(prim, idx, shift) for prim, idx, shift in chain))
        for chain in parses_from(0)
    ]


def is_standard(lam: Partition, p: int) -> bool:
    return bool(standard_parses(lam, p))


def is_2good(lam: Partition, p: int) -> bool:
    """Factor of the twofold symmetric power: exactly the standard partitions."""
    return is_standard(lam, p)


# --- symmetric-group corollaries ---------------------------------------------


def specht_d_lower(lam: Partition, p: int) -> bool:
    """Does D_lambda occur in a Specht module of (2,1)-bounded shape?

    For restricted lam this is (2,1)-special membership; the closed forms
    quoted alongside the statement are validated against this predicate in
    the verification suites rather than trusted as primary.
    """
    if not is_restricted(lam, p):
        raise NotRestricted(f"{lam} is not restricted for p={p}")
    return is_21special(lam, p)


def specht_d_upper(lam: Partition, p: int) -> bool:
    """Does D^lambda occur in a Specht module of (1,2)-bounded shape?

    Reduces to the lower predicate on the transpose via the sign twist,
    D^lambda = D_lambda' (x) sgn (James, LNM 682).
    """
    if not is_regular(lam, p):
        raise NotRegular(f"{lam} is not p-regular for p={p}")
    return specht_d_lower(transpose(lam), p)


# --- three-variable injectivity criteria --------------------------------------


def _require_len3(lam):
    if len(lam) > 3:
        raise LengthExceedsN(f"{lam} has more than 3 parts")


def is_critical_n3(lam: Partition, p: int) -> bool:
    """For at most three rows: critical means 2-good."""
    _require_len3(lam)
    return is_2good(lam, p)


def divisibility_index_n3(lam: Partition, p: int) -> int:
    """Least j >= 0 with lam - j*omega_3 critical.

    j never exceeds lam_3: lam - lam_3*omega_3 has at most two rows, and every
    (a, b) is 2-good, because L(a, b) is the socle of the induced module
    nabla(a, b), a section of the good filtration of S^a E (x) S^b E.  So only
    j < lam_3 is tested.

    Each j is one walk over the digit chain of lam - j*omega_3, with no
    partition built.  Its differences are x = lam_1 - lam_2, y = lam_2 - lam_3
    and m = lam_3 - j, and restricted_split works on differences, so its i-th
    p-adic digit is the partition with differences (x_i, y_i, m_i), the i-th
    base-p digits; only m_i depends on j.  A digit sequence is standard when
    an automaton over two states, 0 between blocks and 1 inside one, can end
    in 0, with the moves of standard_parses' grammar: 0 -> 0 on a 2-special
    digit, 0 -> 1 on a beginning term, 1 -> 1 on a middle term and 1 -> 0 on
    an end term.  A zero digit is 2-special and neither a middle nor an end
    term, so zero digits above the top keep acceptance, and every m is read
    to the same K digits, those of max(x, y, lam_3).  The moves are memoised
    for this call, keyed by (i, m_i, state), so each term test runs at most
    once per (i, m_i, state) across all j.
    """
    _require_len3(lam)
    if len(lam) < 3:
        return 0
    top = lam[2]
    x, y = lam[0] - lam[1], lam[1] - top
    fixed = []  # (x_i, y_i) for i < K
    rest = max(x, y, top)
    while rest:
        fixed.append((x % p, y % p))
        x, y, rest = x // p, y // p, rest // p
    moves: dict[tuple, tuple] = {}

    def move(i: int, d: int, state: int) -> tuple:
        key = (i, d, state)
        if key not in moves:
            a, b = fixed[i]
            digit = tuple(v for v in (a + b + d, b + d, d) if v)
            if state == 0:
                tests = ((_is_restricted_2special, 0), (is_beginning_term, 1))
            else:
                tests = ((is_middle_term, 1), (is_end_term, 0))
            moves[key] = tuple(target for test, target in tests if test(digit, p))
        return moves[key]

    for j in range(top):
        m, states = top - j, (0,)
        for i in range(len(fixed)):
            states = tuple({target for s in states for target in move(i, m % p, s)})
            if not states:
                break
            m //= p
        if 0 in states:
            return j
    return top


def g1_inj_n3(lam: Partition, p: int) -> bool:
    """Injectivity over the first Frobenius kernel for three variables.

    With lam = lam0 + p*lambar (restricted digit split), the criterion is:
    (i) lam0_1 >= 2p-2; or (ii) p-2 <= lam0_1 < 2p-2 and lambar not critical;
    or (iii) lam0_1 < p-2 and neither lambar nor lambar - omega_3 critical.
    A missing third column makes "lambar - omega_3 not critical" vacuous.
    """
    _require_len3(lam)
    lam0, lbar = restricted_split(lam, p)
    first = lam0[0] if lam0 else 0
    if first >= 2 * p - 2:
        return True
    if first >= p - 2:
        return not is_critical_n3(lbar, p)
    if is_critical_n3(lbar, p):
        return False
    below = subtract(lbar, omega(3))
    return below is None or not is_critical_n3(below, p)
