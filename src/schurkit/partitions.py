"""Partitions and Young-diagram node calculus, and the primality test for p.

A partition is stored as a tuple of positive integers, weakly decreasing,
conceptually padded with zeros on the right; the empty tuple is the zero
partition.  All functions here are pure and safe to call concurrently.

Serialization convention: a partition is a JSON array of positive integers,
e.g. [4,2,1]; the zero partition is [].
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import neg
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegreeMismatch,
    FirstPartExceedsBound,
    InputNotWeaklyDecreasing,
    LengthExceedsN,
    NegativePart,
    NotRemovable,
    SchurkitError,
)

Partition = tuple  # weakly decreasing tuple of positive ints


def partition(parts: Iterable[int]) -> Partition:
    """Build a partition from an iterable, stripping trailing zeros.

    Raises SchurkitError on a part that is not an integer (an integral float
    such as 3.0 is one; a bool, such as a JSON true, is not), NegativePart /
    InputNotWeaklyDecreasing on invalid input.
    """
    cleaned = []
    for i, x in enumerate(parts):
        try:
            k = int(x)
            if k != x or isinstance(x, bool):
                raise ValueError
        except (TypeError, ValueError, OverflowError):  # also None, a list, text, inf and nan
            raise SchurkitError(f"part {x!r} at position {i} is not an integer") from None
        cleaned.append(k)
    parts = tuple(cleaned)
    for i, x in enumerate(parts):
        if x < 0:
            raise NegativePart(f"part {x} at position {i}")
        if i + 1 < len(parts) and parts[i + 1] > x:
            raise InputNotWeaklyDecreasing(f"{parts[i + 1]} follows {x}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def omega(s: int) -> Partition:
    """The column partition 1^s; omega(0) is the zero partition."""
    return (1,) * s


def transpose(lam: Partition) -> Partition:
    """Conjugate diagram: column lengths become row lengths.  Column c has
    one cell per part of at least c, a suffix sum of the number of parts of
    each size, so the work is O(lam_1 + len(lam))."""
    if not lam:
        return ()
    equal = [0] * (lam[0] + 1)
    for x in lam:
        equal[x] += 1
    return tuple(accumulate(reversed(equal[1:])))[::-1]


def add(lam: Partition, mu: Partition) -> Partition:
    """Entrywise sum; always a partition."""
    m = max(len(lam), len(mu))
    return tuple(
        (lam[i] if i < len(lam) else 0) + (mu[i] if i < len(mu) else 0) for i in range(m)
    )


def subtract(lam: Partition, mu: Partition) -> Optional[Partition]:
    """Entrywise difference, or None when it is not a partition."""
    if len(mu) > len(lam):
        return None
    diff = list(lam)
    for i, x in enumerate(mu):
        diff[i] -= x
        if diff[i] < 0:
            return None
    for i in range(len(diff) - 1):
        if diff[i] < diff[i + 1]:
            return None
    while diff and diff[-1] == 0:
        diff.pop()
    return tuple(diff)


def is_restricted(lam: Partition, p: int) -> bool:
    """All successive differences, including the last part, at most p-1.

    The differences sum to lam_1, so lam_1 <= p-1 settles it at once.
    Otherwise only the corners have nonzero differences: each run of equal
    parts is skipped by one bisection, so the work is O(log len(lam)) per
    corner, not per row.
    """
    if not lam or lam[0] < p:
        return True
    i, n = 0, len(lam)
    while i < n:
        x = lam[i]
        i = bisect_right(lam, -x, i + 1, n, key=neg)  # past the last part equal to x
        if x - (lam[i] if i < n else 0) >= p:
            return False
    return True


def is_regular(lam: Partition, p: int) -> bool:
    """No part value repeated p or more times."""
    run = 0
    prev = None
    for x in lam:
        run = run + 1 if x == prev else 1
        if run >= p:
            return False
        prev = x
    return True


def is_bounded(lam: Partition, a: int, b: int) -> bool:
    """The diagram fits inside a fat hook: part a+1 is at most b."""
    return (lam[a] if a < len(lam) else 0) <= b


def partitions_of(r: int, max_len: int | None = None, max_part: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of r, largest part first, in descending lex order.

    A first part is at least ceil(rem / slots), or the slots left cannot hold
    the rest, so every branch yields and the work grows with the output, not
    with r."""
    if max_part is None:
        max_part = r
    if max_len is None:
        max_len = r

    def gen(rem: int, cap: int, slots: int) -> Iterator[tuple]:
        if rem == 0:
            yield ()
            return
        if not 0 < rem <= slots * cap:
            return
        for first in range(min(rem, cap), -(-rem // slots) - 1, -1):
            for rest in gen(rem - first, first, slots - 1):
                yield (first,) + rest

    yield from gen(r, max_part, max_len)


def partitions_up_to(rmax: int, max_len: int | None = None, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of degree 0..rmax (degree ascending)."""
    for r in range(rmax + 1):
        yield from partitions_of(r, max_len=max_len, max_part=max_part)


# --- primes ------------------------------------------------------------------

# Miller-Rabin with the first 13 primes as bases is exact below PRIME_LIMIT,
# the least strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86 (2017)).  The first 12 alone pass the composite
# 318665857834031151167461 = 399165290221 * 798330580441.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIME_LIMIT."""
    if n < 2 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    m = n - 1
    s = (m & -m).bit_length() - 1  # 2**s is the largest power of 2 dividing m
    d = m >> s
    # n is a strong probable prime to base a when a**d = 1 or a**(d * 2**k) = -1 mod n for some k < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << k, n) == m for k in range(s)) for a in _PRIME_BASES)


# --- p-adic digits -----------------------------------------------------------


@dataclass(frozen=True)
class PAdicDigits:
    """Expansion lam = sum_i p^i * digits[i] with every digit restricted.

    Read from the successive differences of lam, the last part included:
    their residues mod p are the differences of digit 0, and their
    quotients by p are the differences of the rest, which is divided in
    turn until every difference is 0.  Entrywise base-p digits of the parts
    themselves need not be partitions; differences always are, and this
    choice makes the expansion unique.
    """

    digits: tuple
    prime: int


def _from_differences(diffs: Sequence[int]) -> Partition:
    """The partition whose successive differences, the last part included, are diffs."""
    parts = list(accumulate(reversed(diffs)))[::-1]
    while parts and not parts[-1]:
        parts.pop()
    return tuple(parts)


def restricted_split(lam: Partition, p: int) -> tuple[Partition, Partition]:
    """Split lam = lam0 + p*lambar with lam0 the restricted digit."""
    diffs = [x - y for x, y in zip(lam, (*lam[1:], 0))]
    return _from_differences([d % p for d in diffs]), _from_differences([d // p for d in diffs])


def p_adic_digits(lam: Partition, p: int) -> PAdicDigits:
    """Unique expansion of lam into restricted digits of weight p^i.

    Only the corners of lam have nonzero differences, and every digit is
    constant on lam's runs of equal parts, so all digits are read from one
    difference per corner: at each corner the i-th digit's difference is the
    i-th base-p digit of lam's.  Each digit costs O(corners) Python steps,
    bottom corner first, plus building its parts; no quotient partition is
    built.
    """
    corners = removable_nodes(lam)[::-1]
    runs = [row - above for (row, _), (above, _) in zip(corners, [*corners[1:], (0, 0)])]
    diffs = [col - below for (_, col), (_, below) in zip(corners, [(0, 0), *corners])]
    digits = []
    while diffs:
        part, parts, quotients = 0, [], []
        for d, k in zip(diffs, runs):
            q, r = divmod(d, p)
            part += r
            if part:  # the zero rows at the bottom are not parts
                parts += [part] * k
            quotients.append(q)
        digits.append(tuple(reversed(parts)))
        diffs = quotients
        while diffs and not diffs[0]:  # the quotient's bottom run is zero: drop it
            del diffs[0], runs[0]
    return PAdicDigits(tuple(digits), p)


def recombine(digits: Sequence[Partition], p: int) -> Partition:
    """Inverse of p_adic_digits: entrywise sum of p^i * digits[i]."""
    out: Partition = ()
    for i, d in enumerate(digits):
        out = add(out, tuple(x * p**i for x in d))
    return out


# --- p-cores -----------------------------------------------------------------


def p_core(lam: Partition, p: int) -> Partition:
    """Remove rim p-hooks until none remains.

    Implemented on first-column hook lengths (beta-numbers): drop each bead
    to the lowest free level of its runner on the p-runner abacus.  This is
    order-independent by construction and costs O(len^2).
    """
    n = len(lam)
    if n == 0:
        return ()
    beta = [lam[i] + (n - 1 - i) for i in range(n)]
    runners: list[list[int]] = [[] for _ in range(p)]
    for b in beta:
        runners[b % p].append(b // p)
    new_beta = []
    for res, beads in enumerate(runners):
        for level in range(len(beads)):
            new_beta.append(level * p + res)
    new_beta.sort(reverse=True)
    return partition(new_beta[i] - (n - 1 - i) for i in range(n))


def rim_hook_removals(lam: Partition, p: int) -> list[Partition]:
    """All partitions obtained from lam by removing one rim p-hook.

    Walks the rim of the diagram box by box (down when possible, else left)
    starting from the end of each row; independent of the abacus route used
    by p_core, so the two can be checked against each other.
    """
    out = []
    n = len(lam)
    for start in range(n):
        removed = [0] * n
        i, j = start, lam[start]
        ok = True
        for _ in range(p):
            if j == 0:
                ok = False
                break
            removed[i] += 1
            if i + 1 < n and lam[i + 1] >= j:
                i += 1
            else:
                j -= 1
        if not ok:
            continue
        new = [lam[t] - removed[t] for t in range(n)]
        if all(new[t] >= (new[t + 1] if t + 1 < n else 0) for t in range(n)):
            out.append(partition(new))
    return out


# --- nodes -------------------------------------------------------------------

REMOVABLE = "removable"
ADDABLE = "addable"


@dataclass(frozen=True)
class NodeInfo:
    """A removable or addable node (1-based row/col) with residue (row-col) mod p."""

    row: int
    col: int
    kind: str
    residue: int


def removable_nodes(lam: Partition) -> list[tuple[int, int]]:
    """(row, col) pairs, top to bottom: the last row of each run of equal
    parts, found by one bisection per run, O(log len(lam)) per corner."""
    out = []
    i, n = 0, len(lam)
    while i < n:
        x = lam[i]
        i = bisect_right(lam, -x, i + 1, n, key=neg)
        out.append((i, x))
    return out


def addable_nodes(lam: Partition) -> list[tuple[int, int]]:
    """(row, col) pairs, top to bottom; the zero partition has only (1,1)."""
    out = []
    for i, x in enumerate(lam):
        if i == 0 or lam[i - 1] > x:
            out.append((i + 1, x + 1))
    out.append((len(lam) + 1, 1))
    return out


def node_residue(row: int, col: int, p: int) -> int:
    return (row - col) % p


def nodes(lam: Partition, p: int) -> list[NodeInfo]:
    """All removable and addable nodes with residues, ordered top to bottom."""
    ns = [NodeInfo(r, c, REMOVABLE, node_residue(r, c, p)) for r, c in removable_nodes(lam)]
    ns += [NodeInfo(r, c, ADDABLE, node_residue(r, c, p)) for r, c in addable_nodes(lam)]
    ns.sort(key=lambda nd: (nd.row, nd.col))
    return ns


def suitable_nodes(lam: Partition, p: int) -> list[NodeInfo]:
    """Removable nodes whose residue differs from every strictly lower addable node."""
    adds = [(r, node_residue(r, c, p)) for r, c in addable_nodes(lam)]
    out = []
    for r, c in removable_nodes(lam):
        res = node_residue(r, c, p)
        if all(ar <= r or ares != res for ar, ares in adds):
            out.append(NodeInfo(r, c, REMOVABLE, res))
    return out


def remove_node(lam: Partition, node) -> Partition:
    """Remove one box at a removable node; node is a NodeInfo or (row, col)."""
    row, col = (node.row, node.col) if isinstance(node, NodeInfo) else node
    i = row - 1
    if i < 0 or i >= len(lam) or lam[i] != col or (i + 1 < len(lam) and lam[i + 1] == lam[i]):
        raise NotRemovable(f"({row},{col}) is not removable from {lam}")
    return partition(lam[:i] + (lam[i] - 1,) + lam[i + 1 :])


# --- complement map and dominance order --------------------------------------


def dagger(lam: Partition, a: int, b: int, p: int, n: int) -> Partition:
    """Complement of lam in the n x (a(p-1)+b) box, reversed; an involution."""
    c = a * (p - 1) + b
    if len(lam) > n:
        raise LengthExceedsN(f"{lam} has more than n={n} parts")
    if lam and lam[0] > c:
        raise FirstPartExceedsBound(f"first part {lam[0]} exceeds {c}")
    padded = lam + (0,) * (n - len(lam))
    return partition(c - padded[n - 1 - t] for t in range(n))


class Dominance(enum.Enum):
    LEQ = "leq"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def dominance_leq(mu: Partition, lam: Partition) -> Dominance:
    """Compare partial sums of mu against lam (equal degrees required)."""
    if sum(mu) != sum(lam):
        raise DegreeMismatch(f"degree {sum(mu)} vs {sum(lam)}")
    le = ge = True
    sm = sl = 0
    for k in range(max(len(mu), len(lam))):
        sm += mu[k] if k < len(mu) else 0
        sl += lam[k] if k < len(lam) else 0
        if sm > sl:
            le = False
        if sm < sl:
            ge = False
    if le:
        return Dominance.LEQ
    if ge:
        return Dominance.GREATER
    return Dominance.INCOMPARABLE
