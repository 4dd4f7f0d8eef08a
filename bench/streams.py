"""Seeded inputs of the three workloads.

Every generator is a pure function of the seed: the same seed gives the same
sequence, and the program under test sees only the generated requests.  The
request streams are endless; a run takes as many as fit in its time.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import count

# (p, n, rmax) grids certified by certify-cold; the seed only orders them
CERTIFY_GRID = ((3, 3, 12), (2, 4, 9))

# (p, n, degree) tables that query-warm's set-up persists; every oracle and
# enumerate request is drawn at one of these, so none computes a character
QUERY_TABLES = ((2, 3, 9), (3, 3, 9), (5, 3, 9), (2, 4, 7), (3, 4, 7))

# enumerate families that have a closed classifier (family -> predicate name)
ENUMERATE_FAMILIES = (("SS", "is_2good"), ("SbarSbarWedge", "is_21special"), ("Sbar", "is_1special"))

# query-warm requests come in blocks with a fixed mix, shuffled within the
# block, and every size class is drawn from a shuffled bag: each seed then has
# the same share of every class, and only the order and the details vary.
# The kinds are the three per-call examples of the README ("Command line").
# Cached-table requests (oracle, enumerate) are 10 of 18, so the median
# request reads and saves the persisted table; each waits ~55 ms of wall time
# in the save, so the cheap chars requests bring a 36 s run to about 1000
# requests, and the slowest of them set the p99
QUERY_BLOCK = (("oracle", 5), ("enumerate", 5), ("chars", 8))
CACHED_KINDS = ("oracle", "enumerate")

# chars decompose requests: products of 2-3 complete powers in n variables,
# n -> total degrees.  n = 5 is the heavy class that sets the p99: its
# degree-10 requests (about 5-15 ms of CPU by shape, the slowest class) are
# about 4 % of all requests, so the p99 lies inside that class rather than on the edge
# between classes, where a few requests slowed by the preceding table save
# would decide it
CHARS_DEGREES = {3: range(2, 9), 4: range(2, 9), 5: range(7, 11)}
CHARS_N = tuple(CHARS_DEGREES)

CLASSIFY_PRIMES = (2, 3, 5, 7)
CLASSIFY_MAX_DEGREE = 40
CLASSIFY_MAX_PART = 300


def certify_order(seed: int) -> list:
    rng = random.Random(f"certify-cold/{seed}")
    return rng.sample(CERTIFY_GRID, len(CERTIFY_GRID))


def _split(rng: random.Random, total: int, parts: int) -> list:
    """A random composition of total into `parts` positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _shapes(total: int) -> list:
    """Every way to write total as two or three positive parts, largest first."""
    two = [(a, total - a) for a in range(total - 1, (total - 1) // 2, -1)]
    three = [
        (a, b, total - a - b)
        for a in range(total - 2, 0, -1)
        for b in range(min(a, total - a - 1), 0, -1)
        if b >= total - a - b
    ]
    return two + three


def _bag(rng: random.Random, values):
    """Endless draws in which every value appears once per len(values) draws."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def query_requests(seed: int):
    """Endless query-warm stream of (kind, params) requests."""
    rng = random.Random(f"query-warm/{seed}")
    tables = _bag(rng, QUERY_TABLES)
    enumerations = _bag(rng, [(t, f) for t in QUERY_TABLES for f in ENUMERATE_FAMILIES])
    chars_n = _bag(rng, CHARS_N)
    chars_degree = {n: _bag(rng, degrees) for n, degrees in CHARS_DEGREES.items()}
    chars_shape = {d: _bag(rng, _shapes(d)) for d in sorted(set().union(*CHARS_DEGREES.values()))}
    block = [kind for kind, k in QUERY_BLOCK for _ in range(k)]
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "chars":
                n = next(chars_n)
                # largest power first, as in the README's h2*h1; the order of
                # the factors moved one request's time by up to 25 %
                yield "chars", {"n": n, "degrees": list(next(chars_shape[next(chars_degree[n])]))}
            elif kind == "enumerate":
                (p, n, r), (family, predicate) = next(enumerations)
                yield "enumerate", {"p": p, "n": n, "degree": r, "family": family, "predicate": predicate}
            else:
                p, n, r = next(tables)
                spec = []
                for d in _split(rng, r, rng.choice((2, 3))):
                    factor = rng.choice(("S", "Sbar", "Wedge"))
                    if (factor == "Wedge" and d > n) or (factor == "Sbar" and d > n * (p - 1)):
                        factor = "S"  # that power would be zero
                    spec.append((factor, d))
                yield "oracle", {"p": p, "n": n, "spec": spec}


def query_argv(kind: str, params: dict, cache_dir: str) -> list:
    if kind == "chars":
        expr = "*".join(f"h{d}" for d in params["degrees"])
        return ["chars", "decompose", "--n", str(params["n"]), "--expr", expr]
    common = ["--p", str(params["p"]), "--n", str(params["n"]), "--cache", cache_dir]
    if kind == "enumerate":
        return ["enumerate", "--family", params["family"], "--degree", str(params["degree"])] + common
    spec = ",".join(f"{k}:{d}" for k, d in params["spec"])
    return ["oracle", "factors", "--spec", spec] + common


# --- classify-stream -----------------------------------------------------------


@lru_cache(maxsize=None)
def _count(total: int, max_part: int) -> int:
    """Number of partitions of total with every part at most max_part."""
    if total == 0:
        return 1
    return sum(_count(total - j, j) for j in range(1, min(total, max_part) + 1))


_DEGREE_WEIGHTS = [_count(r, r) for r in range(CLASSIFY_MAX_DEGREE + 1)]


def _uniform_partition(rng: random.Random) -> tuple:
    """Uniform over every partition of degree at most CLASSIFY_MAX_DEGREE."""
    remaining = rng.choices(range(CLASSIFY_MAX_DEGREE + 1), _DEGREE_WEIGHTS)[0]
    parts = []
    cap = remaining
    while remaining:
        u = rng.randrange(_count(remaining, cap))
        for j in range(min(cap, remaining), 0, -1):
            c = _count(remaining - j, j)
            if u < c:
                parts.append(j)
                remaining -= j
                cap = j
                break
            u -= c
    return tuple(parts)


def _three_rows(rng: random.Random) -> tuple:
    """Uniform over partitions with exactly three parts, each at most CLASSIFY_MAX_PART."""
    a, b, c = sorted(rng.sample(range(CLASSIFY_MAX_PART + 2), 3))
    return (c - 1, b, a + 1)


def classify_requests(seed: int):
    """Endless classify-stream of (partition, p): half small, half 3-row."""
    rng = random.Random(f"classify-stream/{seed}")
    for i in count():
        lam = _uniform_partition(rng) if i % 2 == 0 else _three_rows(rng)
        yield lam, rng.choice(CLASSIFY_PRIMES)
