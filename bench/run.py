#!/usr/bin/env python3
"""schurkit benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py [--workload certify-cold|query-warm|classify-stream|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Each run sets the workload up several
times (set-up time is the median), then issues operations one after another
until the next one would end past ``--seconds``, checking every answer.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run measures the
same operations untraced and then traced, and reports per-layer metrics
(per operation) and the tracing overhead.  ``--workload all`` runs each
workload in a process of its own and combines their result lines.  Run
records and the query-warm cache directory are written under ``.bench_run/``
in the checkout.

``--record-baseline`` rewrites the seed-independent counts in
bench/baseline.json from the current code.  It keeps the certify-cold
character digests and stops with an error if the characters differ from them.
See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_DIR = ROOT / ".bench_run"
BASELINE = BENCH_DIR / "baseline.json"
sys.path.insert(0, str(BENCH_DIR))

import streams  # noqa: E402
from spans import Observer, Tracer  # noqa: E402

WORKLOADS = ("certify-cold", "query-warm", "classify-stream")
SETUP_REPEATS = 5
MAX_REPORTED_ERRORS = 5
WARM_CALLS = 3  # untimed requests before each query-warm request

# (name, unit, better); every trace-0 run reports all of them
END_TO_END = (
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

CLASSIFY_TRACED = (
    "standard_parses",
    "two_one_special_witness",
    "is_2special",
    "primitive_index",
    "classify_term",
    "divisibility_index_n3",
    "g1_inj_n3",
    "is_21good_piecewise",
)

# (name, unit, better); every trace-1 run reports all of them, per operation
PER_LAYER = (
    ("oracle.char.computed", "count/op", "lower"),
    ("oracle.char.hits", "count/op", "higher"),
    ("oracle.char.s", "s/op", "lower"),
    ("oracle.char.self_s", "s/op", "lower"),
    ("oracle.apply_lowering.calls", "count/op", "lower"),
    ("oracle.apply_lowering.s", "s/op", "lower"),
    ("oracle.apply_lowering.words", "count/op", "lower"),
    ("oracle.apply_lowering.max_words", "count", "lower"),
    ("oracle.max_weight_dim", "count", "lower"),
    ("characters.kostka.calls", "count/op", "lower"),
    ("characters.kostka.s", "s/op", "lower"),
    ("oracle.enumerate_factors.calls", "count/op", "lower"),
    ("oracle.enumerate_factors.s", "s/op", "lower"),
    ("oracle.product_char.s", "s/op", "lower"),
    ("characters.mul.calls", "count/op", "lower"),
    ("characters.mul.s", "s/op", "lower"),
    ("oracle.decompose_simples.self_s", "s/op", "lower"),
    ("oracle.load.calls", "count/op", "lower"),
    ("oracle.load.records", "count/op", "lower"),
    ("oracle.load.s", "s/op", "lower"),
    ("oracle.save.calls", "count/op", "lower"),
    ("oracle.save.bytes", "B/op", "lower"),
    ("oracle.save.s", "s/op", "lower"),
    ("oracle.save.unchanged", "count/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("cli.build_parser.s", "s/op", "lower"),
    ("characters.decompose_schur.s", "s/op", "lower"),
    ("characters.schur_char.s", "s/op", "lower"),
    *((f"classify.{fn}.{field}", unit, "lower") for fn in CLASSIFY_TRACED for field, unit in (("calls", "count/op"), ("s", "s/op"))),
    ("partitions.p_core.s", "s/op", "lower"),
    ("partitions.p_adic_digits.s", "s/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# counts kept at their peak instead of summed per operation
PEAK_COUNTS = ("oracle.apply_lowering.max_words", "oracle.max_weight_dim")


class SetupError(RuntimeError):
    """The program failed while the workload was being set up."""


# --- machine facts ----------------------------------------------------------------


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mounts."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def machine_facts() -> dict:
    RUN_DIR.mkdir(exist_ok=True)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cache_dir_fs": fs_type(RUN_DIR),
    }


# --- the package under test ---------------------------------------------------------


class Package:
    """Freshly imported schurkit modules, looked up at call time so that
    traced wrappers installed on the modules are the ones called."""

    def __init__(self):
        src = str(ROOT / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules if m == "schurkit" or m.startswith("schurkit.")]:
            del sys.modules[name]
        importlib.import_module("schurkit")
        for name in ("partitions", "classify", "characters", "oracle", "verify", "cli"):
            setattr(self, name, importlib.import_module(f"schurkit.{name}"))
        # module-level memo tables (e.g. kostka) would survive between the
        # operations of one process but not between CLI calls; clearing them
        # before each operation keeps every operation a cold one
        self._clears = [
            value.cache_clear
            for name, mod in sys.modules.items()
            if name.startswith("schurkit.")
            for value in vars(mod).values()
            if callable(getattr(value, "cache_clear", None))
        ]

    def clear_memos(self) -> None:
        for clear in self._clears:
            clear()


def table_digest(table) -> str:
    """Canonical digest of every character a SimpleTable holds."""
    rows = [
        [list(lam), sorted([list(mu), c] for mu, c in chi.coeffs.items())]
        for lam, chi in sorted(table.cache.items())
    ]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


@lru_cache(maxsize=None)
def kostka_ref(shape: tuple, content: tuple) -> int:
    """Semistandard tableaux of a shape and content, counted independently of
    the package: place the largest letter as a horizontal strip, recurse."""
    if not content:
        return int(not shape)
    *rest, k = content

    def strips(i: int, left: int):
        if i == len(shape):
            if left == 0:
                yield ()
            return
        below = shape[i + 1] if i + 1 < len(shape) else 0
        for take in range(min(left, shape[i] - below) + 1):
            for tail in strips(i + 1, left - take):
                yield (shape[i] - take,) + tail

    return sum(kostka_ref(tuple(x for x in nu if x), tuple(rest)) for nu in strips(0, k))


def partitions_of(r: int, max_len: int, max_part: int | None = None):
    """Partitions of r into at most max_len parts, for the answer checks
    (kept apart from the package, like kostka_ref)."""
    max_part = r if max_part is None else max_part
    if r == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(r, max_part), 0, -1):
        for rest in partitions_of(r - first, max_len - 1, first):
            yield (first,) + rest


# --- workloads -----------------------------------------------------------------------


class Workload:
    """A closed-loop workload: setup() builds state from the seed, items()
    yields the operations' inputs, op() is the timed call into the package,
    check() lists what is wrong with one answer (untimed)."""

    name = ""

    def kind(self, item):
        """Request kind for the per-kind breakdown, if the workload mixes kinds."""
        return None

    def warm(self):
        """Untimed work run just before each operation."""


class CertifyCold(Workload):
    """thm-2good certification on fresh tables; one operation is one pass
    over the whole grid."""

    name = "certify-cold"

    def setup(self, seed):
        self.pkg = Package()
        self.order = streams.certify_order(seed)
        self.digests = load_baseline().get(self.name, {}).get("digests", {})

    def items(self):
        while True:
            yield self.order

    def op(self, order):
        out = []
        for p, n, rmax in order:
            self.pkg.clear_memos()
            table = self.pkg.oracle.SimpleTable(p, n)
            report = self.pkg.verify.suite_thm_2good(p, n, rmax, table)
            out.append(((p, n, rmax), report, table))
        return out

    def check(self, order, result):
        errors = []
        for cfg, report, table in result:
            key = ",".join(map(str, cfg))
            if not report.verdict or report.discrepancies:
                errors.append(f"thm-2good {key} failed: {report.discrepancies[:3]}")
            digest = table_digest(table)
            if digest != self.digests.get(key):
                errors.append(f"thm-2good {key}: character digest {digest[:12]} differs from baseline")
        return errors


class QueryWarm(Workload):
    """In-process `schurkit` CLI requests against a filled --cache directory."""

    name = "query-warm"

    def setup(self, seed):
        self.pkg = Package()
        self.seed = seed
        self.cache_dir = RUN_DIR / "query-cache"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        # E^{(x)r} has every simple L(lam), lam |- r with at most n rows, as a
        # factor, so this one request per table persists all of degree r
        for p, n, r in streams.QUERY_TABLES:
            argv = ["oracle", "factors", "--p", str(p), "--n", str(n), "--spec", ",".join(["Wedge:1"] * r)]
            code, text = self.call(argv + ["--cache", str(self.cache_dir)])
            doc = json.loads(text) if code == 0 else {}
            want = {json.dumps(list(lam), separators=(",", ":")) for lam in partitions_of(r, n)}
            if code != 0 or not doc.get("dimCheck") or set(doc.get("factors", {})) != want:
                raise SetupError(f"filling the cache with {argv} gave exit {code}: {text[:200]}")
        self.expected = {}

    def warm(self):
        # the previous request may have slept ~55 ms in the table save; an
        # operation run straight after such a sleep took about 40 % more CPU
        # (cold caches), by an amount that drifted with the machine's load.
        # One small documented request beforehand took away half of that,
        # three took it all away (a busy loop of 10 ms took away none)
        for _ in range(WARM_CALLS):
            self.call(["chars", "decompose", "--n", "3", "--expr", "h2*h1"])

    def call(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        return code, buf.getvalue()

    def items(self):
        for kind, params in streams.query_requests(self.seed):
            yield kind, params, streams.query_argv(kind, params, str(self.cache_dir))

    def op(self, item):
        self.pkg.clear_memos()
        return self.call(item[2])

    def kind(self, item):
        return item[0]

    def check(self, item, result):
        kind, params, argv = item
        code, text = result
        if code != 0:
            return [f"{' '.join(argv)}: exit {code}"]
        doc = json.loads(text)
        if kind == "oracle":
            ok = doc.get("dimCheck") is True and bool(doc.get("factors"))
        elif kind == "enumerate":
            ok = {tuple(lam) for lam in doc["factors"]} == self.classified(params)
        else:
            degrees = tuple(sorted(params["degrees"], reverse=True))
            want = {}
            for lam in partitions_of(sum(degrees), params["n"]):
                k = kostka_ref(lam, degrees)
                if k:
                    want[lam] = k
            ok = {tuple(json.loads(k)): v for k, v in doc["schur"].items()} == want
        return [] if ok else [f"{' '.join(argv)}: wrong answer {text[:200]}"]

    def classified(self, params):
        key = (params["family"], params["p"], params["n"], params["degree"])
        if key not in self.expected:
            pred = getattr(self.pkg.classify, params["predicate"])
            self.expected[key] = {
                lam for lam in partitions_of(params["degree"], params["n"]) if pred(lam, params["p"])
            }
        return self.expected[key]


def classify_op(pkg, lam, p):
    """Answer one (partition, p) request with every classify predicate whose
    domain contains it, plus the p-core and p-adic digits."""
    P, C = pkg.partitions, pkg.classify
    ans = {
        "restricted": P.is_restricted(lam, p),
        "bounded": P.is_bounded(lam, 2, 1),
        "1special": C.is_1special(lam, p),
        "2special": C.is_2special(lam, p),
        "21special": C.two_one_special_witness(lam, p),
        "terms": C.classify_term(lam, p),
        "primitive": C.primitive_index(lam, p),
        "parses": C.standard_parses(lam, p),
        "2good": C.is_2good(lam, p),
        "core": P.p_core(lam, p),
        "digits": P.p_adic_digits(lam, p).digits,
    }
    if len(lam) <= 3:
        ans["critical"] = C.is_critical_n3(lam, p)
        ans["divind"] = C.divisibility_index_n3(lam, p)
        ans["g1inj"] = C.g1_inj_n3(lam, p)
    if ans["restricted"]:
        ans["spechtLower"] = C.specht_d_lower(lam, p)
        if p > 2:
            ans["piecewise"] = C.is_21good_piecewise(lam, p)
    if P.is_regular(lam, p):
        ans["spechtUpper"] = C.specht_d_upper(lam, p)
    return ans


class ClassifyStream(Workload):
    """Closed-form predicates on seeded (partition, p) requests."""

    name = "classify-stream"

    def setup(self, seed):
        self.pkg = Package()
        self.seed = seed

    def items(self):
        return streams.classify_requests(self.seed)

    def op(self, item):
        return classify_op(self.pkg, *item)

    def check(self, item, ans):
        lam, p = item
        P = self.pkg.partitions
        bad = []
        if len(ans["parses"]) > 1:
            bad.append("more than one standard parse")
        if ans["2special"] and not ans["parses"]:
            bad.append("2-special but not standard")
        if ans["2good"] != bool(ans["parses"]):
            bad.append("2-good disagrees with the parse")
        if "critical" in ans and ans["critical"] != ans["2good"]:
            bad.append("critical disagrees with 2-good")
        witness = ans["21special"]
        if witness is not None and P.add(witness[0], P.omega(witness[1])) != lam:
            bad.append("(2,1)-special witness does not add up")
        if "piecewise" in ans and ans["piecewise"] != (witness is not None):
            bad.append("piecewise form disagrees with is_21special")
        if "spechtLower" in ans and ans["spechtLower"] != (witness is not None):
            bad.append("spechtLower disagrees with is_21special")
        if P.recombine(ans["digits"], p) != lam:
            bad.append("digits do not recombine")
        if P.p_core(ans["core"], p) != ans["core"]:
            bad.append("p-core not idempotent")
        return [f"{list(lam)} p={p}: {b}" for b in bad]


WORKLOAD_TYPES = {w.name: w for w in (CertifyCold, QueryWarm, ClassifyStream)}


# --- measuring -----------------------------------------------------------------------


def cpu_clock() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Run:
    def __init__(self):
        self.items = []  # operation inputs, kept only for a traced replay
        self.kinds = []
        self.cpu = array("d")  # per-operation CPU seconds
        self.wall = array("d")  # per-operation wall seconds
        self.failed = 0
        self.errors = []

    def record_failure(self, message):
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)

    def extend(self, other):
        self.kinds += other.kinds
        self.cpu += other.cpu
        self.wall += other.wall
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:MAX_REPORTED_ERRORS]


def measure(wl, items, seconds, tracer=None, keep_items=False):
    """Closed loop: issue the next operation until it would end past the
    deadline (judged by the last operation's wall time); at least one."""
    run = Run()
    clock = time.perf_counter
    deadline = clock() + seconds
    for item in items:
        gc.collect()  # start every operation with empty young generations
        wl.warm()
        if tracer:
            tracer.active = True
        start, start_cpu = clock(), cpu_clock()
        try:
            result = wl.op(item)
            error = None
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        cpu, wall = cpu_clock() - start_cpu, clock() - start
        if tracer:
            tracer.active = False
        if keep_items:
            run.items.append(item)
        run.kinds.append(wl.kind(item))
        run.cpu.append(cpu)
        run.wall.append(wall)
        if error is None:
            errors = wl.check(item, result)
            error = "; ".join(errors) if errors else None
        if error is not None:
            run.record_failure(error)
        if clock() + wall > deadline:
            break
    return run


def latency_metrics(seconds):
    ms = sorted(x * 1e3 for x in seconds)
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0]
    return {
        "op_p50_ms": statistics.median(ms),
        "op_p99_ms": p99,
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
    }


def setup_workload(wl, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        start = cpu_clock()
        wl.setup(seed)
        times.append(cpu_clock() - start)
    # a CLI process holds only what it imported; keep the benchmark's own
    # long-lived objects out of the collections that operations trigger
    gc.collect()
    gc.freeze()
    return statistics.median(times)


class SaveObserver(Observer):
    """Counts bytes written and saves that rewrite an identical file."""

    @staticmethod
    def before(args):
        try:
            return Path(args[1]).read_bytes()
        except OSError:
            return None

    @staticmethod
    def after(tracer, args, result, old):
        new = Path(args[1]).read_bytes()
        tracer.add("oracle.save.bytes", len(new))
        tracer.add("oracle.save.unchanged", int(new == old))


class CharObserver(Observer):
    @staticmethod
    def before(args):
        return args[0].stats()

    @staticmethod
    def after(tracer, args, result, old):
        new = args[0].stats()
        tracer.add("oracle.char.computed", new["cacheMisses"] - old["cacheMisses"])
        tracer.add("oracle.char.hits", new["cacheHits"] - old["cacheHits"])
        tracer.peak("oracle.max_weight_dim", new["maxWeightSpaceDim"])


class LoweringObserver(Observer):
    @staticmethod
    def after(tracer, args, result, old):
        tracer.add("oracle.apply_lowering.words", len(result.entries))
        tracer.peak("oracle.apply_lowering.max_words", len(result.entries))


class LoadObserver(Observer):
    @staticmethod
    def after(tracer, args, result, old):
        tracer.add("oracle.load.records", result)


def install_tracer(pkg) -> Tracer:
    tracer = Tracer()
    o, ch = pkg.oracle, pkg.characters
    functions = [
        ("oracle.apply_lowering", o, "apply_lowering", LoweringObserver),
        ("oracle.enumerate_factors", o, "enumerate_factors", None),
        ("oracle.product_char", o, "product_char", None),
        ("oracle.decompose_simples", o, "decompose_simples", None),
        ("characters.kostka", ch, "kostka", None),
        ("characters.decompose_schur", ch, "decompose_schur", None),
        ("characters.schur_char", ch, "schur_char", None),
        ("cli.main", pkg.cli, "main", None),
        ("cli.build_parser", pkg.cli, "build_parser", None),
        ("partitions.p_core", pkg.partitions, "p_core", None),
        ("partitions.p_adic_digits", pkg.partitions, "p_adic_digits", None),
    ] + [(f"classify.{fn}", pkg.classify, fn, None) for fn in CLASSIFY_TRACED]
    for name, mod, attr, observe in functions:
        if hasattr(mod, attr):  # a layer function a later version removed stays absent
            tracer.wrap_function(name, getattr(mod, attr), observe)
    table = o.SimpleTable
    tracer.wrap_method("oracle.char", table, "char", CharObserver)
    tracer.wrap_method("oracle.load", table, "load", LoadObserver)
    tracer.wrap_method("oracle.save", table, "save", SaveObserver)
    tracer.wrap_method("characters.mul", ch.SymChar, "__mul__")
    return tracer


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    values = {}
    for name, span in tracer.spans.items():
        values[f"{name}.calls"] = span.calls / ops
        values[f"{name}.s"] = span.total / ops
        values[f"{name}.self_s"] = span.self_time / ops
    for name, value in tracer.counts.items():
        values[name] = value if name in PEAK_COUNTS else value / ops
    return values


def deterministic_counts(workload: str, values: dict) -> dict:
    """The counts recorded in baseline.json: the same for every seed."""
    if workload == "certify-cold":
        names = (
            "oracle.char.computed",
            "oracle.char.hits",
            "oracle.apply_lowering.calls",
            "oracle.apply_lowering.words",
            "oracle.apply_lowering.max_words",
            "oracle.max_weight_dim",
            "characters.kostka.calls",
            "oracle.enumerate_factors.calls",
        )
        out = {k: values[k] for k in names if k in values}
    else:
        out = {"oracle.char.computed": values.get("oracle.char.computed", 0)}
    if workload == "query-warm":
        out["oracle.max_weight_dim"] = values.get("oracle.max_weight_dim", 0)
        # saves that wrote different bytes: none, the cache is already full
        out["oracle.save.changed"] = values.get("oracle.save.calls", 0) - values.get("oracle.save.unchanged", 0)
    return {k: int(v) if float(v).is_integer() else v for k, v in out.items()}


def load_baseline() -> dict:
    try:
        return json.loads(BASELINE.read_text())
    except FileNotFoundError:
        return {}


# --- one workload ---------------------------------------------------------------------


def by_kind(run) -> dict:
    """CPU and wall medians per request kind, where a workload has kinds."""
    groups: dict = {}
    for kind, cpu, wall in zip(run.kinds, run.cpu, run.wall):
        c, w = groups.setdefault(kind, ([], []))
        c.append(cpu * 1e3)
        w.append(wall * 1e3)
    return {
        k: {"ops": len(c), "cpu_p50_ms": statistics.median(c), "wall_p50_ms": statistics.median(w)}
        for k, (c, w) in sorted(groups.items())
    }


def run_workload(name, seed, seconds, trace):
    wl = WORKLOAD_TYPES[name]()
    out = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "machine": machine_facts()}
    try:
        setup_s = setup_workload(wl, seed)
    except (Exception, SystemExit) as exc:
        out["error"] = f"set-up failed: {type(exc).__name__}: {exc}"
        return out, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if not trace:
        run = measure(wl, wl.items(), seconds)
        values = latency_metrics(run.cpu)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in END_TO_END}
        out["wall_clock"] = latency_metrics(run.wall)
    else:
        run = measure(wl, wl.items(), seconds / 2, keep_items=True)
        plain_cpu, plain_ops = sum(run.cpu), len(run.cpu)
        tracer = install_tracer(wl.pkg)
        try:
            traced = measure(wl, iter(run.items), float("inf"), tracer)
        finally:
            tracer.uninstall()
        ops = len(traced.cpu)
        values = layer_metrics(tracer, ops)
        values["trace.overhead_pct"] = (sum(traced.cpu) / ops / (plain_cpu / plain_ops) - 1) * 100
        # a metric of a wrapped layer that saw no work reads 0; the metrics of a
        # layer function the package no longer has are absent
        gone = {n.rsplit(".", 1)[0] for n, _, _ in PER_LAYER if n.count(".") == 2} - set(tracer.spans)
        metrics = {
            m: {"value": values.get(m, 0), "unit": unit}
            for m, unit, _ in PER_LAYER
            if m.rsplit(".", 1)[0] not in gone
        }
        out["oracle_char_share"] = values.get("oracle.char.s", 0) / (sum(traced.wall) / ops)
        counts = deterministic_counts(name, values)
        expected = load_baseline().get(name, {}).get("counts", {})
        out["counts"] = counts
        out["count_drift"] = {k: {"baseline": expected.get(k), "now": v} for k, v in counts.items() if expected.get(k) != v}
        run.extend(traced)
    out["operations"] = len(run.cpu)
    out["by_kind"] = by_kind(run)
    out["fail_ratio"] = run.failed / len(run.cpu)
    out["errors"] = run.errors
    out["metrics"] = metrics
    return out, {"correct": run.failed == 0, "attempted": len(run.cpu), "failed": run.failed, "metrics": metrics}


def report(out) -> None:
    print(f"# workload {out['workload']}  seed {out['seed']}  seconds {out['seconds']}  trace {out['trace']}")
    print("# machine " + json.dumps(out["machine"]))
    if "error" in out:
        print(f"# {out['error']}")
        return
    print(f"#   fail_ratio = {out['fail_ratio']:.6g} ({len(out['errors'])} errors shown)")
    for err in out["errors"]:
        print(f"#     {err}")
    unit = "one pass over the grid" if out["workload"] == "certify-cold" else "one request"
    print(f"#   operations = {out['operations']} (one operation = {unit}; latencies are CPU time)")
    for name, m in out["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    if "wall_clock" in out:
        print("#   wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in out["wall_clock"].items()))
    for kind, k in out["by_kind"].items():
        if kind:
            print(f"#   {kind}: {k['ops']} ops, CPU p50 {k['cpu_p50_ms']:.3f} ms, wall p50 {k['wall_p50_ms']:.3f} ms")
    if out["trace"]:
        print(f"#   oracle.char.s share of the traced operation wall time = {out['oracle_char_share']:.3f}")
        for name, d in out["count_drift"].items():
            print(f"#   count differs from baseline: {name} baseline {d['baseline']} now {d['now']}")


def record_baseline(seconds) -> None:
    """Rewrite the counts and machine facts in baseline.json from the current
    code.  The certify-cold digests are kept: the traced certify-cold run
    checks the characters against them, so code that changes a character stops
    here, and the digests change only by a hand edit."""
    data = load_baseline()
    for name in WORKLOADS:
        out, result = run_workload(name, 0, seconds, 1)
        if not result["correct"]:
            sys.exit(f"{name}: baseline not written: {out.get('error') or out['errors']}")
        data.setdefault(name, {})["counts"] = out["counts"]
    data["machine"] = machine_facts()
    BASELINE.write_text(json.dumps(data, indent=2) + "\n")


def run_each(args) -> int:
    """Run every workload in a process of its own, so that peak_rss_mb is that
    workload's own high-water mark, and combine their result lines."""
    results = {}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if lines[:-1]:
            print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-baseline", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "schurkit" / "__init__.py").is_file():
        print(f"bench: no schurkit sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.record_baseline:
        record_baseline(args.seconds)
        return 0
    if args.workload == "all":
        return run_each(args)
    out, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(out)
    (RUN_DIR / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
