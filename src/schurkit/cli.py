"""Command-line interface.

Subcommands: classify, parse, chars, oracle, verify, enumerate.  Each
invocation writes exactly one JSON document (or CSV table) to stdout;
diagnostics go to stderr.  Exit codes: 0 success or suite pass, 1 suite
fail, 2 usage or input error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify as cls
from .characters import char_from_expr, decompose_schur
from .errors import ResourceBudgetExceeded, SchurkitError
from .oracle import DEFAULT_BUDGET, FAMILIES, SimpleTable, composition_factors, enumerate_factors, factor_dimensions_check, product_char
from .partitions import PRIME_LIMIT, is_bounded, is_prime, is_restricted, partition
from .verify import SUITES, run_tier

PREDICATES = (
    "restricted",
    "bounded",
    "1special",
    "2special",
    "21special",
    "beginning",
    "middle",
    "end",
    "primitive",
    "standard",
    "2good",
    "critical",
    "g1inj",
    "divind",
    "spechtLower",
    "spechtUpper",
)


def _pkey(lam) -> str:
    return json.dumps(list(lam), separators=(",", ":"))


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _prime(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value >= PRIME_LIMIT:
        raise argparse.ArgumentTypeError(f"{value} is too large: --p must be below {PRIME_LIMIT}")
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not a prime")
    return value


def _parse_partition(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchurkitError(f"cannot parse partition {text!r}: {exc}") from exc
    if not isinstance(data, list):
        raise SchurkitError(f"partition must be a JSON array, got {text!r}")
    try:
        return partition(data)
    except SchurkitError as exc:
        raise SchurkitError(f"invalid partition {text!r}: {exc}") from exc


def _evaluate_predicate(name, lam, p, a, b):
    """Returns (value, witness-or-None)."""
    if name == "restricted":
        return is_restricted(lam, p), None
    if name == "bounded":
        return is_bounded(lam, a, b), None
    if name == "1special":
        return cls.is_1special(lam, p), None
    if name == "2special":
        return cls.is_2special(lam, p), None
    if name == "21special":
        w = cls.two_one_special_witness(lam, p)
        return w is not None, (None if w is None else {"mu": list(w[0]), "s": w[1]})
    if name == "beginning":
        return cls.is_beginning_term(lam, p), None
    if name == "middle":
        return cls.is_middle_term(lam, p), None
    if name == "end":
        return cls.is_end_term(lam, p), None
    if name == "primitive":
        return cls.primitive_index(lam, p), None
    if name in ("standard", "2good", "critical"):
        if name == "critical" and len(lam) > 3:
            raise SchurkitError("critical is defined for at most three rows")
        parses = cls.standard_parses(lam, p)
        witness = None
        if parses:
            witness = {
                "blocks": [
                    {"primitive": list(b.primitive), "index": b.index, "shift": b.shift}
                    for b in parses[0].blocks
                ]
            }
        return bool(parses), witness
    if name == "divind":
        return cls.divisibility_index_n3(lam, p), None
    if name == "g1inj":
        return cls.g1_inj_n3(lam, p), None
    if name == "spechtLower":
        return cls.specht_d_lower(lam, p), None
    if name == "spechtUpper":
        return cls.specht_d_upper(lam, p), None
    raise SchurkitError(f"unknown predicate {name!r}")


def _emit(doc, args) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        text = _to_csv(doc)
    elif fmt == "pretty":
        text = json.dumps(doc, indent=2, sort_keys=False)
    else:
        text = json.dumps(doc, separators=(",", ":"))
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def _csv_cell(value) -> str:
    s = value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _to_csv(doc) -> str:
    """Flatten the reports this tool produces into spreadsheet rows."""
    lines = []
    if "reports" in doc or "discrepancies" in doc:
        reports = doc.get("reports", [doc])
        lines.append("suite,degree,partition,in_theorem_set,in_oracle_set")
        for rep in reports:
            for d in rep.get("discrepancies", []):
                lines.append(
                    ",".join(
                        _csv_cell(x)
                        for x in (
                            rep.get("suite", ""),
                            d.get("degree", ""),
                            d.get("partition", ""),
                            d.get("expected", ""),
                            d.get("actual", ""),
                        )
                    )
                )
            if not rep.get("discrepancies"):
                lines.append(f"{rep.get('suite','')},,,,")
        return "\n".join(lines)
    if "factors" in doc and isinstance(doc["factors"], list):
        lines.append("degree,partition")
        for lam in doc["factors"]:
            lines.append(f"{doc.get('degree','')},{_csv_cell(lam)}")
        return "\n".join(lines)
    if "factors" in doc:
        lines.append("partition,multiplicity")
        for k, v in doc["factors"].items():
            lines.append(f"{_csv_cell(k)},{v}")
        return "\n".join(lines)
    if "schur" in doc:
        lines.append("partition,coefficient")
        for k, v in doc["schur"].items():
            lines.append(f"{_csv_cell(k)},{v}")
        return "\n".join(lines)
    # generic single-record fallback
    keys = list(doc)
    lines.append(",".join(keys))
    lines.append(",".join(_csv_cell(doc[k]) for k in keys))
    return "\n".join(lines)


# subcommand name -> (add_parser keywords, function adding its arguments), in help order
COMMANDS: dict = {}


def _command(name: str, **parser_kwargs):
    """Register the decorated function as the argument builder of `name`."""

    def register(add_arguments):
        COMMANDS[name] = (parser_kwargs, add_arguments)
        return add_arguments
    return register


def _output_options(parser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    parser.add_argument("--out", default=None)


def _table_options(parser, cache_help=None) -> None:
    """--cache and --budget of the oracle-backed subcommands, then the output options."""
    parser.add_argument("--cache", default=None, help=cache_help)
    parser.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET, help="orbit terms plus Gram entries held for one weight")
    _output_options(parser)


@_command(
    "classify",
    help="evaluate a classification predicate on one partition",
    description=(
        "Evaluate one predicate on one partition: membership tests for factors "
        "of truncated/full symmetric-power products (1special, 2special, "
        "21special, standard/2good), digit-chain roles (beginning, middle, end, "
        "primitive), three-row criticality, divisibility index and first-kernel "
        "injectivity, and the two Specht-module corollaries."
    ),
)
def _classify_arguments(pc) -> None:
    pc.add_argument("partition", help="JSON array, e.g. \"[7,4,3]\"")
    pc.add_argument("--p", type=_prime, required=True, help="the prime")
    pc.add_argument("--n", type=_positive_int, default=None, help="ambient variable count (optional)")
    pc.add_argument("--predicate", required=True, choices=PREDICATES)
    pc.add_argument("--a", type=_non_negative_int, default=0, help="row bound for --predicate bounded")
    pc.add_argument("--b", type=_non_negative_int, default=0, help="column bound for --predicate bounded")
    _output_options(pc)


@_command(
    "parse",
    help="decompose a partition into shifted primitive blocks",
    description=(
        "Write the partition as a chain of shifted primitive partitions (the "
        "standard form); a partition admits such a chain exactly when it labels "
        "a factor of the twofold symmetric power, and the chain is unique."
    ),
)
def _parse_arguments(pp) -> None:
    pp.add_argument("partition")
    pp.add_argument("--p", type=_prime, required=True)
    _output_options(pp)


@_command("chars", help="symmetric character arithmetic")
def _chars_arguments(ch) -> None:
    cd = ch.add_subparsers(dest="chars_command", required=True).add_parser(
        "decompose",
        help="decompose a product of character atoms into Schur characters",
        description="Atoms: h<r>, e<r>, sbar<r>@<p>, s[...]; operator * only.",
    )
    cd.add_argument("--n", type=_positive_int, required=True)
    cd.add_argument("--expr", required=True)
    _output_options(cd)


@_command("oracle", help="brute-force composition factors")
def _oracle_arguments(orc) -> None:
    of = orc.add_subparsers(dest="oracle_command", required=True).add_parser(
        "factors",
        help="composition factors of a product of powers",
        description=(
            "Decompose a product such as S:4,S:3 (symmetric powers), Sbar:r "
            "(truncated) and Wedge:r (exterior) into simple characters computed "
            "from contravariant-form Gram ranks, with a dimension audit."
        ),
    )
    of.add_argument("--p", type=_prime, required=True)
    of.add_argument("--n", type=_positive_int, required=True)
    of.add_argument("--spec", required=True, help='e.g. "S:4,S:3" or "Sbar:2,Wedge:1"')
    _table_options(of, cache_help="cache directory (or SCHURKIT_CACHE)")


@_command(
    "enumerate",
    help="all factor labels of a family at one degree",
    description=(
        "Union of composition-factor sets over all degree splits of a family: "
        "SS (symmetric x symmetric), SbarSbar, SbarSbarWedge, Sbar, S."
    ),
)
def _enumerate_arguments(en) -> None:
    en.add_argument("--family", required=True, choices=FAMILIES)
    en.add_argument("--p", type=_prime, required=True)
    en.add_argument("--n", type=_positive_int, required=True)
    en.add_argument("--degree", type=_non_negative_int, required=True)
    _table_options(en)


@_command(
    "verify",
    help="run a theorem suite against the oracle",
    description=(
        "Suites: thm-2good (factors of the twofold symmetric power are the "
        "standard partitions), thm-21special (factors of truncated x truncated "
        "x exterior are the mu + omega_s partitions), 1special (truncated-power "
        "baseline), combinatorial (structural identities), oracle-self "
        "(internal audits).  Exit code 0 iff every report passes."
    ),
)
def _verify_arguments(ve) -> None:
    ve.add_argument("--suite", choices=sorted(SUITES), default=None)
    ve.add_argument("--tier", choices=("fast", "extended"), default=None)
    ve.add_argument("--p", type=_prime, default=None)
    ve.add_argument("--n", type=_positive_int, default=None)
    ve.add_argument("--rmax", "--degree", dest="rmax", type=_non_negative_int, default=None)
    ve.add_argument("--bound", type=_non_negative_int, default=30, help="degree bound for the combinatorial suite")
    _table_options(ve)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The schurkit argument parser.  With `command`, a key of COMMANDS, only that
    subcommand is added, and its argument lists parse as in the full parser."""
    ap = argparse.ArgumentParser(
        prog="schurkit",
        description=(
            "Classify highest weights of composition factors of tensor products of "
            "symmetric powers in characteristic p, and verify the classification "
            "against a brute-force modular character oracle."
        ),
    )
    # a one-command usage line still lists every command; in the full parser a
    # metavar would rename the argument "command" in its invalid-choice message
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        parser_kwargs, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, **parser_kwargs))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # help, a missing or an unknown command get the full parser and its messages
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _dispatch(args)
    except ResourceBudgetExceeded as exc:
        print(f"schurkit: resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except SchurkitError as exc:
        print(f"schurkit: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "classify":
        lam = _parse_partition(args.partition)
        if args.n is not None and len(lam) > args.n:
            raise SchurkitError(f"partition {args.partition} has more than --n {args.n} parts")
        value, witness = _evaluate_predicate(args.predicate, lam, args.p, args.a, args.b)
        doc = {
            "partition": list(lam),
            "p": args.p,
            "predicate": args.predicate,
            "value": value,
        }
        if witness is not None:
            doc["witness"] = witness
        _emit(doc, args)
        return 0

    if args.command == "parse":
        lam = _parse_partition(args.partition)
        parses = cls.standard_parses(lam, args.p)
        doc = {
            "partition": list(lam),
            "p": args.p,
            "standard": bool(parses),
            "blocks": None
            if not parses
            else [
                {"primitive": list(b.primitive), "index": b.index, "shift": b.shift}
                for b in parses[0].blocks
            ],
        }
        _emit(doc, args)
        return 0

    if args.command == "chars":
        try:
            chi = char_from_expr(args.expr, args.n)
        except ValueError as exc:
            raise SchurkitError(str(exc)) from exc
        schur = decompose_schur(chi)
        doc = {"schur": {_pkey(lam): c for lam, c in sorted(schur.items(), reverse=True)}}
        _emit(doc, args)
        return 0

    # the remaining subcommands are oracle-backed and share this setting
    cache_dir = args.cache or os.environ.get("SCHURKIT_CACHE")

    if args.command == "oracle":
        spec = []
        for item in args.spec.split(","):
            kind, _, r = item.strip().partition(":")
            if kind not in ("S", "Sbar", "Wedge") or not r.isdigit():
                raise SchurkitError(f"bad factor spec {item!r}; expected Kind:degree")
            spec.append((kind, int(r)))
        table = SimpleTable(args.p, args.n, args.budget, cache_dir)
        try:
            factors = composition_factors(spec, args.p, args.n, table)
            chi = product_char(spec, args.p, args.n)
            doc = {
                "factors": {_pkey(lam): m for lam, m in sorted(factors.items(), reverse=True)},
                "dimCheck": factor_dimensions_check(factors, chi, table),
            }
        finally:
            table.persist()  # keeps what was computed before a budget trip
        _emit(doc, args)
        return 0

    if args.command == "enumerate":
        table = SimpleTable(args.p, args.n, args.budget, cache_dir)
        try:
            labels = enumerate_factors(args.family, args.degree, args.p, args.n, table)
        finally:
            table.persist()
        doc = {
            "family": args.family,
            "p": args.p,
            "n": args.n,
            "degree": args.degree,
            "factors": [list(lam) for lam in sorted(labels, reverse=True)],
        }
        _emit(doc, args)
        return 0

    if args.command == "verify":
        reports = []
        if args.tier:
            reports = run_tier(args.tier, args.budget, cache_dir)
        elif args.suite == "combinatorial":
            if args.p is None:
                raise SchurkitError("combinatorial suite needs --p")
            reports = [SUITES["combinatorial"](args.p, args.bound)]
        elif args.suite:
            if args.p is None or args.n is None or args.rmax is None:
                raise SchurkitError(f"suite {args.suite} needs --p, --n and --rmax")
            table = SimpleTable(args.p, args.n, args.budget, cache_dir)
            try:
                reports = [SUITES[args.suite](args.p, args.n, args.rmax, table)]
            finally:
                table.persist()
        else:
            raise SchurkitError("verify needs --suite or --tier")
        doc = (
            reports[0].to_dict()
            if len(reports) == 1
            else {
                "reports": [r.to_dict() for r in reports],
                "verdict": "pass" if all(r.verdict for r in reports) else "fail",
            }
        )
        _emit(doc, args)
        return 0 if all(r.verdict for r in reports) else 1

    raise SchurkitError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
