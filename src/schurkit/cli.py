"""Command-line interface.

Commands: classify, parse, chars decompose, oracle factors, enumerate,
verify.  Each is one entry of COMMANDS, keyed by its words: a handler
registered with its arguments, which returns the invocation's one JSON
document.  `main` writes it to stdout (or a CSV table); diagnostics go to
stderr.  A request builds only the parser of the command it names, whose
help and errors are those of the full parser of `build_parser`; a request
that names no command, or has arguments left over, is parsed by the full
parser.  Exit codes: 0 success or suite pass, 1 when the document's verdict
is "fail" (only verify reports carry one), 2 usage or input error, or an
--out or --cache path that cannot be written, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from . import classify as cls
from . import verify
from .characters import char_from_expr, decompose_schur
from .errors import ResourceBudgetExceeded, SchurkitError
from .oracle import FAMILIES, KINDS, SimpleTable, decompose_simples, enumerate_factors, factor_dimensions_check, product_char
from .partitions import PRIME_LIMIT, is_bounded, is_prime, is_restricted, partition


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


def _blocks(parse) -> list:
    return [{"primitive": list(b.primitive), "index": b.index, "shift": b.shift} for b in parse.blocks]


def _standard(lam, p, a, b):
    parses = cls.standard_parses(lam, p)
    return bool(parses), ({"blocks": _blocks(parses[0])} if parses else None)


def _critical(lam, p, a, b):
    # is_critical_n3 owns the three-row rule, and so rejects a fourth row as divind and g1inj do
    return cls.is_critical_n3(lam, p), _standard(lam, p, a, b)[1]


def _21special(lam, p, a, b):
    w = cls.two_one_special_witness(lam, p)
    return w is not None, (None if w is None else {"mu": list(w[0]), "s": w[1]})


# predicate name -> evaluator (lam, p, a, b) -> (value, witness or None), in help order
PREDICATES = {
    "restricted": lambda lam, p, a, b: (is_restricted(lam, p), None),
    "bounded": lambda lam, p, a, b: (is_bounded(lam, a, b), None),
    "1special": lambda lam, p, a, b: (cls.is_1special(lam, p), None),
    "2special": lambda lam, p, a, b: (cls.is_2special(lam, p), None),
    "21special": _21special,
    "beginning": lambda lam, p, a, b: (cls.is_beginning_term(lam, p), None),
    "middle": lambda lam, p, a, b: (cls.is_middle_term(lam, p), None),
    "end": lambda lam, p, a, b: (cls.is_end_term(lam, p), None),
    "primitive": lambda lam, p, a, b: (cls.primitive_index(lam, p), None),
    "standard": _standard,
    "2good": _standard,
    "critical": _critical,
    "g1inj": lambda lam, p, a, b: (cls.g1_inj_n3(lam, p), None),
    "divind": lambda lam, p, a, b: (cls.divisibility_index_n3(lam, p), None),
    "spechtLower": lambda lam, p, a, b: (cls.specht_d_lower(lam, p), None),
    "spechtUpper": lambda lam, p, a, b: (cls.specht_d_upper(lam, p), None),
}


def _emit(doc, args) -> None:
    if args.format == "csv":
        text = _to_csv(doc)
    elif args.format == "pretty":
        text = json.dumps(doc, indent=2, sort_keys=False)
    else:
        text = json.dumps(doc, separators=(",", ":"))
    if args.out:
        with open(args.out, "w") as fh:
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
    for key, column in (("factors", "multiplicity"), ("schur", "coefficient")):
        if key in doc:
            lines.append(f"partition,{column}")
            lines.extend(f"{_csv_cell(k)},{v}" for k, v in doc[key].items())
            return "\n".join(lines)
    # generic single-record fallback
    keys = list(doc)
    lines.append(",".join(keys))
    lines.append(",".join(_csv_cell(doc[k]) for k in keys))
    return "\n".join(lines)


# command words -> (help, parser keywords, function adding its arguments,
# handler from the parsed arguments to the output document), in help order
COMMANDS: dict = {}
# the help of each group of two-word commands, the first word
GROUPS = {"chars": "symmetric character arithmetic", "oracle": "brute-force composition factors"}


def _command(path: tuple, add_arguments, help: str, **parser_kwargs):
    """Register the decorated function as the handler of `path`, with its arguments."""

    def register(handler):
        COMMANDS[path] = (help, parser_kwargs, add_arguments, handler)
        return handler
    return register


def _output_options(parser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    parser.add_argument("--out", default=None)


def _table_options(parser, cache_help=None) -> None:
    """--cache and --budget of the oracle-backed subcommands, then the output options."""
    parser.add_argument("--cache", default=None, help=cache_help)
    parser.add_argument("--budget", type=_positive_int, default=None, help="orbit terms plus Gram entries held for one weight")
    _output_options(parser)


def _table_keywords(args) -> dict:
    """The SimpleTable keywords of --cache (or SCHURKIT_CACHE) and --budget."""
    keywords = {"cache_dir": args.cache or os.environ.get("SCHURKIT_CACHE")}
    if args.budget is not None:
        keywords["budget"] = args.budget
    return keywords


def _classify_arguments(pc) -> None:
    pc.add_argument("partition", help="JSON array, e.g. \"[7,4,3]\"")
    pc.add_argument("--p", type=_prime, required=True, help="the prime")
    pc.add_argument("--n", type=_positive_int, default=None, help="ambient variable count (optional)")
    pc.add_argument("--predicate", required=True, choices=PREDICATES)
    pc.add_argument("--a", type=_non_negative_int, default=None, help="row bound for --predicate bounded (default 0)")
    pc.add_argument("--b", type=_non_negative_int, default=None, help="column bound for --predicate bounded (default 0)")
    _output_options(pc)


@_command(
    ("classify",),
    _classify_arguments,
    help="evaluate a classification predicate on one partition",
    description=(
        "Evaluate one predicate on one partition: membership tests for factors "
        "of truncated/full symmetric-power products (1special, 2special, "
        "21special, standard/2good), digit-chain roles (beginning, middle, end, "
        "primitive), three-row criticality, divisibility index and first-kernel "
        "injectivity, and the two Specht-module corollaries."
    ),
)
def _classify(args) -> dict:
    lam = _parse_partition(args.partition)
    if args.n is not None and len(lam) > args.n:
        raise SchurkitError(f"partition {args.partition} has more than --n {args.n} parts")
    if args.predicate != "bounded" and (stray := [f"--{f}" for f in ("a", "b") if getattr(args, f) is not None]):
        raise SchurkitError(f"--predicate {args.predicate} takes no {', '.join(stray)}")
    value, witness = PREDICATES[args.predicate](lam, args.p, args.a or 0, args.b or 0)
    doc = {"partition": list(lam), "p": args.p, "predicate": args.predicate, "value": value}
    if witness is not None:
        doc["witness"] = witness
    return doc


def _parse_arguments(pp) -> None:
    pp.add_argument("partition")
    pp.add_argument("--p", type=_prime, required=True)
    _output_options(pp)


@_command(
    ("parse",),
    _parse_arguments,
    help="decompose a partition into shifted primitive blocks",
    description=(
        "Write the partition as a chain of shifted primitive partitions (the "
        "standard form); a partition admits such a chain exactly when it labels "
        "a factor of the twofold symmetric power, and the chain is unique."
    ),
)
def _parse(args) -> dict:
    lam = _parse_partition(args.partition)
    parses = cls.standard_parses(lam, args.p)
    return {
        "partition": list(lam),
        "p": args.p,
        "standard": bool(parses),
        "blocks": _blocks(parses[0]) if parses else None,
    }


def _chars_arguments(cd) -> None:
    cd.add_argument("--n", type=_positive_int, required=True)
    cd.add_argument("--expr", required=True)
    _output_options(cd)


@_command(
    ("chars", "decompose"),
    _chars_arguments,
    help="decompose a product of character atoms into Schur characters",
    description="Atoms: h<r>, e<r>, sbar<r>@<p>, s[...]; operator * only.",
)
def _chars(args) -> dict:
    try:
        chi = char_from_expr(args.expr, args.n)
    except ValueError as exc:
        raise SchurkitError(str(exc)) from exc
    return {"schur": {_pkey(lam): c for lam, c in sorted(decompose_schur(chi).items(), reverse=True)}}


# the factor kinds and families as the help lists them, read from their tables
_KINDS_HELP = ", ".join(f"{kind} ({power} power)" for kind, (power, _) in KINDS.items())
_FAMILIES_HELP = ", ".join(f"{name} ({' x '.join(kinds)})" for name, kinds in FAMILIES.items())


def _oracle_arguments(of) -> None:
    of.add_argument("--p", type=_prime, required=True)
    of.add_argument("--n", type=_positive_int, required=True)
    of.add_argument("--spec", required=True, help=f'Kind:degree list, Kind one of {", ".join(KINDS)}; e.g. "S:4,Sbar:2"')
    _table_options(of, cache_help="cache directory (or SCHURKIT_CACHE)")


@_command(
    ("oracle", "factors"),
    _oracle_arguments,
    help="composition factors of a product of powers",
    description=(
        "Decompose a product of powers such as S:4,S:3 into simple characters "
        "computed from contravariant-form Gram ranks, with a dimension audit. "
        f"Kinds: {_KINDS_HELP}."
    ),
)
def _oracle(args) -> dict:
    spec = []
    for item in args.spec.split(","):
        kind, _, r = item.strip().partition(":")
        if kind not in KINDS or not r.isdecimal():
            raise SchurkitError(f"bad factor spec {item!r}; expected Kind:degree")
        spec.append((kind, int(r)))
    with SimpleTable(args.p, args.n, **_table_keywords(args)) as table:  # persists also after a budget trip
        chi = product_char(spec, table.p, table.n)
        factors = decompose_simples(chi, table)
        return {
            "factors": {_pkey(lam): m for lam, m in sorted(factors.items(), reverse=True)},
            "dimCheck": factor_dimensions_check(factors, chi, table),
        }


def _enumerate_arguments(en) -> None:
    en.add_argument("--family", required=True, choices=FAMILIES)
    en.add_argument("--p", type=_prime, required=True)
    en.add_argument("--n", type=_positive_int, required=True)
    en.add_argument("--degree", type=_non_negative_int, required=True)
    _table_options(en)


@_command(
    ("enumerate",),
    _enumerate_arguments,
    help="all factor labels of a family at one degree",
    description=(
        "Composition factors of a family's product in one degree, the union "
        f"over its degree splits: {_FAMILIES_HELP}, with the kinds {_KINDS_HELP}."
    ),
)
def _enumerate(args) -> dict:
    with SimpleTable(args.p, args.n, **_table_keywords(args)) as table:
        labels = enumerate_factors(args.family, args.degree, table)
    return {
        "family": args.family,
        "p": args.p,
        "n": args.n,
        "degree": args.degree,
        "factors": [list(lam) for lam in sorted(labels, reverse=True)],
    }


def _verify_arguments(ve) -> None:
    ve.add_argument("--suite", choices=sorted(verify.SUITES), default=None)
    ve.add_argument("--tier", choices=("fast", "extended"), default=None)
    ve.add_argument("--p", type=_prime, default=None)
    ve.add_argument("--n", type=_positive_int, default=None)
    ve.add_argument("--rmax", "--degree", dest="rmax", type=_non_negative_int, default=None)
    ve.add_argument("--bound", type=_non_negative_int, default=None, help="degree bound for the combinatorial suite")
    _table_options(ve)


def _verify_grid(args) -> dict:
    """The grid `verify` runs: its tier's, or one config of --suite.

    A suite takes the flags named after its function's parameters, and
    --budget and --cache when one of them is `table`; a parameter without a
    default needs its flag.  A tier takes --budget and --cache.  Any other
    flag given, or a needed flag missing, raises SchurkitError naming them."""
    values = vars(args)
    given = [name for name, value in values.items() if value is not None and name not in ("command", "format", "out")]
    if args.tier is not None:
        params, takes, rejects = {}, {"tier", "cache", "budget"}, "--tier runs a fixed grid and takes no"
    elif args.suite is not None:
        params = inspect.signature(verify.SUITES[args.suite]).parameters
        takes = {"suite", *params, *(("cache", "budget") if "table" in params else ())}
        rejects = f"suite {args.suite} takes no"
    else:
        raise SchurkitError("verify needs --suite or --tier")
    if stray := [f"--{name}" for name in given if name not in takes]:
        raise SchurkitError(f"{rejects} {', '.join(stray)}")
    needed = [name for name, param in params.items() if param.default is param.empty and name != "table"]
    if missing := [f"--{name}" for name in needed if name not in given]:
        raise SchurkitError(f"suite {args.suite} needs {', '.join(missing)}")
    if args.tier is not None:
        return verify.FAST_TIER if args.tier == "fast" else verify.EXTENDED_TIER
    return {args.suite: [tuple(values[name] for name in params if name in given)]}


@_command(
    ("verify",),
    _verify_arguments,
    help="run a theorem suite against the oracle",
    description=(
        "Suites: thm-2good (factors of the twofold symmetric power are the "
        "standard partitions), thm-21special (factors of truncated x truncated "
        "x exterior are the mu + omega_s partitions), 1special (truncated-power "
        "baseline), combinatorial (structural identities), oracle-self "
        "(internal audits).  Exit code 0 iff every report passes."
    ),
)
def _verify(args) -> dict:
    reports = verify.run(_verify_grid(args), **_table_keywords(args))
    if len(reports) == 1:
        return reports[0].to_dict()
    return {
        "reports": [r.to_dict() for r in reports],
        "verdict": "pass" if all(r.verdict for r in reports) else "fail",
    }


def build_parser() -> argparse.ArgumentParser:
    """The schurkit argument parser, with every command; a two-word command is
    a command of its group's parser."""
    ap = argparse.ArgumentParser(
        prog="schurkit",
        description=(
            "Classify highest weights of composition factors of tensor products of "
            "symmetric powers in characteristic p, and verify the classification "
            "against a brute-force modular character oracle."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (help, parser_kwargs, add_arguments, _) in COMMANDS.items():
        actions = sub
        if len(path) == 2:
            group = path[0]
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest=f"{group}_command", required=True
                )
            actions = groups[group]
        add_arguments(actions.add_parser(path[-1], help=help, **parser_kwargs))
    return ap


def _parse_request(argv) -> tuple:
    """The COMMANDS key that argv names and its arguments, the Namespace of
    build_parser().parse_args(argv).

    A request that names a command is parsed by a parser of that command
    alone.  Any other request, and one with arguments left over, is parsed
    by the full parser, which prints its help or its error and exits."""
    path = tuple(argv[:2]) if tuple(argv[:2]) in COMMANDS else tuple(argv[:1])
    if path in COMMANDS:
        _, parser_kwargs, add_arguments, _ = COMMANDS[path]
        parser = argparse.ArgumentParser(prog="schurkit " + " ".join(path), **parser_kwargs)
        add_arguments(parser)
        args, rest = parser.parse_known_args(argv[len(path) :])
        if not rest:
            args.command = path[0]
            if len(path) == 2:
                setattr(args, f"{path[0]}_command", path[1])
            return path, args
    args = build_parser().parse_args(argv)
    word = getattr(args, f"{args.command}_command", None)
    return (args.command,) if word is None else (args.command, word), args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path, args = _parse_request(argv)
    try:
        doc = COMMANDS[path][3](args)
        _emit(doc, args)
    except ResourceBudgetExceeded as exc:
        print(f"schurkit: resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (SchurkitError, OSError) as exc:  # OSError: an --out or --cache path that cannot be used
        print(f"schurkit: {exc}", file=sys.stderr)
        return 2
    return 1 if doc.get("verdict") == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
