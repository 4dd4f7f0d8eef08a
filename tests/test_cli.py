import argparse
import inspect
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from schurkit import cli, oracle, verify
from schurkit.cli import COMMANDS, PRIME_LIMIT, _parse_request, build_parser, main
from schurkit.oracle import SimpleTable

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_standard_with_witness(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "3", "[7,4,3]", "--predicate", "standard")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "partition": [7, 4, 3],
        "p": 3,
        "predicate": "standard",
        "value": True,
        "witness": {"blocks": [{"primitive": [7, 4, 3], "index": 1, "shift": 0}]},
    }


def test_classify_21special_witness(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "[4,3,1]", "--predicate", "21special")
    doc = json.loads(out)
    assert code == 0 and doc["value"] is True
    assert "mu" in doc["witness"] and "s" in doc["witness"]


def test_classify_bounded_needs_a_b(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--p", "3", "[4,1,1,1]", "--predicate", "bounded", "--a", "1", "--b", "1"
    )
    assert code == 0 and json.loads(out)["value"] is True


def test_classify_parse_error_exits_2(capsys):
    for text in ("[3,1,2]", '["a"]', "[null]", "[[1]]", "[1e400]", "[NaN]", "[true]", "[3,false]"):
        code, out, err = run_cli(capsys, "classify", "--p", "5", text, "--predicate", "standard")
        assert code == 2
        assert out == ""
        assert text in err


def test_classify_divind(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "[2,2,2]", "--predicate", "divind")
    assert code == 0 and json.loads(out)["value"] == 2


PARTITIONS = ["[7,4,3]", "[2,2,2]", "[4,3,1]", "[5,2]", "[2,1,1,1]", "[]"]
STANDARD = [
    [True, {"blocks": [{"primitive": [7, 4, 3], "index": 1, "shift": 0}]}],
    [True, {"blocks": [{"primitive": [2, 2, 2], "index": 0, "shift": 0}]}],
    [True, {"blocks": [{"primitive": [4, 3, 1], "index": 0, "shift": 0}]}],
    [True, {"blocks": [{"primitive": [2, 2], "index": 0, "shift": 0}, {"primitive": [1], "index": 0, "shift": 1}]}],
    False,
    [True, {"blocks": []}],
]
# classify --p 3 (and --a 1 --b 2 for bounded) on each of PARTITIONS: the value,
# [value, witness] when there is a witness, or the exit code of a rejected request
CLASSIFIED = {
    "restricted": [False, True, True, False, True, True],
    "bounded": [False, True, False, True, True, True],
    "1special": [False, True, False, False, False, True],
    "2special": [False, True, True, False, False, True],
    "21special": [
        False,
        [True, {"mu": [2, 2, 2], "s": 0}],
        [True, {"mu": [4, 3, 1], "s": 0}],
        [True, {"mu": [4, 2], "s": 1}],
        [True, {"mu": [1, 1, 1, 1], "s": 1}],
        [True, {"mu": [], "s": 0}],
    ],
    "beginning": [False, False, False, False, False, True],
    "middle": [False, True, False, False, True, False],
    "end": [False, False, False, False, True, False],
    "primitive": [1, 0, 0, None, None, 0],
    "standard": STANDARD,
    "2good": STANDARD,
    "critical": STANDARD[:4] + ["exit 2"] + STANDARD[5:],
    "g1inj": [True, False, True, False, "exit 2", False],
    "divind": [0, 0, 0, 0, "exit 2", 0],
    "spechtLower": ["exit 2", True, True, "exit 2", True, True],
    "spechtUpper": [True, "exit 2", True, True, "exit 2", True],
}


def test_every_predicate_classifies_as_before(capsys):
    assert list(CLASSIFIED) == list(cli.PREDICATES)  # and so the help order
    for predicate, expected in CLASSIFIED.items():
        got = []
        bounds = ["--a", "1", "--b", "2"] if predicate == "bounded" else []
        for lam in PARTITIONS:
            code, out, _ = run_cli(capsys, "classify", lam, "--p", "3", "--predicate", predicate, *bounds)
            if code:
                got.append(f"exit {code}")
                continue
            doc = json.loads(out)
            assert doc["partition"] == json.loads(lam) and doc["p"] == 3 and doc["predicate"] == predicate
            got.append([doc["value"], doc["witness"]] if "witness" in doc else doc["value"])
        assert got == expected, predicate


def test_three_row_predicates_reject_a_fourth_row_alike(capsys):
    errors = set()
    for predicate in ("critical", "divind", "g1inj"):
        code, out, err = run_cli(capsys, "classify", "[5,4,3,1]", "--p", "3", "--predicate", predicate)
        assert code == 2 and out == "" and "more than 3 parts" in err, predicate
        errors.add(err)
    assert len(errors) == 1


def test_bounds_need_the_bounded_predicate(capsys):
    for flags, named in ((["--a", "7", "--b", "9"], "--a, --b"), (["--a", "0"], "--a"), (["--b", "1"], "--b")):
        code, out, err = run_cli(capsys, "classify", "[2,1]", "--p", "3", "--predicate", "2special", *flags)
        assert code == 2 and out == "" and f"--predicate 2special takes no {named}" in err
    # bounded reads an omitted bound as 0
    assert json.loads(run_cli(capsys, "classify", "[2,1]", "--p", "3", "--predicate", "bounded", "--b", "2")[1])["value"]
    assert not json.loads(run_cli(capsys, "classify", "[2,1]", "--p", "3", "--predicate", "bounded")[1])["value"]


def test_parse_subcommand(capsys):
    code, out, _ = run_cli(capsys, "parse", "--p", "2", "[2]")
    doc = json.loads(out)
    assert code == 0
    assert doc["standard"] is True
    assert doc["blocks"] == [
        {"primitive": [], "index": 0, "shift": 0},
        {"primitive": [1], "index": 0, "shift": 1},
    ]
    code, out, _ = run_cli(capsys, "parse", "--p", "5", "[2,2,2]")
    doc = json.loads(out)
    assert doc["standard"] is False and doc["blocks"] is None


def test_chars_decompose(capsys):
    code, out, _ = run_cli(capsys, "chars", "decompose", "--n", "3", "--expr", "h2*h1")
    assert code == 0
    assert json.loads(out) == {"schur": {"[3]": 1, "[2,1]": 1}}
    code, out, _ = run_cli(capsys, "chars", "decompose", "--n", "3", "--expr", "sbar3@2")
    assert code == 0 and json.loads(out) == {"schur": {"[1,1,1]": 1}}


def test_chars_bad_expr(capsys):
    code, _, err = run_cli(capsys, "chars", "decompose", "--n", "3", "--expr", "zz*h1")
    assert code == 2 and "zz" in err


@pytest.mark.parametrize(
    "expr, atom",
    [
        ("sbar3@4", "sbar3@4"),
        ("sbar3@0", "sbar3@0"),
        ("h1*sbar2@1", "sbar2@1"),
        ("sbar2@9*h1", "sbar2@9"),
        (f"sbar3@{PRIME_LIMIT}", f"sbar3@{PRIME_LIMIT}"),
    ],
)
def test_chars_truncated_power_needs_a_prime(expr, atom, capsys):
    code, out, err = run_cli(capsys, "chars", "decompose", "--n", "3", "--expr", expr)
    assert code == 2 and out == ""
    assert f"'{atom}'" in err and "not a prime" in err


def test_oracle_factors(capsys):
    code, out, _ = run_cli(capsys, "oracle", "factors", "--p", "2", "--n", "3", "--spec", "S:3")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"factors": {"[3]": 1, "[1,1,1]": 1}, "dimCheck": True}


def test_oracle_bad_spec(capsys):
    # "²" is a digit to str.isdigit but not to int()
    for item in ("Q:3", "S:²"):
        code, _, err = run_cli(capsys, "oracle", "factors", "--p", "2", "--n", "3", "--spec", item)
        assert code == 2 and item in err


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "SS", "--p", "2", "--n", "3", "--degree", "3")
    assert code == 0
    assert json.loads(out) == {
        "family": "SS",
        "p": 2,
        "n": 3,
        "degree": 3,
        "factors": [[3], [2, 1], [1, 1, 1]],
    }


def test_output_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "--family", "Sbar", "--p", "3", "--n", "2", "--degree", "4")
    _, out2, _ = run_cli(capsys, "enumerate", "--family", "Sbar", "--p", "3", "--n", "2", "--degree", "4")
    assert out1 == out2


def test_verify_suite_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "1special", "--p", "3", "--n", "2", "--rmax", "6",
        "--out", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "pass"
    assert json.loads(out) == doc


def test_failing_suite_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verify, "is_1special", lambda lam, p: not lam)
    code, out, _ = run_cli(capsys, "verify", "--suite", "1special", "--p", "3", "--n", "2", "--rmax", "4")
    doc = json.loads(out)
    assert code == 1 and doc["suite"] == "1special" and doc["verdict"] == "fail"
    monkeypatch.setattr(verify, "FAST_TIER", {"1special": [(3, 2, 4)], "combinatorial": [(2, 4)]})
    code, out, _ = run_cli(capsys, "verify", "--tier", "fast")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "fail"
    assert [r["verdict"] for r in doc["reports"]] == ["fail", "pass"]


def test_verify_combinatorial_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorial", "--p", "3", "--bound", "8")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_combinatorial_bound_defaults_to_30(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_COMBINATORIAL_CHECKS", {})
    code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorial", "--p", "2")
    assert code == 0 and json.loads(out)["params"] == {"p": 2, "bound": 30}


def test_verify_missing_args(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "thm-2good", "--p", "3")
    assert code == 2 and "rmax" in err


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "1special", "--p", "2", "--n", "2", "--rmax", "4",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "suite,degree,partition,in_theorem_set,in_oracle_set"


def test_cache_roundtrip(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    run_cli(capsys, "oracle", "factors", "--p", "2", "--n", "2", "--spec", "S:4", "--cache", str(cache))
    path = cache / "simple_p2_n2.jsonl"
    assert path.exists()
    before = path.read_text()
    # a second run via the env var serves from the same cache and leaves it as it was
    monkeypatch.setenv("SCHURKIT_CACHE", str(cache))
    code, out, _ = run_cli(capsys, "oracle", "factors", "--p", "2", "--n", "2", "--spec", "S:4")
    assert code == 0
    assert path.read_text() == before


def test_cache_hit_does_not_rewrite(tmp_path, capsys, monkeypatch):
    argv = ("oracle", "factors", "--p", "2", "--n", "2", "--spec", "S:4", "--cache", str(tmp_path))
    assert run_cli(capsys, *argv)[0] == 0
    saves = []
    monkeypatch.setattr(SimpleTable, "save", lambda self, path: saves.append(path))
    assert run_cli(capsys, *argv)[0] == 0
    assert saves == []


def test_verify_suite_uses_cache(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "1special", "--p", "3", "--n", "2", "--rmax", "4", "--cache", str(tmp_path)
    )
    assert code == 0
    assert [f.name for f in tmp_path.iterdir()] == ["simple_p3_n2.jsonl"]


def test_verify_tier_honours_budget(capsys):
    # lambda = (2,1) at p=2, n=3, in the fast tier's first n=3 table, needs 8
    code, out, err = run_cli(capsys, "verify", "--tier", "fast", "--budget", "5")
    assert code == 3
    assert out == "" and "budget" in err


def test_verify_tier_writes_one_cache_file_per_table(tmp_path, capsys, monkeypatch):
    grid = {
        "thm-2good": [(2, 2, 4), (3, 2, 4)],
        "1special": [(2, 2, 4), (3, 1, 4)],
        "combinatorial": [(3, 6)],
        "oracle-self": [(2, 2, 4)],
    }
    monkeypatch.setattr(verify, "FAST_TIER", grid)
    code, out, _ = run_cli(capsys, "verify", "--tier", "fast", "--cache", str(tmp_path))
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    names = sorted(f.name for f in tmp_path.iterdir())
    # oracle-self's stability check at (2, 2) reads the table of (2, 3)
    assert names == ["simple_p2_n2.jsonl", "simple_p2_n3.jsonl", "simple_p3_n1.jsonl", "simple_p3_n2.jsonl"]


def test_verify_tier_rejects_the_flags_it_would_ignore(capsys, monkeypatch):
    # a tier runs its own grid of suites, primes, variable counts and degrees
    monkeypatch.setattr(verify, "FAST_TIER", {"combinatorial": [(2, 4)]})
    code, out, err = run_cli(capsys, "verify", "--tier", "fast", "--suite", "thm-2good")
    assert code == 2 and out == "" and "--suite" in err
    code, out, err = run_cli(capsys, "verify", "--tier", "fast", "--p", "3", "--n", "3", "--rmax", "4")
    assert code == 2 and out == "" and "takes no --p, --n, --rmax" in err
    assert run_cli(capsys, "verify", "--tier", "fast")[0] == 0


# the flags of `verify` that select what runs; --format and --out apply to any report
VERIFY_FLAGS = [name for name in vars(build_parser().parse_args(["verify"])) if name not in ("command", "format", "out")]


def _suite_flags(suite):
    """The flags a suite takes, and those it needs, from its function's parameters."""
    params = inspect.signature(verify.SUITES[suite]).parameters
    takes = {"suite", *params, *(("cache", "budget") if "table" in params else ())}
    needs = [name for name, param in params.items() if param.default is param.empty and name != "table"]
    return takes, needs


def _flag_value(flag, tmp_path):
    # small values, so that a suite that wrongly ran would still end quickly
    return {"suite": "combinatorial", "tier": "fast", "cache": str(tmp_path)}.get(flag, "2")


@pytest.mark.parametrize(
    "suite, flag",
    [(suite, flag) for suite in sorted(verify.SUITES) for flag in VERIFY_FLAGS if flag not in _suite_flags(suite)[0]],
)
def test_verify_suite_rejects_a_flag_it_does_not_take(suite, flag, tmp_path, capsys):
    needs = [x for name in _suite_flags(suite)[1] for x in (f"--{name}", _flag_value(name, tmp_path))]
    code, out, err = run_cli(capsys, "verify", "--suite", suite, *needs, f"--{flag}", _flag_value(flag, tmp_path))
    assert code == 2 and out == ""
    assert f"--{flag}" in err


@pytest.mark.parametrize(
    "suite, flag", [(suite, flag) for suite in sorted(verify.SUITES) for flag in _suite_flags(suite)[1]]
)
def test_verify_suite_needs_its_parameters(suite, flag, tmp_path, capsys):
    others = [x for name in _suite_flags(suite)[1] if name != flag for x in (f"--{name}", _flag_value(name, tmp_path))]
    code, out, err = run_cli(capsys, "verify", "--suite", suite, *others)
    assert code == 2 and out == ""
    assert f"--{flag}" in err


@pytest.mark.parametrize("flag", [flag for flag in VERIFY_FLAGS if flag not in ("tier", "cache", "budget")])
def test_verify_tier_rejects_a_flag_it_does_not_take(flag, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify, "FAST_TIER", {"combinatorial": [(2, 4)]})
    code, out, err = run_cli(capsys, "verify", "--tier", "fast", f"--{flag}", _flag_value(flag, tmp_path))
    assert code == 2 and out == ""
    assert f"--{flag}" in err


def test_oracle_self_stability_table_is_cached(tmp_path, capsys):
    argv = ("verify", "--suite", "oracle-self", "--p", "2", "--n", "2", "--rmax", "8", "--cache", str(tmp_path))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # the n=2 table alone misses 25 characters
    assert json.loads(out)["oracleStats"]["cacheMisses"] > 25
    assert sorted(f.name for f in tmp_path.iterdir()) == ["simple_p2_n2.jsonl", "simple_p2_n3.jsonl"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["oracleStats"]["cacheMisses"] == 0


def test_oracle_factors_builds_the_product_once(capsys, monkeypatch):
    calls = []
    real = oracle.product_char

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "product_char", counted)
    monkeypatch.setattr(cli, "product_char", counted)
    code, out, _ = run_cli(capsys, "oracle", "factors", "--p", "3", "--n", "3", "--spec", "S:4,S:3")
    assert code == 0 and json.loads(out)["dimCheck"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("argv, table", [(["enumerate"], oracle.FAMILIES), (["oracle", "factors"], oracle.KINDS)])
def test_help_lists_every_kind_and_family(argv, table, capsys):
    # the description, not the usage line, where --family lists its choices anyway
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["-h"])
    description = " ".join(capsys.readouterr().out.split("\n\n")[1].split())
    for key in table:
        assert re.search(rf"\b{key}\b", description), key


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--family", "SS", "--p", "2", "--n", "3", "--degree", "3", "--threads", "2"])
    assert exc.value.code == 2


def _readme_examples():
    """The `schurkit` lines of the README's command-line block, each as an argv
    with the output its `# {...}` comment shows, or None."""
    text = README.read_text()
    section = text[text.index("## Command line") :]
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("schurkit "):
            comments = []
            for follow in lines[i + 1 :]:
                if not follow.startswith("# "):
                    break
                comments.append(follow[1:].strip())
            shown = "".join(comments) if comments and comments[0].startswith("{") else None
            examples.append((shlex.split(line, comments=True)[1:], shown))
    return examples


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    examples = _readme_examples()
    assert len(examples) >= 8 and sum(shown is not None for _, shown in examples) >= 3
    monkeypatch.chdir(tmp_path)  # a line writes report.json
    monkeypatch.delenv("SCHURKIT_CACHE", raising=False)
    for argv, shown in examples:
        if "--tier" in argv:  # the whole battery, run by the verify tests and CI
            continue
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if shown is not None:
            assert out == shown + "\n", argv


@pytest.mark.parametrize(
    "argv, path",
    [
        (["chars", "decompose", "--n", "3", "--expr", "h1", "--out", "missing/x.json"], "missing/x.json"),
        (["chars", "decompose", "--n", "3", "--expr", "h1", "--out", "."], "."),
        (["oracle", "factors", "--p", "2", "--n", "2", "--spec", "S:3", "--cache", "file"], "file"),
        (["verify", "--suite", "thm-2good", "--p", "2", "--n", "2", "--rmax", "3", "--out", "missing/r.json"], "missing/r.json"),
    ],
    ids=["out-missing-dir", "out-directory", "cache-regular-file", "verify-out-missing-dir"],
)
def test_unusable_path_exits_2(argv, path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and repr(path) in err


def test_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "factors", "--p", "2", "--n", "3", "--spec", "S:8", "--budget", "5"
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_must_be_positive(budget):
    for argv in (
        ["oracle", "factors", "--p", "2", "--n", "3", "--spec", "S:8"],
        ["enumerate", "--family", "SS", "--p", "2", "--n", "3", "--degree", "3"],
        ["verify", "--suite", "thm-2good", "--p", "2", "--n", "2", "--rmax", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", budget])
        assert exc.value.code == 2


# 998244359987710471 = 1000000007 * 998244353; the last is a strong
# pseudoprime to the twelve prime bases 2..37
@pytest.mark.parametrize("p", ["1", "4", "6", "998244359987710471", "318665857834031151167461"])
def test_p_must_be_prime(p, capsys):
    for argv in (
        ["oracle", "factors", "--n", "2", "--spec", "S:4,S:2"],
        ["enumerate", "--family", "SS", "--n", "3", "--degree", "3"],
        ["parse", "[3,1]"],
        ["classify", "[3,1]", "--predicate", "standard"],
        ["verify", "--suite", "thm-2good", "--n", "2", "--rmax", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--p", p])
        assert exc.value.code == 2
        assert "not a prime" in capsys.readouterr().err


def test_large_primes_are_tested_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "classify", "[3,1]", "--p", str(2**61 - 1), "--predicate", "standard")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["p"] == 2**61 - 1
    with pytest.raises(SystemExit) as exc:
        main(["classify", "[3,1]", "--p", str(PRIME_LIMIT), "--predicate", "standard"])
    assert exc.value.code == 2
    assert "too large" in capsys.readouterr().err


# each subcommand with valid counts; the test swaps one count for a bad value
COUNTED = {
    "chars": (["chars", "decompose", "--expr", "h2*h1"], {"--n": "3"}),
    "oracle": (["oracle", "factors", "--p", "2", "--spec", "S:2"], {"--n": "3"}),
    "enumerate": (["enumerate", "--family", "SS", "--p", "2"], {"--n": "3", "--degree": "3"}),
    "verify": (["verify", "--suite", "thm-2good", "--p", "2"], {"--n": "3", "--rmax": "3"}),
    "verify-combinatorial": (["verify", "--suite", "combinatorial", "--p", "2"], {"--bound": "3"}),
    "classify": (["classify", "[3,1]", "--p", "2", "--predicate", "bounded"], {"--n": "3", "--a": "1", "--b": "1"}),
}
BAD_COUNTS = {
    "--n": (("0", "-1"), "must be positive", "1"),
    "--rmax": (("-1",), "must be non-negative", "0"),
    "--degree": (("-2",), "must be non-negative", "0"),
    "--bound": (("-1",), "must be non-negative", "0"),
    "--a": (("-1",), "must be non-negative", "0"),
    "--b": (("-1",), "must be non-negative", "0"),
}


@pytest.mark.parametrize("command", sorted(COUNTED))
def test_counts_that_check_nothing_are_rejected(command, capsys):
    base, counts = COUNTED[command]
    for flag in counts:
        others = [x for f, v in counts.items() if f != flag for x in (f, v)]
        bad_values, message, least = BAD_COUNTS[flag]
        for value in bad_values:
            with pytest.raises(SystemExit) as exc:
                main(base + others + [flag, value])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        # the smallest allowed value parses
        assert getattr(build_parser().parse_args(base + others + [flag, least]), flag[2:]) == int(least)


def test_budget_trip_keeps_computed_characters(tmp_path, capsys, monkeypatch):
    # every lambda of degree at most 5 needs at most 8; (4,2) needs 18
    argv = ("verify", "--suite", "thm-2good", "--p", "2", "--n", "3", "--budget", "8")
    small, big = tmp_path / "small", tmp_path / "big"
    assert run_cli(capsys, *argv, "--rmax", "5", "--cache", str(small))[0] == 0
    assert run_cli(capsys, *argv, "--rmax", "8", "--cache", str(big))[0] == 3
    name = "simple_p2_n3.jsonl"
    kept = (big / name).read_text().splitlines()
    assert set((small / name).read_text().splitlines()) <= set(kept)

    saves = []
    monkeypatch.setattr(SimpleTable, "save", lambda self, path: saves.append(path))
    # the rerun trips at the same character and has nothing new to save
    assert run_cli(capsys, *argv, "--rmax", "8", "--cache", str(big))[0] == 3
    assert saves == []


def test_tier_budget_trip_keeps_computed_characters(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify, "FAST_TIER", {"thm-2good": [(2, 3, 8)]})
    code, _, _ = run_cli(capsys, "verify", "--tier", "fast", "--budget", "8", "--cache", str(tmp_path))
    assert code == 3
    assert len((tmp_path / "simple_p2_n3.jsonl").read_text().splitlines()) >= 16  # the --rmax 5 characters


def test_pretty_format(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--p", "3", "[2,1]", "--predicate", "2special", "--format", "pretty"
    )
    assert code == 0
    assert json.loads(out)["value"] is True
    assert "\n" in out.strip()  # indented


@pytest.mark.parametrize(
    "corrupt, line",
    [
        (lambda text: text[:60], 2),  # truncated inside the second record
        (lambda text: text + "not json\n", 4),
        (lambda text: text + '{"lambda":[1,1,1],"char":{"[1,1,1]":1}}\n', 4),  # more than n parts
        (lambda text: text.replace('"[4]":1', '"[4]":"1"'), 3),
        (lambda text: text.replace('"[4]":1', '"[4]":7'), 3),
        (lambda text: text.replace('"[4]":1', '"[4]":1,"[2,2]":0'), 3),
        (lambda text: text.replace('"[3,1]":1}', '"[3,1]":2,"[3,1]":1}'), 2),
        (lambda text: text.replace('"[3,1]":1}', '"[3,1,0]":2,"[3,1]":1}'), 2),
        (lambda text: text.replace('"[4]":1', '"[4]":1,"[1e400]":1'), 3),
        (lambda text: text.replace('"lambda":[3,1]', '"lambda":[3,true]'), 2),
        (lambda text: text.replace('"[3,1]":1}', '"[3,true]":1}'), 2),
    ],
    ids=[
        "truncated",
        "not-json",
        "too-many-parts",
        "string-coefficient",
        "top-coefficient",
        "zero-coefficient",
        "duplicate-key",
        "duplicate-weight",
        "infinite-part",
        "bool-in-lambda",
        "bool-in-weight",
    ],
)
def test_bad_cache_record_exits_2(corrupt, line, tmp_path, capsys):
    argv = ("oracle", "factors", "--p", "2", "--n", "2", "--spec", "S:4", "--cache", str(tmp_path))
    assert run_cli(capsys, *argv)[0] == 0
    path = tmp_path / "simple_p2_n2.jsonl"
    assert len(path.read_text().splitlines()) == 3
    path.write_text(corrupt(path.read_text()))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{path}, line {line}:" in err


PARSER_CORPUS = (
    [argv for argv, _ in _readme_examples()]
    + [[word, "-h"] for word in dict.fromkeys(path[0] for path in COMMANDS)]
    + [
        ["chars", "decompose", "-h"],
        ["oracle", "factors", "-h"],
        ["chars"],
        ["chars", "decompose", "--n", "3", "--expr", "h1", "extra"],
        ["enumerate", "--family", "XX", "--p", "2", "--n", "3", "--degree", "3"],
        ["oracle", "factors", "--p", "4", "--n", "3", "--spec", "S:3"],
        [],
        ["-h"],
        ["nosuch"],
        ["oracle", "nosuch"],
        ["classify", "[2]", "--p", "2", "--predicate", "2good", "--bogus"],
        ["enumerate", "--family", "SS"],
        ["classify", "--p=3", "[2,1]", "--pred", "2special"],
        ["--", "parse", "--p", "2", "[2]"],
    ]
)


def _parse_outcome(parse, argv, capsys):
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_one_command_parser_agrees_with_full_parser(argv, capsys):
    # the same Namespace, or the same exit code and the same text
    main_route = _parse_outcome(lambda argv: _parse_request(argv)[1], argv, capsys)
    assert main_route == _parse_outcome(build_parser().parse_args, argv, capsys)


# a well-formed request for each command
REQUESTS = {
    ("classify",): ["classify", "[2,1]", "--p", "3", "--predicate", "2special"],
    ("parse",): ["parse", "--p", "2", "[2]"],
    ("chars", "decompose"): ["chars", "decompose", "--n", "3", "--expr", "h2*h1"],
    ("oracle", "factors"): ["oracle", "factors", "--p", "2", "--n", "2", "--spec", "S:2"],
    ("enumerate",): ["enumerate", "--family", "SS", "--p", "2", "--n", "2", "--degree", "2"],
    ("verify",): ["verify", "--suite", "combinatorial", "--p", "2", "--bound", "3"],
}


def test_every_command_has_a_request():
    assert list(REQUESTS) == list(COMMANDS)


@pytest.mark.parametrize("path", list(REQUESTS), ids=" ".join)
def test_a_request_builds_one_parser(path, capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out, _ = run_cli(capsys, *REQUESTS[path])
    assert code == 0 and json.loads(out)
    assert built == ["schurkit " + " ".join(path)]


def test_python_m_schurkit():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "schurkit", "chars", "decompose", "--n", "3", "--expr", "h2*h1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == '{"schur":{"[3]":1,"[2,1]":1}}\n'


def _capped(argv):
    """schurkit run on argv in a child process under a 1 GiB address-space
    cap, where a size taken from the degree or from n would hang or fail to
    allocate."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "schurkit", *argv], capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap
    )


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ["chars", "decompose", "--n", "1", "--expr", f"h{HUGE}"],
        ["chars", "decompose", "--n", "1", "--expr", f"s[{HUGE}]"],
        ["chars", "decompose", "--n", "3", "--expr", f"h{HUGE}"],
        ["chars", "decompose", "--n", "3", "--expr", f"s[{HUGE}]"],
        ["oracle", "factors", "--p", "2", "--n", "3", "--spec", f"S:{HUGE}"],
        ["oracle", "factors", "--p", "2", "--n", "1", "--spec", f"S:{HUGE}"],
        ["enumerate", "--family", "Sbar", "--p", "2", "--n", "3", "--degree", "100000000"],
        ["enumerate", "--family", "Sbar", "--p", "2", "--n", "3", "--degree", HUGE],
        ["verify", "--suite", "1special", "--p", "2", "--n", "3", "--rmax", HUGE],
    ],
)
def test_huge_degrees_answer_or_exceed_the_budget(argv):
    result = _capped(argv)
    if result.returncode == 3:
        assert result.stdout == "" and result.stderr.count("\n") == 1
        assert result.stderr.startswith("schurkit: resource budget exceeded: ")
    else:
        assert result.returncode == 0 and result.stderr == "", result.stderr
        doc = json.loads(result.stdout)
        if argv[0] == "enumerate":
            assert '"factors":[]' in result.stdout
        else:
            assert doc == {"schur": {f"[{HUGE}]": 1}}


@pytest.mark.parametrize(
    "command, large, small",
    [
        ("oracle factors --p 2 --n {} --spec S:2", 20, 2),
        ("enumerate --family SS --p 2 --n {} --degree 3", 24, 3),
        ("chars decompose --n {} --expr h3*e2", 1000000, 5),
    ],
)
def test_n_above_the_degree_answers_as_the_degree_does(command, large, small):
    # above the degree, n changes no multiplicity: only enumerate echoes n
    docs = []
    for n in (large, small):
        result = _capped(command.format(n).split())
        assert result.returncode == 0 and result.stderr == "", result.stderr
        doc = json.loads(result.stdout)
        doc.pop("n", None)
        docs.append(doc)
    assert docs[0] == docs[1]
