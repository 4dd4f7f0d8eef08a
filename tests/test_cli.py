import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from schurkit import verify
from schurkit.cli import COMMANDS, PRIME_LIMIT, build_parser, main
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
    code, out, err = run_cli(capsys, "classify", "--p", "5", "[3,1,2]", "--predicate", "standard")
    assert code == 2
    assert out == ""
    assert "[3,1,2]" in err


def test_classify_divind(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "[2,2,2]", "--predicate", "divind")
    assert code == 0 and json.loads(out)["value"] == 2


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
    code, _, err = run_cli(capsys, "oracle", "factors", "--p", "2", "--n", "3", "--spec", "Q:3")
    assert code == 2 and "Q:3" in err


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


def test_verify_combinatorial_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "combinatorial", "--p", "3", "--bound", "8")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


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
    assert names == ["simple_p2_n2.jsonl", "simple_p3_n1.jsonl", "simple_p3_n2.jsonl"]


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--family", "SS", "--p", "2", "--n", "3", "--degree", "3", "--threads", "2"])
    assert exc.value.code == 2


def test_readme_command_lines_parse():
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("schurkit ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


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
    ],
    ids=["truncated", "not-json", "too-many-parts", "string-coefficient", "top-coefficient", "zero-coefficient"],
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


def _readme_argvs():
    text = README.read_text()
    section = text[text.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("schurkit ")]


PARSER_CORPUS = (
    _readme_argvs()
    + [[name, "-h"] for name in COMMANDS]
    + [
        ["chars", "decompose", "-h"],
        ["oracle", "factors", "-h"],
        ["chars"],
        ["chars", "decompose", "--n", "3", "--expr", "h1", "extra"],
        ["enumerate", "--family", "XX", "--p", "2", "--n", "3", "--degree", "3"],
        ["oracle", "factors", "--p", "4", "--n", "3", "--spec", "S:3"],
    ]
)


def _parse_outcome(parser, argv, capsys):
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_one_command_parser_agrees_with_full_parser(argv, capsys):
    # the same Namespace, or the same exit code and the same text
    assert _parse_outcome(build_parser(argv[0]), argv, capsys) == _parse_outcome(build_parser(), argv, capsys)


def test_one_command_parser_registers_only_that_command(capsys):
    parser = build_parser("chars")
    assert parser.format_usage() == build_parser().format_usage()
    with pytest.raises(SystemExit):
        parser.parse_args(["parse", "--p", "2", "[2]"])
    assert "invalid choice: 'parse' (choose from 'chars')" in capsys.readouterr().err


def test_python_m_schurkit():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "schurkit", "chars", "decompose", "--n", "3", "--expr", "h2*h1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == '{"schur":{"[3]":1,"[2,1]":1}}\n'
