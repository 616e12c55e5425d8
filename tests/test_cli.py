import argparse
import ast
import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlogcrt
from dlogcrt import Factorization, cli, lift, numtheory, oracle, primitive_root, quotients, reduction
from dlogcrt import DlogInstance, SafePrimeParams, verify_instance
from dlogcrt.cli import (
    GROUP_CACHE_LIMIT,
    SAMPLE_MAX_DRAWS,
    build_parser,
    main,
    report_document,
    sample_instance,
)
from dlogcrt.errors import SearchExhaustedError

from conftest import CRYPTO_GROUPS, skewed_target_digit


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_imports_no_private_name_from_the_package():
    # the CLI is a plain client of the public library
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("dlogcrt"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


class TestReduce:
    def test_golden_document(self, capsys):
        code, out = run_cli(
            capsys, "reduce", "--p", "11", "--q", "5", "--a0", "2", "--b0", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["master"] == {"u": "1", "v": "12", "w": "28", "m": "55"}
        assert doc["parts"] == [
            {"u": "1", "v": "1", "w": "6", "m": "11"},
            {"u": "1", "v": "2", "w": "3", "m": "5"},
        ]


class TestSolve:
    def test_golden(self, capsys):
        code, out = run_cli(
            capsys, "solve", "--p", "11", "--q", "5", "--a0", "2", "--b0", "4"
        )
        assert code == 0
        assert json.loads(out) == {"n": "2"}


class TestVerify:
    def test_golden_flags_and_values(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--p", "11", "--q", "5", "--a0", "2", "--b0", "4", "--n", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["q_a0"] == "18" and doc["q_b0"] == "36"
        assert doc["a1"] == "42" and doc["b1"] == "28"
        assert doc["b1_literal"] == "24"
        assert doc["beta"] == "4" and doc["k_b"] == "4"
        assert doc["lemma1_ok"] is True
        assert doc["lemma2_corrected_ok"] is True
        assert doc["lemma2_literal_ok"] is False
        assert doc["eq19_corrected_ok"] is True
        assert doc["recovered_n_ok"] is True

    def test_off_by_one_target_digit_fails_every_corrected_flag(self, capsys, monkeypatch):
        # one check carries the four corrected fields, all_ok and the corrected
        # lines of explain, so b0's digit one too high fails each of them
        skewed = skewed_target_digit(quotients.lift_profile, 4)
        for module in (lift, reduction):
            monkeypatch.setattr(module, "lift_profile", skewed)
        argv = ("--p", "11", "--q", "5", "--a0", "2", "--b0", "4", "--n", "2")
        code, out = run_cli(capsys, "verify", *argv)
        assert code == 0
        doc = json.loads(out)
        assert (doc["b1"], doc["d"]) == ("29", "29")
        corrected = ("lemma2_corrected_ok", "eq19_corrected_ok", "master_ok", "parts_ok")
        assert [doc[flag] for flag in corrected] == [False] * 4
        assert doc["lemma2_literal_ok"] is False and doc["recovered_n_ok"] is True
        report = verify_instance(DlogInstance(SafePrimeParams(11, 5), 2, 4, known_index=2))
        assert report.all_ok is False

        code, out = run_cli(capsys, "explain", *argv)
        assert code == 0
        lines = out.splitlines()
        for line in (
            "  beta + 12*n = 29 (mod 55)   [FAIL: 4 + 12*2 = 28]",
            "    beta + 1*n = 7 (mod 11)   [FAIL]",
            "    beta + 2*n = 4 (mod 5)   [FAIL]",
            "  lifted power identity, corrected digits (lemma 2): FAIL",
            "  lifted power identity, carry-free digits: FAIL",
            "  quotient relation n*q(a0) = q(b0) + (beta - k_b)/B: FAIL",
            "  direct check picks n = 2   [ok]",
        ):
            assert line in lines


class TestQuotient:
    def test_golden(self, capsys):
        code, out = run_cli(capsys, "quotient", "--p", "11", "--q", "5", "--x", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "p": "11", "q": "5", "x": "4",
            "A": "36", "k": "4", "q_x": "36",
            "digit": "28", "digit_literal": "24",
        }


class TestGen:
    def test_four_bits(self, capsys):
        code, out = run_cli(capsys, "gen", "--bits", "4", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "p": "11", "q": "5", "m1": "55", "m2": "3025",
            "m3": "166375", "exponent": "220",
        }

    def test_bits_above_the_cap_exit_2_before_generating(self, capsys, monkeypatch):
        def refuse(bits, seed):
            raise AssertionError("gen_safe_prime called")

        monkeypatch.setattr(cli, "gen_safe_prime", refuse)
        for bits in (cli.GEN_MAX_BITS + 1, 4000):
            with pytest.raises(SystemExit) as exc:
                main(["gen", "--bits", str(bits), "--seed", "1"])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        args = cli.build_parser().parse_args(
            ["gen", "--bits", str(cli.GEN_MAX_BITS), "--seed", "1"]
        )
        assert args.bits == cli.GEN_MAX_BITS


class TestRecoverP2:
    def test_golden(self, capsys):
        code, out = run_cli(capsys, "recover-p2", "--p", "11", "--a0", "2", "--X", "8")
        assert code == 0
        assert json.loads(out)["n"] == "3"

    def test_derives_each_digit_and_the_carry_once(self, capsys, monkeypatch):
        # each Teichmuller digit is one exact division; the carry is one divmod
        calls = []
        exact_quotient = lift._exact_quotient

        def counted(*args):
            calls.append(args)
            return exact_quotient(*args)

        monkeypatch.setattr(lift, "_exact_quotient", counted)
        code, out = run_cli(capsys, "recover-p2", "--p", "11", "--a0", "2", "--X", "8")
        assert code == 0
        assert json.loads(out) == {"n": "3", "b0": "8", "beta": "0", "a1": "10", "b1": "10"}
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("--p", "11", "--a0", "22", "--X", "8"), "not-a-unit",
             "a0 = 0 is not a unit mod 11 (gcd = 11)"),
            (("--p", "11", "--a0", "2", "--X", "22"), "not-a-unit",
             "power 22 is not a unit mod 11**2"),
            (("--p", "11", "--a0", "3", "--X", "9"), "zero-digit",
             "base 3 has vanishing lift digit mod 11; index recovery impossible"),
            (("--p", "15", "--a0", "2", "--X", "8"), "invalid-input", "15 is not prime"),
            # 4 has order 5 mod 11, so no power of 4 is 2
            (("--p", "11", "--a0", "4", "--X", "2"), "precondition-violated",
             "base 4 is not a primitive root mod 11"),
            # 5 has order 4 mod 13 and is not a square: caught by r = 3
            (("--p", "13", "--a0", "5", "--X", "2"), "precondition-violated",
             "base 5 is not a primitive root mod 13"),
            # p - 1 = 14 * 65537 * 65539
            (("--p", "60133212203", "--a0", "2", "--X", "2"), "precondition-violated",
             "cannot confirm that base 2 generates the units mod 60133212203: p - 1 has"
             " the composite factor 4295229443 with no prime factor below 65536"),
        ],
        ids=[
            "a0-not-a-unit", "power-not-a-unit", "zero-digit", "composite-p", "a0-not-a-generator",
            "a0-order-4-mod-13", "p-minus-1-not-factored",
        ],
    )
    def test_error_documents(self, capsys, argv, code, message):
        exit_code, out = run_cli(capsys, "recover-p2", *argv)
        assert exit_code == 1
        assert json.loads(out) == {"error": {"code": code, "message": message}}


class TestExplain:
    def test_contains_key_lines(self, capsys):
        code, out = run_cli(
            capsys,
            "explain", "--p", "11", "--q", "5", "--a0", "2", "--b0", "4", "--n", "2",
        )
        assert code == 0
        assert "beta + 12*n = 28 (mod 55)" in out
        assert "beta + 1*n = 6 (mod 11)" in out
        assert "beta + 2*n = 3 (mod 5)" in out
        assert "[carry-free formula gives 24]" in out
        assert "FAIL" in out  # the carry-free lift identity fails here

    def test_solves_when_index_omitted(self, capsys):
        code, out = run_cli(
            capsys, "explain", "--p", "11", "--q", "5", "--a0", "2", "--b0", "4"
        )
        assert code == 0
        assert "n = 2" in out

    def test_solving_runs_the_subgroup_log_once(self, capsys, monkeypatch):
        calls = []
        dlog_bsgs = oracle.dlog_bsgs

        def counted(*args, **kwargs):
            calls.append(args)
            return dlog_bsgs(*args, **kwargs)

        for module in (dlogcrt, quotients, oracle, lift, reduction):
            if hasattr(module, "dlog_bsgs"):
                monkeypatch.setattr(module, "dlog_bsgs", counted)

        instance = ("--p", "983", "--q", "491", "--a0", "5", "--b0", "77")
        code, solved = run_cli(capsys, "explain", *instance)
        assert code == 0
        assert len(calls) == 1
        _, n = run_cli(capsys, "solve", *instance)
        code, known = run_cli(capsys, "explain", *instance, "--n", json.loads(n)["n"])
        assert code == 0
        assert solved == known


class TestErrors:
    def test_domain_error_is_structured_exit_1(self, capsys):
        code, out = run_cli(
            capsys, "reduce", "--p", "11", "--q", "5", "--a0", "2", "--b0", "55"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["code"] == "invalid-instance"

    def test_composite_p_rejected(self, capsys):
        code, out = run_cli(
            capsys, "reduce", "--p", "15", "--q", "7", "--a0", "2", "--b0", "4"
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "invalid-input"

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--p", "11"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unopenable_output_path_exits_2(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "x"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--count", "3", "--seed", "1", flag, str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["solve", "verify", "explain"])
    def test_solver_on_a_256_bit_group_is_order_too_large(self, capsys, command):
        p, q = CRYPTO_GROUPS[0]
        a0 = primitive_root(p, Factorization(((2, 1), (q, 1))))
        n = 2**200 + 12345
        argv = [command, "--p", str(p), "--q", str(q), "--a0", str(a0)]
        argv += ["--b0", str(pow(a0, n, p))]
        if command == "verify":
            argv += ["--n", str(n)]
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert json.loads(out)["error"]["code"] == "order-too-large"

    @pytest.mark.parametrize(
        "bound, stage",
        [("_IC_CANDIDATES", "relation phase"), ("_IC_DESCENT", "descent")],
    )
    def test_exhausted_solver_bound_is_structured_exit_1(self, capsys, monkeypatch, bound, stage):
        # the 32-bit solve-large group, whose order takes index calculus
        monkeypatch.setattr(oracle, bound, 0)
        p, q, a0 = 3821532707, 1910766353, 2
        code = main(["solve", "--p", str(p), "--q", str(q), "--a0", str(a0), "--b0", str(pow(a0, 12345, p))])
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.out)["error"]
        assert error["code"] == "search-exhausted"
        assert error["message"].startswith(f"index calculus {stage}: ")
        assert captured.err == ""

    def test_negative_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--count", "-3", "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def _outcome(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of one in-process run of main."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_reuse_changes_no_outcome(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    solve = ["solve", "--p", "11", "--q", "5", "--a0", "2", "--b0", "4"]
    counts = []
    for _ in range(3):
        before = len(built)
        assert _outcome(solve)[0] == 0
        counts.append(len(built) - before)
    # the top-level parser and one for each of the 8 subcommands
    assert counts == [9, 0, 0]

    sequence = [
        ["--help"],
        ["solve", "--p", "11"],
        ["experiment", "--count", "3", "--seed", "1", "--out", str(tmp_path / "no" / "x")],
        solve,
    ]
    reused = [_outcome(argv) for argv in sequence]
    assert len(built) == 9
    assert [code for code, _, _ in reused] == [0, 2, 2, 0]
    for argv, outcome in zip(sequence, reused):
        build_parser.cache_clear()
        assert _outcome(argv) == outcome
    assert len(built) == 9 + 9 * len(sequence)


def _cli_process(unbuffered: bool, *argv: str, **popen) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "dlogcrt.cli", *argv], env=env, stderr=subprocess.PIPE, **popen
    )


def _assert_one_write_error_line(proc: subprocess.Popen) -> None:
    assert proc.wait(timeout=60) == 1
    lines = proc.stderr.read().decode().splitlines()
    proc.stderr.close()
    assert len(lines) == 1, lines
    assert lines[0].startswith("dlogcrt: error: cannot write output: "), lines


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestWriteErrors:
    def test_closed_pipe_exits_1_with_one_line(self, unbuffered):
        proc = _cli_process(
            unbuffered, "experiment", "--count", "2000", "--seed", "1", stdout=subprocess.PIPE
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _assert_one_write_error_line(proc)
        assert json.loads(first)["id"] == "0"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_exits_1_with_one_line(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = _cli_process(
                unbuffered,
                "verify", "--p", "11", "--q", "5", "--a0", "2", "--b0", "4", "--n", "2",
                stdout=full,
            )
        _assert_one_write_error_line(proc)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_full_output_file_exits_1_with_one_line(self, unbuffered, flag):
        argv = ["experiment", "--count", "20", "--seed", "1", flag, "/dev/full"]
        proc = _cli_process(unbuffered, *argv, stdout=subprocess.DEVNULL)
        _assert_one_write_error_line(proc)


# Desk-scale argv for every subcommand: valid groups or small ints, and now
# and then one flag left out
_SMALL = st.integers(-20, 1000)
_GROUPS = [(7, 3), (11, 5), (23, 11), (983, 491)]


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(
        st.sampled_from(
            ["gen", "quotient", "reduce", "verify", "solve", "recover-p2", "experiment", "explain"]
        )
    )
    if command == "gen":
        opts = {"--bits": draw(st.integers(-3, 40)), "--seed": draw(_SMALL)}
    elif command == "recover-p2":
        p = draw(st.one_of(st.sampled_from([p for p, _ in _GROUPS]), _SMALL))
        opts = {"--p": p, "--a0": draw(_SMALL), "--X": draw(_SMALL)}
    elif command == "experiment":
        opts = {
            "--count": draw(st.integers(-1, 3)),
            "--qmin": draw(st.integers(-5, 600)),
            "--qmax": draw(st.integers(-5, 600)),
            "--seed": draw(_SMALL),
        }
    else:
        p, q = draw(st.sampled_from(_GROUPS + [None])) or draw(st.tuples(_SMALL, _SMALL))
        opts = {"--p": p, "--q": q}
        if command == "quotient":
            opts["--x"] = draw(_SMALL)
        else:
            a0, n = draw(_SMALL), draw(_SMALL)
            # b0 = a0**n (mod p) often enough to reach the exit-0 paths
            power = st.just(pow(a0, n, p)) if p > 1 and n >= 0 else _SMALL
            opts.update({"--a0": a0, "--b0": draw(st.one_of(power, _SMALL))})
            if command in ("verify", "explain"):
                opts["--n"] = n
    dropped = draw(st.sampled_from([None] * 8 + list(opts)))
    argv = [command]
    for flag, value in opts.items():
        if flag != dropped:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_cli_contract(argv):
    """Every run exits 0, 1 or 2 with nothing else escaping, and leaves one
    JSON document (JSON lines for experiment, text for a successful explain)
    on stdout, or nothing on a usage error."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert text == "", argv
    elif argv[0] == "experiment":
        for line in text.splitlines():
            json.loads(line)
    elif argv[0] == "explain" and code == 0:
        assert text.startswith("instance: "), argv
    else:
        json.loads(text)


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, capsys):
        argv = ("verify", "--p", "11", "--q", "5", "--a0", "2", "--b0", "4", "--n", "2")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_experiment_deterministic_in_seed(self, capsys):
        argv = ("experiment", "--count", "4", "--qmin", "5", "--qmax", "60", "--seed", "11")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_experiment_golden_digest(self, capsys):
        # deriving each group and each record value once changes no byte
        code, out = run_cli(
            capsys,
            "experiment", "--count", "300", "--qmin", "5", "--qmax", "499", "--seed", "1",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "36f8cbedbe6c35ca88efcf51b1c3d811eed1687bfd6fcb458c952f5870b9adc8"
        )

    def test_experiment_files_golden_digest(self, capsys, tmp_path):
        # writing each record as it is made changes no byte of either file
        out_path, csv_path = tmp_path / "runs.jsonl", tmp_path / "flags.csv"
        code, out = run_cli(
            capsys,
            "experiment", "--count", "300", "--qmin", "5", "--qmax", "499", "--seed", "1",
            "--out", str(out_path), "--csv", str(csv_path),
        )
        assert code == 0 and out == ""
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "36f8cbedbe6c35ca88efcf51b1c3d811eed1687bfd6fcb458c952f5870b9adc8"
        )
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "60a366b77431d1f0cdb7407540935547912c39069893772f57b1ab86d3134a15"
        )

    def test_experiment_wide_range_golden_digests(self, capsys, tmp_path):
        # q up to 100000: multi-digit p, q, carries and quotients. q = 3 can
        # give no record: the smallest primitive root of 7 is 3, a multiple of q
        argv = ("experiment", "--count", "300", "--qmin", "3", "--qmax", "100000", "--seed", "2")
        lines = "524d0cd6622858cbed4e18f4b7920fa7d70a9b66f6ffcbcddb4989a10d938f9b"
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == lines
        out_path, csv_path = tmp_path / "runs.jsonl", tmp_path / "flags.csv"
        code, out = run_cli(capsys, *argv, "--out", str(out_path), "--csv", str(csv_path))
        assert code == 0 and out == ""
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == lines
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "09adf62ac800cc100596c68264ca47564b04b407708ab9a0da923f4f377451d9"
        )

    def test_experiment_over_one_q_golden(self, capsys):
        # a q range of width 1 draws q with getrandbits(0), which consumes
        # no state, so each n is the next 4-bit draw below p - 1 = 10
        code, out = run_cli(
            capsys,
            "experiment", "--count", "3", "--qmin", "5", "--qmax", "5", "--seed", "1",
        )
        assert code == 0
        rng, ns = random.Random(1), []
        while len(ns) < 3:
            draw = rng.getrandbits(4)
            if draw < 10:
                ns.append(draw)
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["p"], r["q"], r["a0"], r["n"]) for r in records] == [
            ("11", "5", "2", str(n)) for n in ns
        ]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "30ead5e5262ef7874953548f3a3c0e9b76ee651caaf630cc8ed82eec1bccd6ca"
        )

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (
                "explain --p 11 --q 5 --a0 2 --b0 4 --n 2", 0,
                "06d252763687034ce8d0c632795f89d8c899604c5f5388c8114f0328a741d262",
            ),
            # solving for n gives the same trace as passing it
            (
                "explain --p 11 --q 5 --a0 2 --b0 4", 0,
                "06d252763687034ce8d0c632795f89d8c899604c5f5388c8114f0328a741d262",
            ),
            (
                "explain --p 983 --q 491 --a0 5 --b0 77", 0,
                "51d6f6ed158579912e8a3465e3542298963c5959830291510ed4535c3254e682",
            ),
            # an index past p - 1: the trace shows n unreduced
            (
                "explain --p 983 --q 491 --a0 5 --b0 77 --n 1337", 0,
                "d79419431a393fe631e328974672205a6925aa4155e60dad54a05572242a0ffb",
            ),
            (
                "verify --p 11 --q 5 --a0 2 --b0 4 --n 2", 0,
                "73836844bf252b8516db913eac8cd0d55f46f841722fea4d765bff0ffbe71c49",
            ),
            (
                "verify --p 983 --q 491 --a0 5 --b0 77 --n 1337", 0,
                "afc1513af34b16f4dc1c9fee6b2b68262bb8b5de196f24e3f9e31903dcb39694",
            ),
            (
                "verify --p 11 --q 5 --a0 2 --b0 4 --n 3", 1,
                "8a3c63677d026722598b03d473edda2c1dd42bd0c57cd33483aeb3aacd98e3b5",
            ),
            (
                "reduce --p 11 --q 5 --a0 2 --b0 4", 0,
                "faeaa42391b84be0cade2de64ce6792eae0391c81b6162b331df4b516c52af7a",
            ),
            (
                "reduce --p 983 --q 491 --a0 5 --b0 77", 0,
                "39c6d2902441dcdb64f01d5995580789837c9f5abd40fd1a13c8488f913acc79",
            ),
        ],
    )
    def test_document_golden_digest(self, capsys, argv, code, digest):
        # every flag and line of the documents, pinned byte for byte
        got, out = run_cli(capsys, *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def reference_line(report, record_id: int) -> str:
    # the record as a dict, through the stdlib encoder with sorted keys
    record = {**report_document(report), "id": str(record_id)}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def reference_row(report, record_id: int) -> list[str]:
    # the CSV projection of that dict, flags lowercased
    record = {**report_document(report), "id": str(record_id)}
    columns = ["id", "p", "q", "a0", "b0", "n"]
    flags = ["lemma1_ok", "lemma2_corrected_ok", "lemma2_literal_ok", "eq19_corrected_ok",
             "recovered_n_ok"]
    return [record[k] for k in columns] + [str(record[k]).lower() for k in flags]


class TestRecordLine:
    """The experiment record line and CSV row, written from the report by one
    format, against the report_document dict through the stdlib encoder."""

    @staticmethod
    def check(report, record_id: int) -> None:
        assert cli._record_line(report, record_id) == reference_line(report, record_id)
        row = [str(value) for value in cli._csv_row(report, record_id)]
        assert row == reference_row(report, record_id)

    def test_sampled_lines_match_the_reference_encoder(self):
        rng, literal = random.Random(5), set()
        for i in range(300):
            report = verify_instance(sample_instance(rng, 3, 100000 if i % 2 else 499))
            self.check(report, i)
            literal.add(report.lemma2.literal_lift_identity_ok)
        # both branches of the literal flag are written
        assert literal == {False, True}

    def test_every_false_flag_matches_the_reference_encoder(self, monkeypatch):
        # b0's digit one too high fails the four corrected fields; a report
        # whose recovery failed has recovered_n_ok false
        skewed = skewed_target_digit(quotients.lift_profile, 4)
        for module in (lift, reduction):
            monkeypatch.setattr(module, "lift_profile", skewed)
        report = verify_instance(DlogInstance(SafePrimeParams(11, 5), 2, 4, known_index=2))
        unrecovered = dataclasses.replace(report, recovered_ok=False)
        corrected = ("lemma2_corrected_ok", "eq19_corrected_ok", "master_ok", "parts_ok")
        for r, record_id, recovered in ((report, 0, True), (unrecovered, 12345, False)):
            self.check(r, record_id)
            doc = json.loads(cli._record_line(r, record_id))
            assert [doc[flag] for flag in corrected] == [False] * 4
            assert (doc["lemma2_literal_ok"], doc["recovered_n_ok"]) == (False, recovered)


class TestExperiment:
    def test_records_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "runs.jsonl"
        csv_path = tmp_path / "flags.csv"
        code, _ = run_cli(
            capsys,
            "experiment", "--count", "6", "--qmin", "5", "--qmax", "100",
            "--seed", "3", "--out", str(out_path), "--csv", str(csv_path),
        )
        assert code == 0

        lines = out_path.read_text().splitlines()
        assert len(lines) == 6
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["id"] == str(i)
            # every emitted record re-verifies from its inputs alone
            params = SafePrimeParams(int(record["p"]), int(record["q"]))
            instance = DlogInstance(
                params, int(record["a0"]), int(record["b0"]), known_index=int(record["n"])
            )
            rebuilt = report_document(verify_instance(instance))
            rebuilt["id"] = record["id"]
            assert rebuilt == record
            assert record["lemma1_ok"] and record["lemma2_corrected_ok"]
            assert record["eq19_corrected_ok"] and record["recovered_n_ok"]

        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "id", "p", "q", "a0", "b0", "n",
            "lemma1_ok", "lemma2_corrected_ok", "lemma2_literal_ok",
            "eq19_corrected_ok", "recovered_n_ok",
        ]
        assert len(rows) == 7
        assert all(row[6] == "true" for row in rows[1:])

    def test_error_part_way_is_one_more_json_line(self, capsys, monkeypatch):
        # a subgroup order above the solver bound stops the run after the
        # records already written; stdout stays JSON lines
        monkeypatch.setattr(oracle, "_ORDER_LIMIT", 300)
        code, out = run_cli(
            capsys,
            "experiment", "--count", "50", "--qmin", "5", "--qmax", "499", "--seed", "1",
        )
        assert code == 1
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) > 1
        assert all("id" in doc for doc in docs[:-1])
        assert docs[-1]["error"]["code"] == "order-too-large"

    def test_impossible_range_is_search_exhausted(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--count", "1", "--qmin", "7", "--qmax", "7", "--seed", "0",
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "search-exhausted"

    @staticmethod
    def _reference_sample(rng: random.Random, qmin: int, qmax: int) -> DlogInstance:
        # the sampler with q drawn through _rand_below, one call per draw
        for _ in range(SAMPLE_MAX_DRAWS):
            q = qmin + cli._rand_below(rng, qmax - qmin + 1)
            group = cli._group(q)
            if group is None:
                continue
            params, base = group
            n = cli._rand_below(rng, params.p - 1)
            target = pow(base, n, params.p)
            if gcd(target, q) != 1:
                continue
            return DlogInstance(params, base, target, known_index=n)
        raise SearchExhaustedError("no instance")

    @pytest.mark.parametrize(
        "qmin, qmax, samples",
        [(5, 499, 300), (5, 260, 300), (5, 5, 50), (3, 100000, 60), (7, 7, 1)],
    )
    def test_sampler_matches_rand_below_reference(self, monkeypatch, qmin, qmax, samples):
        # same instances, same q draws (each q reaches _group once) and same
        # rng state after every sample; (7, 7) has no usable q and must give
        # up after exactly SAMPLE_MAX_DRAWS draws
        group, qs = cli._group, []

        def recorded(q):
            qs.append(q)
            return group(q)

        monkeypatch.setattr(cli, "_group", recorded)

        def run(sample):
            rng, draws = random.Random(qmin * 1000 + qmax), []
            for _ in range(samples):
                qs.clear()
                try:
                    instance = sample(rng, qmin, qmax)
                except SearchExhaustedError:
                    instance = None
                draws.append((instance, list(qs), rng.getstate()))
            return draws

        sampled = run(sample_instance)
        assert sampled == run(self._reference_sample)
        if (qmin, qmax) == (7, 7):
            assert sampled == [(None, [7] * SAMPLE_MAX_DRAWS, random.Random(7007).getstate())]

    def test_group_cache_is_bounded_and_changes_no_draw(self, monkeypatch):
        # a q range far wider than the cache: it fills, stops growing, and
        # every draw matches a sampler that remembers nothing
        qmin, qmax = 3, 10**7
        cli._group.cache_clear()
        rng = random.Random(8)
        cached = []
        for _ in range(60):
            cached.append(sample_instance(rng, qmin, qmax))
            assert cli._group.cache_info().currsize <= GROUP_CACHE_LIMIT
        assert cli._group.cache_info().currsize == GROUP_CACHE_LIMIT
        monkeypatch.setattr(cli, "_group", cli._group.__wrapped__)
        rng = random.Random(8)
        assert [sample_instance(rng, qmin, qmax) for _ in range(60)] == cached

    def test_new_group_proves_q_twice_and_p_once(self, monkeypatch):
        # SafePrimeParams tests q and proves p = 2q + 1; Factorization tests
        # q again. A group already drawn derives nothing.
        q = 491
        calls = {"is_prime": [], "is_prime_2q_plus_1": []}

        def counted(name, fn):
            def wrapper(n):
                calls[name].append(n)
                return fn(n)

            return wrapper

        for name in calls:
            wrapped = counted(name, getattr(numtheory, name))
            for module in (numtheory, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)

        cli._group.cache_clear()
        group = cli._group(q)
        assert group is not None and group[0].p == 2 * q + 1
        assert calls["is_prime"].count(q) == 2
        assert calls["is_prime_2q_plus_1"] == [q]
        assert cli._group(q) is group
        assert calls["is_prime"].count(q) == 2
        assert calls["is_prime_2q_plus_1"] == [q]
