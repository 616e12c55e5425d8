import ast
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlogcrt
from dlogcrt import Factorization, cli, lift, numtheory, oracle, primitive_root, quotients, reduction
from dlogcrt import DlogInstance, SafePrimeParams, verify_instance
from dlogcrt.cli import (
    GROUP_CACHE_LIMIT,
    main,
    report_document,
    sample_instance,
)

from conftest import CRYPTO_GROUPS


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
        calls = {"teichmuller_digit": 0, "carry_beta_p2": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapped = counted(name, getattr(lift, name))
            for module in (dlogcrt, lift, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)

        code, out = run_cli(capsys, "recover-p2", "--p", "11", "--a0", "2", "--X", "8")
        assert code == 0
        assert json.loads(out) == {"n": "3", "b0": "8", "beta": "0", "a1": "10", "b1": "10"}
        assert calls == {"teichmuller_digit": 2, "carry_beta_p2": 1}


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

    def test_negative_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--count", "-3", "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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
        monkeypatch.setattr(oracle, "_BSGS_LIMIT", 300)
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
