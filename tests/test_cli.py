import csv
import hashlib
import json
import random

import pytest

from dlogcrt import verify_instance
from dlogcrt.cli import (
    GROUP_CACHE_LIMIT,
    main,
    record_instance,
    report_document,
    sample_instance,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


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


class TestRecoverP2:
    def test_golden(self, capsys):
        code, out = run_cli(capsys, "recover-p2", "--p", "11", "--a0", "2", "--X", "8")
        assert code == 0
        assert json.loads(out)["n"] == "3"


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

    def test_negative_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--count", "-3", "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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
            rebuilt = report_document(verify_instance(record_instance(record)))
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

    def test_impossible_range_is_search_exhausted(self, capsys):
        code, out = run_cli(
            capsys,
            "experiment", "--count", "1", "--qmin", "7", "--qmax", "7", "--seed", "0",
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "search-exhausted"

    def test_group_cache_is_bounded_and_changes_no_draw(self):
        # a q range far wider than the cache: it fills, stops growing, and
        # every draw matches a sampler that remembers nothing
        qmin, qmax = 3, 10**7
        cached_rng, fresh_rng = random.Random(8), random.Random(8)
        groups = {}
        for _ in range(60):
            cached = sample_instance(cached_rng, qmin, qmax, groups=groups)
            fresh = sample_instance(fresh_rng, qmin, qmax)
            assert cached == fresh
            assert len(groups) <= GROUP_CACHE_LIMIT
        assert len(groups) == GROUP_CACHE_LIMIT
