"""CLI surface: file formats, exit codes, and command outputs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nearcommute import matcore as mc
from nearcommute import cli, matio, suites
from nearcommute.cli import main
from nearcommute.gallery import tn_identities
from nearcommute.subspace import StageError


@pytest.fixture
def commuting_files(tmp_path):
    rng = np.random.default_rng(0)
    lam = np.sort(rng.uniform(-1, 1, 12))
    q = mc.random_unitary(rng, 12)
    a = q @ np.diag(lam) @ q.conj().T
    b = q @ np.diag(0.8 * np.sin(2 * lam)) @ q.conj().T
    a = (a + a.conj().T) / 2
    b = (b + b.conj().T) / 2
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    matio.save_matrix(pa, a, hermitian=True)
    matio.save_matrix(pb, b, hermitian=True)
    return pa, pb, a, b


class TestMatrixIO:
    def test_json_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        path = tmp_path / "m.json"
        matio.save_matrix(path, m)
        assert np.array_equal(matio.load_matrix(path), m)

    def test_tag_verification(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4))
        path = tmp_path / "m.json"
        matio.save_matrix(path, m, hermitian=True)  # saved with a wrong tag
        with pytest.raises(matio.MatrixFileError):
            matio.load_matrix(path)

    def test_empty_tagged_matrix_round_trips(self, tmp_path):
        # the tag gates take a square array, so an empty file loads as 0 x 0
        path = tmp_path / "m.json"
        matio.save_matrix(path, np.zeros((0, 0)), hermitian=True, unitary=True)
        assert matio.load_matrix(path).shape == (0, 0)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(matio.MatrixFileError):
            matio.load_matrix(path)

    @pytest.mark.parametrize("text, message", [
        ('{"dim": 2}', "missing dim/entries"),
        ('{"dim": 2, "entries": [[[1, 0], [0, 0]]]}', "do not form a 2x2 matrix"),
        ('{"dim": 1, "entries": [[[1]]]}', "bad entry encoding"),
        ('{"dim": 1, "entries": [[{"re": 1}]]}', "bad entry encoding"),
        ('{"dim": 1, "entries": [[[true, false]]]}', "bad entry encoding"),
        ('{"dim": 1, "entries": [[[1, 2, 3]]]}', "bad entry encoding"),
        ('{"dim": 1, "entries": [[["1", 0]]]}', "bad entry encoding"),
        ('{"dim": 1, "entries": [[[1' + '0' * 400 + ', 0]]]}', "non-finite entries"),
        ('{"dim": 1, "entries": [[[NaN, 0]]]}', "non-finite entries"),
        ('{"dim": "two", "entries": []}', "dim is not an integer"),
        ('{"dim": 1.5, "entries": [[[1, 0]]]}', "dim is not an integer"),
        ('{"dim": true, "entries": [[[1, 0]]]}', "dim is not an integer"),
        ('{"dim": "1", "entries": [[[1, 0]]]}', "dim is not an integer"),
        ('{"dim": 1, "entries": 5}', "entries is not a list of rows"),
        ('{"dim": 1, "entries": [5]}', "entries is not a list of rows"),
    ])
    def test_malformed_content(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(matio.MatrixFileError, match=message):
            matio.load_matrix(path)


class TestCommuteCommand:
    def test_commuting_inputs_succeed(self, commuting_files, tmp_path, capsys):
        pa, pb, a, b = commuting_files
        out = tmp_path / "rep.json"
        code = main(["commute", str(pa), str(pb), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["comm_residual"] <= 1e-10 * 12
        assert doc["dist_a"] <= 1e-9
        assert "inputs" in doc and "config" in doc
        # matrices embedded and parseable
        a_prime = np.array([[complex(c[0], c[1]) for c in row] for row in doc["a_prime"]])
        assert a_prime.shape == (12, 12)

    def test_tensor_lift_pair_end_to_end(self, tmp_path):
        from nearcommute.gallery import tn_lift
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        pa, pb = tmp_path / "tx.json", tmp_path / "tz.json"
        matio.save_matrix(pa, tn_lift(x, 5), hermitian=True)
        matio.save_matrix(pb, tn_lift(z, 5), hermitian=True)
        out = tmp_path / "rep.json"
        code = main(["commute", str(pa), str(pb), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["comm_residual"] <= 1e-10

    def test_malformed_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code = main(["commute", str(bad), str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["commute", str(tmp_path / "none.json"), str(tmp_path / "none.json")])
        assert code == 1

    def test_malformed_dim_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": "two", "entries": []}')
        code = main(["commute", str(bad), str(bad), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and "dim is not an integer" in err[0]

    def test_unreadable_input_is_io_error(self, commuting_files, tmp_path, monkeypatch):
        pa, pb, _, _ = commuting_files

        def refuse(path):
            raise PermissionError(f"cannot read {path}")

        monkeypatch.setattr(cli, "_sha256", refuse)
        assert main(["commute", str(pa), str(pb), "--out", str(tmp_path / "r.json")]) == 1

    def test_stage_error_is_engine_failure(self, commuting_files, tmp_path, monkeypatch,
                                           capsys):
        pa, pb, _, _ = commuting_files

        def fail(*args):
            raise StageError("c", "oracle commutator too large")

        monkeypatch.setattr(cli, "commute_hermitian_pair", fail)
        assert main(["commute", str(pa), str(pb), "--out", str(tmp_path / "r.json")]) == 2
        assert "engine failure: [c] oracle commutator too large" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma2", ["nan", "inf", "-1", "0"])
    def test_bad_gamma2_writes_nothing(self, commuting_files, tmp_path, capsys, gamma2):
        pa, pb, _, _ = commuting_files
        out = tmp_path / "r.json"
        assert main(["commute", str(pa), str(pb), "--gamma2", gamma2, "--out", str(out)]) == 64
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: gamma2 must be finite and positive")
        assert not out.exists()

    def test_hastings_route_end_to_end(self, tensor_lift_pair, tmp_path):
        a, b = tensor_lift_pair
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        matio.save_matrix(pa, a, hermitian=True)
        matio.save_matrix(pb, b, hermitian=True)
        out = tmp_path / "rep_h.json"
        code = main(["commute", str(pa), str(pb), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["comm_residual"] <= 1e-10 * 64
        engines = [e.get("engine") for e in doc["stage_log"]["intervals"]]
        assert engines.count("hastings") >= 1
        assert doc["config"] == {"gamma2": 1.0}


class TestVerifyCommand:
    def test_tn_suite_passes(self, capsys):
        code = main(["verify", "tn", "--seed", "7", "--trials", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["violations"] == 0

    def test_bounds_suite(self, capsys):
        code = main(["verify", "bounds", "--seed", "3", "--trials", "10"])
        assert code == 0

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "nonsense"]) == 64

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_usage_error(self, capsys, trials):
        assert main(["verify", "bounds", "--trials", trials]) == 64
        out = capsys.readouterr()
        assert out.err.splitlines() == [f"error: trials must be at least 1, got {trials}"]
        assert out.out == ""

    def test_env_seed_override(self, monkeypatch, capsys):
        monkeypatch.setenv("AC_SEED", "99")
        code = main(["verify", "tn", "--trials", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["seed"] == 99

    def test_env_seed_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("AC_SEED", "seven")
        assert main(["verify", "tn", "--trials", "2"]) == 64
        assert "AC_SEED must be an integer, got 'seven'" in capsys.readouterr().err


class TestGalleryCommand:
    def test_voiculescu_files(self, tmp_path, capsys):
        code = main(["gallery", "voiculescu", "--n", "8", "--out", str(tmp_path)])
        assert code == 0
        u = matio.load_matrix(tmp_path / "voiculescu_u_8.json")
        v = matio.load_matrix(tmp_path / "voiculescu_v_8.json")
        assert mc.op_norm(mc.commutator(u, v)) == pytest.approx(
            abs(1 - np.exp(2j * math.pi / 8)), abs=1e-12)

    def test_quarter_tridiag_reference_table(self, tmp_path, capsys):
        code = main(["gallery", "quarter-tridiag", "--n", "10", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["reference_match"] is True
        lines = (tmp_path / "quarter_tridiag_10.csv").read_text().splitlines()
        assert lines[0] == "index,leakage"
        assert len(lines) == 11

    def test_winding_output(self, tmp_path, capsys):
        code = main(["gallery", "winding", "--n", "8", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "winding_8.json").read_text())
        assert doc["winding"] != 0
        assert doc["stable"] is True

    def test_budget_guard(self, tmp_path):
        assert main(["gallery", "voiculescu", "--n", "100000",
                     "--out", str(tmp_path)]) == 64

    @pytest.mark.parametrize("obj", ["quarter-tridiag", "winding"])
    def test_budget_guard_small_n(self, tmp_path, capsys, obj):
        assert main(["gallery", obj, "--n", "1", "--out", str(tmp_path)]) == 64
        assert "n out of budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_is_io_error(self, tmp_path):
        (tmp_path / "file").write_text("")
        assert main(["gallery", "winding", "--out", str(tmp_path / "file" / "dir")]) == 1


class TestSweepCommand:
    def test_five_point_sweep(self, commuting_files, tmp_path, capsys):
        pa, pb, _, _ = commuting_files
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(pa), str(pb), "--deltas",
                     "1e-1,3e-2,1e-2,3e-3,1e-3", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["monotone_trend"] is True
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,dist_a,dist_b,eps2_max"
        assert len(lines) == 6

    def test_single_delta(self, commuting_files, tmp_path):
        pa, pb, _, _ = commuting_files
        out = tmp_path / "one.csv"
        assert main(["sweep", str(pa), str(pb), "--deltas", "1e-2",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    @staticmethod
    def rejected(argv, capsys):
        """stderr of a sweep command line that exits 64, and that of one
        with an unknown flag: the usage, then the error."""
        assert main(argv) == 64
        err = capsys.readouterr().err.splitlines()
        assert main(argv[:3] + ["--bogus"]) == 64
        return err, capsys.readouterr().err.splitlines()[:-1]

    def test_empty_delta_list_usage_error(self, commuting_files, capsys):
        pa, pb, _, _ = commuting_files
        for deltas in (",", ""):
            err, usage = self.rejected(["sweep", str(pa), str(pb), "--deltas", deltas], capsys)
            assert err == usage + [
                f"error: argument --deltas: invalid delta_list value: {deltas!r}"]

    def test_bad_delta_list_usage_error(self, commuting_files, capsys):
        # the option is named, after the usage as for any rejected command line
        pa, pb, _, _ = commuting_files
        err, usage = self.rejected(["sweep", str(pa), str(pb), "--deltas", "1e-2,tiny"], capsys)
        assert usage[0].startswith("usage: nearcommute sweep")
        assert err == usage + [
            "error: argument --deltas: invalid delta_list value: '1e-2,tiny'"]

    @pytest.mark.parametrize("deltas", ["-0.1", "nan", "inf", "1e-2,-1e-3"])
    def test_bad_delta_value_usage_error(self, commuting_files, tmp_path, capsys, deltas):
        pa, pb, _, _ = commuting_files
        out = tmp_path / "s.csv"
        assert main(["sweep", str(pa), str(pb), "--deltas", deltas, "--out", str(out)]) == 64
        captured = capsys.readouterr()
        # delta_sweep's message, over the deltas in the descending order it is given
        got = sorted(map(float, deltas.split(",")), reverse=True)
        assert captured.err.splitlines() == [
            f"error: each delta must be finite and nonnegative, got {got}"]
        assert captured.out == "" and not out.exists()

    def test_missing_file_is_io_error(self, commuting_files, tmp_path):
        pa, _, _, _ = commuting_files
        assert main(["sweep", str(pa), str(tmp_path / "none.json"), "--deltas", "1e-2",
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert not (tmp_path / "s.csv").exists()

    def test_env_seed_not_an_integer(self, commuting_files, tmp_path, monkeypatch, capsys):
        pa, pb, _, _ = commuting_files
        monkeypatch.setenv("AC_SEED", "1.5")
        assert main(["sweep", str(pa), str(pb), "--deltas", "1e-2",
                     "--out", str(tmp_path / "s.csv")]) == 64
        assert "AC_SEED must be an integer, got '1.5'" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_noncommuting_base_is_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        a = mc.random_hermitian(rng, 6, norm=1.0)
        b = mc.random_hermitian(rng, 6, norm=1.0)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        matio.save_matrix(pa, a)
        matio.save_matrix(pb, b)
        assert main(["sweep", str(pa), str(pb), "--deltas", "1e-2"]) == 64
        assert capsys.readouterr().err.splitlines() == ["error: base pair must commute"]


class TestParser:
    def test_no_command_usage_error(self):
        assert main([]) == 64

    def test_bad_flag_usage_error(self):
        assert main(["verify", "tn", "--bogus"]) == 64

    @pytest.mark.parametrize("mode", ["given", "heuristic", "brute"])
    def test_given_oracle_usage_error(self, commuting_files, mode):
        pa, pb, _, _ = commuting_files
        assert main(["commute", str(pa), str(pb), "--oracle", mode]) == 64

    @pytest.mark.parametrize("engine", ["szarek", "hastings", "auto"])
    def test_engine_flag_usage_error(self, commuting_files, engine):
        pa, pb, _, _ = commuting_files
        assert main(["commute", str(pa), str(pb), "--engine", engine]) == 64


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _broken_tn_identities(a, b, big_n):
    out = tn_identities(a, b, big_n)
    return {**out, "commutator_residual": 1.0}


STAGE = _raising(StageError("c", "oracle commutator too large"))
LINALG = _raising(np.linalg.LinAlgError("eigh did not converge"))
COMMUTE = ["commute", "{a}", "{b}", "--out", "{out}"]
VERIFY = ["verify", "tn", "--seed", "1", "--trials", "1"]
GALLERY = ["gallery", "voiculescu", "--n", "4", "--out", "{out}"]
SWEEP = ["sweep", "{a}", "{b}", "--deltas", "1e-2", "--out", "{out}"]


class TestExitPaths:
    """Every exit path of every command: its code, exactly one stderr line,
    and no file written.  ``main`` alone maps exceptions to codes."""

    @pytest.mark.parametrize("argv, patch, code, line", [
        pytest.param(["commute", "{none}", "{b}", "--out", "{out}"], None, 1,
                     "error: cannot parse", id="commute-read"),
        pytest.param(["commute", "{a}", "{b}", "--out", "{missing}"], None, 1,
                     "error: [Errno 2]", id="commute-write"),
        pytest.param(COMMUTE, (cli, "commute_hermitian_pair", STAGE), 2,
                     "engine failure: [c] oracle commutator too large", id="commute-stage"),
        pytest.param(COMMUTE, (cli, "commute_hermitian_pair", LINALG), 2,
                     "engine failure: eigh did not converge", id="commute-linalg"),
        pytest.param(["commute", "{a}", "{a2}", "--out", "{out}"], None, 64,
                     "error: B must be a contraction", id="commute-input"),
        pytest.param(VERIFY, (cli, "run_suite", STAGE), 2,
                     "engine failure: [c]", id="verify-stage"),
        pytest.param(VERIFY, (cli, "run_suite", LINALG), 2,
                     "engine failure: eigh", id="verify-linalg"),
        pytest.param(["verify", "tn", "--trials", "0"], None, 64,
                     "error: trials must be at least 1, got 0", id="verify-input"),
        pytest.param(["verify", "nonsense"], None, 64,
                     "error: unknown suite 'nonsense'", id="verify-unknown"),
        pytest.param(VERIFY, (suites, "tn_identities", _broken_tn_identities), 2,
                     "suite violation: 1 of 8 checks failed", id="verify-violation"),
        pytest.param(["gallery", "voiculescu", "--out", "{a}"], None, 1,
                     "error: [Errno 17]", id="gallery-write"),
        pytest.param(GALLERY, (cli, "voiculescu", STAGE), 2,
                     "engine failure: [c]", id="gallery-stage"),
        pytest.param(GALLERY, (cli, "voiculescu", LINALG), 2,
                     "engine failure: eigh", id="gallery-linalg"),
        pytest.param(["gallery", "winding", "--n", "513", "--out", "{out}"], None, 64,
                     "error: n out of budget: winding takes 2 <= n <= 512, got 513",
                     id="gallery-input"),
        pytest.param(["sweep", "{a}", "{none}", "--deltas", "1e-2", "--out", "{out}"], None, 1,
                     "error: cannot parse", id="sweep-read"),
        pytest.param(["sweep", "{a}", "{b}", "--deltas", "1e-2", "--out", "{missing}"], None, 1,
                     "error: [Errno 2]", id="sweep-write"),
        pytest.param(SWEEP, (cli, "delta_sweep", STAGE), 2,
                     "engine failure: [c]", id="sweep-stage"),
        pytest.param(SWEEP, (cli, "delta_sweep", LINALG), 2,
                     "engine failure: eigh", id="sweep-linalg"),
        pytest.param(SWEEP[:-2] + ["--gamma2", "nan", "--out", "{out}"], None, 64,
                     "error: gamma2 must be finite and positive", id="sweep-input"),
    ])
    def test_exit_path(self, commuting_files, tmp_path, monkeypatch, capsys,
                       argv, patch, code, line):
        pa, pb, a, _ = commuting_files
        matio.save_matrix(tmp_path / "a2.json", 2 * a)
        names = {"a": pa, "b": pb, "a2": tmp_path / "a2.json", "none": tmp_path / "none.json",
                 "out": tmp_path / "out", "missing": tmp_path / "missing" / "r.json"}
        if patch:
            monkeypatch.setattr(*patch)
        before = sorted(tmp_path.rglob("*"))
        assert main([arg.format(**names) for arg in argv]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(line), err
        assert sorted(tmp_path.rglob("*")) == before

    def test_unwritable_out_from_the_command_line(self, commuting_files, tmp_path):
        pa, pb, _, _ = commuting_files
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "nearcommute.cli", "commute", str(pa), str(pb),
             "--out", str(tmp_path / "missing" / "r.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: [Errno 2]")
