"""Command line interface tests.

Most call cli.main in process through the run fixture, with stdout and
stderr captured. One test per subcommand, an argparse rejection and the
start-up checks run `python -m bayescfar.cli` in a subprocess (run_module),
so the module entry point and its exit codes stay covered.
"""

import contextlib
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from child_env import child_env

from bayescfar import cli

BASE = [sys.executable, "-m", "bayescfar.cli"]


def run_module(*argv):
    return subprocess.run(
        BASE + list(argv), capture_output=True, text=True, env=child_env(), timeout=600,
    )


class Completed(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run(capsys):
    """cli.main on argv in process, with the fields run_module's result has."""
    def run_main(*argv):
        capsys.readouterr()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
        out, err = capsys.readouterr()
        return Completed(code, out, err)

    return run_main


class TestThreshold:
    def test_minimum_rule_hand_value(self):
        out = run_module("threshold", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--pfa", "0.1", "--t", "2")
        assert out.returncode == 0
        record = json.loads(out.stdout)
        assert record == {
            "family": "bayes_os", "n": 4, "k": 1, "pfa": 0.1, "t": 2.0, "tau": 72.0,
        }
        assert "tau = 72" in out.stderr

    def test_inverted_curve(self, run):
        out = run("threshold", "--family", "bayes_os", "--n", "2", "--k", "2",
                  "--pfa", "0.333333333333", "--t", "1")
        assert out.returncode == 0
        assert math.isclose(json.loads(out.stdout)["tau"], 1.0, rel_tol=1e-6)

    def test_closed_families(self, run):
        out = run("threshold", "--family", "min_cfar", "--n", "4",
                  "--pfa", "0.1", "--t", "1.5")
        assert out.returncode == 0
        assert json.loads(out.stdout)["tau"] == 54.0
        out = run("threshold", "--family", "ca_cfar", "--n", "1",
                  "--pfa", "0.5", "--t", "3")
        assert json.loads(out.stdout)["tau"] == 3.0

    def test_json_reparses_to_emitted_value(self, run):
        # serialized floats must carry full precision, not a trimmed rendering
        from bayescfar.detectors import DetectorSpec, Family, bayes_os_threshold

        out = run("threshold", "--family", "bayes_os", "--n", "11", "--k", "7",
                  "--pfa", "0.037", "--t", "1.3")
        record = json.loads(out.stdout)
        spec = DetectorSpec(Family.BAYES_OS, 11, 0.037, k=7)
        assert record["tau"] == bayes_os_threshold(spec, 1.3)

    def test_out_of_range_pfa_is_usage_error(self, run):
        out = run("threshold", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--pfa", "1.5", "--t", "2")
        assert out.returncode == 2
        assert "error:" in out.stderr

    def test_missing_flag_is_usage_error(self, run):
        out = run("threshold", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--pfa", "0.1")
        assert out.returncode == 2
        assert "--t" in out.stderr

    def test_missing_pfa_is_usage_error(self, run):
        out = run("threshold", "--family", "min_cfar", "--n", "4", "--t", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "missing required option --pfa" in out.stderr

    def test_unknown_family_is_usage_error(self):
        for family in ("median", "custom_g"):
            out = run_module("threshold", "--family", family, "--n", "4",
                      "--pfa", "0.1", "--t", "1")
            assert out.returncode == 2

    def test_unreachable_design_point_is_numeric_failure(self, run):
        out = run("threshold", "--family", "bayes_os", "--n", "2", "--k", "2",
                  "--pfa", "1e-320", "--t", "1")
        assert out.returncode == 3
        assert "numeric failure" in out.stderr


class TestPfaCurve:
    def test_zero_threshold_row(self):
        out = run_module("pfa", "--family", "bayes_os", "--n", "2", "--k", "2",
                  "--t", "1", "--tau-grid", "0:0:1")
        assert out.returncode == 0
        assert out.stdout == "tau,pfa\n0,1\n"

    def test_exact_decimal_row(self, run):
        out = run("pfa", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--t", "1", "--tau-grid", "36:36:1")
        assert out.stdout == "tau,pfa\n36,0.1\n"

    @pytest.mark.parametrize("steps", ["0", "1000001", str(2**64)])
    def test_grid_size_is_bounded(self, run, steps):
        # every point is a row formed in memory; 2**64 of them would never end
        out = run("pfa", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--t", "1", "--tau-grid", f"0:1:{steps}")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "grid needs 1 to 1000000 points" in out.stderr

    def test_interior_value_round_trips(self, run):
        out = run("pfa", "--family", "bayes_os", "--n", "2", "--k", "2",
                  "--t", "1", "--tau-grid", "1:1:1")
        line = out.stdout.splitlines()[1]
        tau, pfa = line.split(",")
        assert tau == "1"
        assert math.isclose(float(pfa), 1.0 / 3.0, rel_tol=1e-14)

    def test_grid_expansion(self, run):
        out = run("pfa", "--family", "ca_cfar", "--n", "4",
                  "--t", "1", "--tau-grid", "0:2:5")
        rows = out.stdout.splitlines()
        assert rows[0] == "tau,pfa"
        taus = [float(r.split(",")[0]) for r in rows[1:]]
        assert taus == [0.0, 0.5, 1.0, 1.5, 2.0]
        pfas = [float(r.split(",")[1]) for r in rows[1:]]
        assert pfas[0] == 1.0
        assert all(a > b for a, b in zip(pfas, pfas[1:]))

    def test_bad_grid_is_usage_error(self, run):
        for bad in ("5:1", "1:2:0", "a:b:3", "0:inf:2", "nan:1:2", "1:nan:3"):
            out = run("pfa", "--family", "ca_cfar", "--n", "4",
                      "--t", "1", "--tau-grid", bad)
            assert out.returncode == 2, bad

    @pytest.mark.parametrize("family", [["bayes_os", "--k", "1"], ["min_cfar"], ["ca_cfar"]])
    @pytest.mark.parametrize(
        "grid", ["-3:0:4", "-inf:0:3", "-1e308:1e308:3", "1:-1:3", "5:-0.5:12"]
    )
    def test_negative_threshold_is_usage_error(self, run, family, grid):
        # every family forms x = tau/t in one place, which rejects tau < 0;
        # the whole grid is checked before the header, so nothing is printed
        out = run("pfa", "--family", *family, "--n", "4", "--t", "1", f"--tau-grid={grid}")
        assert out.returncode == 2, out.stderr
        assert out.stdout == ""
        assert "error:" in out.stderr


class TestStatisticFlag:
    @pytest.mark.parametrize("argv", [
        ["threshold", "--family", "bayes_os", "--n", "4", "--k", "2", "--pfa", "0.1"],
        ["threshold", "--family", "min_cfar", "--n", "4", "--pfa", "0.1"],
        ["threshold", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1"],
        ["pfa", "--family", "min_cfar", "--n", "4", "--tau-grid", "0:1:3"],
        ["pfa", "--family", "ca_cfar", "--n", "4", "--tau-grid", "0:1:3"],
        ["density", "--family", "bayes_os", "--n", "4", "--k", "2", "--z0-grid", "0:1:3"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    @pytest.mark.parametrize("t", ["inf", "nan", "0"])
    def test_non_finite_or_zero_statistic_is_usage_error(self, run, argv, t):
        out = run(*argv, "--t", t)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "--t must be finite and positive" in out.stderr


class TestDensity:
    def test_origin_value(self):
        out = run_module("density", "--family", "bayes_os", "--n", "1", "--k", "1",
                  "--t", "1", "--z0-grid", "0:0:1")
        assert out.returncode == 0
        assert out.stdout == "z0,density\n0,1\n"

    def test_curve_integrates_roughly_to_one(self, run):
        out = run("density", "--family", "bayes_os", "--n", "8", "--k", "5",
                  "--t", "1", "--z0-grid", "0:50:20001")
        rows = out.stdout.splitlines()[1:]
        ys = [float(r.split(",")[1]) for r in rows]
        riemann = sum(ys) * (50.0 / 20000.0)
        # crude rule on a truncated domain; just a sanity bracket
        assert 0.95 < riemann < 1.01

    def test_non_bayes_family_rejected(self, run):
        out = run("density", "--family", "ca_cfar", "--n", "4",
                  "--t", "1", "--z0-grid", "0:1:2")
        assert out.returncode == 2

    @pytest.mark.parametrize("grid", ["1:-1:3", "-1:1:3"])
    def test_grid_crossing_zero_prints_nothing(self, run, grid):
        out = run("density", "--family", "bayes_os", "--n", "4", "--k", "2",
                  "--t", "1", f"--z0-grid={grid}")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "error: z0 must be nonnegative" in out.stderr


class TestSimulate:
    ARGS = ["simulate", "--family", "ca_cfar", "--n", "16", "--pfa", "0.01",
            "--lambda", "1", "--trials", "50000", "--seed", "7"]

    def test_estimate_near_design_point(self):
        out = run_module(*self.ARGS)
        assert out.returncode == 0
        record = json.loads(out.stdout)
        width = record["wilson_high"] - record["wilson_low"]
        assert abs(record["estimate"] - 0.01) < width
        assert record["trials"] == 50000
        assert record["seed"] == 7
        assert record["degenerate_redraws"] == 0

    def test_byte_identical_reruns(self, run):
        a, b = run(*self.ARGS), run(*self.ARGS)
        assert a.stdout == b.stdout

    def test_debug_log_leaves_stdout_alone(self, run, caplog):
        # criterion 9's command prints the same bytes with the simulate
        # logger at DEBUG, which then records the run
        argv = ["simulate", "--family", "bayes_os", "--n", "8", "--k", "6", "--pfa", "0.05",
                "--lambda", "1", "--trials", "1000000", "--seed", "42"]
        quiet = run(*argv)
        caplog.set_level(logging.DEBUG, logger="bayescfar.simulate")
        loud = run(*argv)
        assert quiet.returncode == loud.returncode == 0
        assert loud.stdout == quiet.stdout
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]

    def test_json_reparses_to_report_values(self, run):
        from bayescfar.clutter_models import ExponentialClutter
        from bayescfar.detectors import DetectorSpec, Family
        from bayescfar.simulate import Scenario, estimate_pfa

        out = run(*self.ARGS)
        sc = Scenario(
            clutter=ExponentialClutter(1.0),
            detector=DetectorSpec(Family.CA_CFAR, 16, 0.01),
            trials=50000,
            seed=7,
        )
        assert json.loads(out.stdout) == estimate_pfa(sc).to_dict()

    def test_worker_count_does_not_change_output(self, run, monkeypatch):
        monkeypatch.setenv("BAYESCFAR_WORKERS", "1")
        a = run(*self.ARGS)
        monkeypatch.setenv("BAYESCFAR_WORKERS", "4")
        b = run(*self.ARGS)
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("workers", ["abc", "0"])
    def test_bad_worker_env_is_a_usage_error(self, run, monkeypatch, workers):
        monkeypatch.setenv("BAYESCFAR_WORKERS", workers)
        out = run(*self.ARGS)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "error: BAYESCFAR_WORKERS" in out.stderr

    def test_pd_mode(self, run):
        out = run("simulate", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "2", "--mode", "pd", "--snr", "10",
                  "--trials", "200000", "--seed", "11")
        assert out.returncode == 0
        record = json.loads(out.stdout)
        # analytic Swerling-I value for the minimum rule is 0.55
        assert abs(record["estimate"] - 0.55) < 0.01

    def test_pd_mode_requires_snr(self, run):
        out = run("simulate", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "2", "--mode", "pd", "--trials", "100", "--seed", "1")
        assert out.returncode == 2
        assert "snr" in out.stderr

    def test_pareto_clutter_pfa(self, run):
        out = run("simulate", "--family", "ca_cfar", "--n", "8", "--pfa", "0.1",
                  "--clutter", "pareto", "--alpha", "3", "--beta", "2",
                  "--trials", "50000", "--seed", "13")
        assert out.returncode == 0
        record = json.loads(out.stdout)
        # the exponential multiplier is not calibrated for Pareto clutter;
        # the run must still execute and report a sane proportion
        assert 0.0 <= record["estimate"] <= 1.0

    def test_single_trial(self, run):
        out = run("simulate", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "1", "--trials", "1", "--seed", "3")
        record = json.loads(out.stdout)
        assert record["estimate"] in (0.0, 1.0)
        assert record["wilson_low"] <= record["estimate"] <= record["wilson_high"]

    def test_csv_sink_appends_with_single_header(self, run, tmp_path):
        sink = tmp_path / "runs.csv"
        run(*self.ARGS, "--out", str(sink))
        run(*self.ARGS, "--out", str(sink))
        lines = sink.read_text().splitlines()
        assert lines[0] == "estimate,wilson_low,wilson_high,trials,seed,degenerate_redraws"
        assert len(lines) == 3
        assert lines[1] == lines[2]
        first = lines[1].split(",")
        assert first[3] == "50000" and first[4] == "7"

    def test_csv_sink_keeps_a_64_bit_seed_exact(self, run, tmp_path):
        sink = tmp_path / "runs.csv"
        seed = str(2**64 - 1)
        out = run("simulate", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "1", "--trials", "100", "--seed", seed, "--out", str(sink))
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["seed"] == 2**64 - 1
        assert sink.read_text().splitlines()[1].split(",")[4] == seed

    def test_unwritable_sink_rejected_before_the_record(self, run, tmp_path):
        out = run(*self.ARGS, "--out", str(tmp_path / "missing" / "runs.csv"))
        assert out.returncode == 2
        assert out.stdout == ""
        assert "cannot open --out" in out.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_sink_that_cannot_take_the_row_fails_before_the_record(self, run):
        # /dev/full opens, and every write to it fails
        out = run(*self.ARGS, "--out", "/dev/full")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "cannot write --out /dev/full" in out.stderr

    def test_trials_must_be_positive(self, run):
        out = run("simulate", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "1", "--trials", "0", "--seed", "3")
        assert out.returncode == 2

    @pytest.mark.parametrize("family, model, name", [
        ("ca_cfar", ["--lambda", "inf"], "rate_lambda"),
        ("ca_cfar", ["--clutter", "pareto", "--alpha", "inf", "--beta", "2"], "shape_alpha"),
        ("min_cfar", ["--clutter", "pareto", "--alpha", "3", "--beta", "inf"], "scale_beta"),
        ("min_cfar", ["--lambda", "1", "--mode", "pd", "--snr", "inf"], "snr_linear"),
    ])
    def test_non_finite_model_parameter_is_usage_error(self, run, family, model, name):
        out = run("simulate", "--family", family, "--n", "4", "--pfa", "0.1", *model,
                  "--trials", "100", "--seed", "3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert f"{name} must be finite and positive, got inf" in out.stderr


class TestSweep:
    def test_rows_cover_grid(self):
        out = run_module("sweep", "--family", "ca_cfar", "--n", "8", "--pfa", "0.05",
                  "--lambda-grid", "0.5,1,2", "--trials", "20000", "--seed", "19")
        assert out.returncode == 0
        rows = out.stdout.splitlines()
        assert rows[0] == "lambda,estimate,wilson_low,wilson_high,trials"
        assert len(rows) == 4
        assert [r.split(",")[0] for r in rows[1:]] == ["0.5", "1", "2"]
        assert "max pairwise deviation" in out.stderr

    def test_worker_count_does_not_change_output(self, run, monkeypatch):
        args = ["sweep", "--family", "bayes_os", "--n", "8", "--k", "5", "--pfa", "0.05",
                "--lambda-grid", "0.5,1,2", "--trials", "131089", "--seed", "23"]
        monkeypatch.setenv("BAYESCFAR_WORKERS", "1")
        a = run(*args)
        monkeypatch.setenv("BAYESCFAR_WORKERS", "4")
        b = run(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_single_rate(self, run):
        out = run("sweep", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda-grid", "2", "--trials", "10000", "--seed", "5")
        assert out.returncode == 0
        assert len(out.stdout.splitlines()) == 2

    def test_empty_grid_is_usage_error(self, run):
        out = run("sweep", "--family", "ca_cfar", "--n", "8", "--pfa", "0.05",
                  "--lambda-grid", "", "--trials", "100", "--seed", "1")
        assert out.returncode == 2

    def test_negative_rate_is_usage_error(self, run):
        out = run("sweep", "--family", "ca_cfar", "--n", "8", "--pfa", "0.05",
                  "--lambda-grid", "1,-2", "--trials", "100", "--seed", "1")
        assert out.returncode == 2

    def test_unparsable_rate_is_usage_error(self, run):
        out = run("sweep", "--family", "ca_cfar", "--n", "8", "--pfa", "0.05",
                  "--lambda-grid", "1,x", "--trials", "100", "--seed", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "could not parse list" in out.stderr


class TestScan:
    @staticmethod
    def write_profile(tmp_path, values, header=None):
        path = tmp_path / "profile.csv"
        lines = ([header] if header else []) + [str(v) for v in values]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_flat_profile_all_quiet(self, tmp_path):
        path = self.write_profile(tmp_path, [1.0] * 12)
        out = run_module("scan", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 0
        rows = out.stdout.splitlines()
        assert rows[0] == "cell_index,z0,comparison_value,verdict"
        assert len(rows) == 9
        assert all(r.endswith(",H0") for r in rows[1:])
        assert rows[1].startswith("2,")

    def test_spike_is_flagged_at_its_cell(self, run, tmp_path):
        values = [1.0] * 12
        values[6] = 1e6
        path = self.write_profile(tmp_path, values)
        out = run("scan", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        verdicts = {
            int(r.split(",")[0]): r.split(",")[3] for r in out.stdout.splitlines()[1:]
        }
        assert verdicts[6] == "H1"
        assert all(v == "H0" for cell, v in verdicts.items() if cell != 6)

    def test_run_of_zeros_takes_the_zero_statistic_limit(self, run, tmp_path):
        # bayes_os k = 2 of 4: a window holding two zeros has statistic 0, so
        # its cell is H1 with Pfa 0 if positive and H0 with Pfa 1 if zero
        values = [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0]
        path = self.write_profile(tmp_path, values)
        out = run("scan", "--family", "bayes_os", "--n", "4", "--k", "2", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 0, out.stderr
        rows = {int(r.split(",")[0]): r for r in out.stdout.splitlines()[1:]}
        assert sorted(rows) == list(range(2, 13))
        assert [cell for cell, r in rows.items() if r.endswith(",H1")] == [3, 8, 11]
        for cell in (3, 8, 11):
            assert rows[cell].split(",")[2] == "0"
        for cell in (4, 5, 6, 7, 9):
            assert rows[cell] == f"{cell},0,1,H0"

    @pytest.mark.parametrize("pfa, verdict", [("0.1", "H0"), ("0.9", "H1")])
    def test_cell_averaging_sum_beyond_the_float_range(self, run, tmp_path, pfa, verdict):
        # the window sums overflow; the threshold m * sum is inf only at pfa 0.1
        path = self.write_profile(tmp_path, ["1e308"] * 12)
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", pfa,
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 0, out.stderr
        rows = out.stdout.splitlines()[1:]
        assert len(rows) == 8
        for row in rows:
            _, z0, threshold, got = row.split(",")
            assert (z0, got) == ("1e+308", verdict)
            assert (threshold == "inf") == (verdict == "H0")

    def test_header_skip(self, run, tmp_path):
        path = self.write_profile(tmp_path, [1.0] * 8, header="range_gate")
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2",
                  "--header")
        assert out.returncode == 0
        assert len(out.stdout.splitlines()) == 5

    def test_blank_line_is_skipped(self, run, tmp_path):
        path = self.write_profile(tmp_path, [1.0, 2.0, "", 3.0, 4.0, 5.0, 6.0])
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 0, out.stderr
        assert [r.split(",")[:2] for r in out.stdout.splitlines()[1:]] == [["2", "3"], ["3", "4"]]

    def test_negative_value_names_its_line(self, run, tmp_path):
        path = self.write_profile(tmp_path, [1.0, 2.0, -3.0, 4.0, 5.0, 6.0])
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 2
        assert "line 3" in out.stderr

    @pytest.mark.parametrize("text", ["inf", "1e400", "nan"])
    def test_non_finite_value_names_its_line(self, run, tmp_path, text):
        path = self.write_profile(tmp_path, [1.0, 2.0, text, 4.0, 5.0, 6.0])
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 2
        assert "line 3" in out.stderr
        assert "finite" in out.stderr

    def test_unknown_family_is_usage_error(self, run, tmp_path):
        path = self.write_profile(tmp_path, [1.0] * 12)
        out = run("scan", "--family", "custom_g", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 2

    def test_malformed_value_names_its_line(self, run, tmp_path):
        path = self.write_profile(tmp_path, [1.0, 2.0, "not-a-number", 4.0, 5.0])
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 2
        assert "line 3" in out.stderr

    def test_layout_mismatch_rejected(self, run, tmp_path):
        path = self.write_profile(tmp_path, [1.0] * 12)
        out = run("scan", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "3", "--trailing", "2")
        assert out.returncode == 2

    def test_missing_profile_file(self, run, tmp_path):
        for path in ("/nonexistent/profile.csv", str(tmp_path)):
            out = run("scan", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                      "--profile", path, "--leading", "2", "--trailing", "2")
            assert out.returncode == 2, path
            assert out.stdout == ""
            assert "cannot open --profile" in out.stderr


class TestConfigFile:
    def test_config_supplies_defaults(self, run, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text(
            "[threshold]\nfamily = bayes_os\nn = 4\nk = 1\npfa = 0.1\nt = 2\n"
        )
        out = run("threshold", "--config", str(cfg))
        assert out.returncode == 0
        assert json.loads(out.stdout)["tau"] == 72.0

    def test_explicit_flags_win(self, run, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text(
            "[threshold]\nfamily = bayes_os\nn = 4\nk = 1\npfa = 0.1\nt = 2\n"
        )
        out = run("threshold", "--config", str(cfg), "--pfa", "0.5")
        assert json.loads(out.stdout)["tau"] == 8.0

    def test_sections_are_per_command(self, run, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[simulate]\ntrials = 100\nseed = 1\n")
        out = run("threshold", "--config", str(cfg), "--family", "min_cfar",
                  "--n", "4", "--pfa", "0.1", "--t", "1")
        assert out.returncode == 0

    def test_unknown_key_rejected(self, run, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[threshold]\nturbo = yes\n")
        out = run("threshold", "--config", str(cfg), "--family", "min_cfar",
                  "--n", "4", "--pfa", "0.1", "--t", "1")
        assert out.returncode == 2

    def test_config_without_a_section_header_rejected(self, run, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("family = min_cfar\n")
        out = run("threshold", "--config", str(cfg), "--family", "min_cfar",
                  "--n", "4", "--pfa", "0.1", "--t", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "could not parse config" in out.stderr

    def test_missing_config_file_rejected(self, run, tmp_path):
        # neither may be skipped, as ConfigParser.read skips what it cannot open
        for path in ("/nonexistent.ini", str(tmp_path)):
            out = run("threshold", "--config", path,
                      "--family", "min_cfar", "--n", "4", "--pfa", "0.1", "--t", "1")
            assert out.returncode == 2, path
            assert out.stdout == ""
            assert "cannot open --config" in out.stderr

    THRESHOLD_FLAGS = ("--family", "min_cfar", "--n", "4", "--pfa", "0.1", "--t", "1")

    def test_keys_are_the_long_option_names(self, run, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[simulate]\nlambda = 2\ntrials = 1000\nseed = 5\n")
        flags = ("--family", "ca_cfar", "--n", "8", "--pfa", "0.1")
        out = run("simulate", "--config", str(cfg), *flags)
        assert out.returncode == 0, out.stderr
        want = run("simulate", *flags, "--lambda", "2", "--trials", "1000", "--seed", "5")
        assert out.stdout == want.stdout

    @pytest.mark.parametrize("key", ["tau-grid", "tau_grid"])
    def test_dash_or_underscore_in_keys(self, run, tmp_path, key):
        cfg = tmp_path / "detector.ini"
        cfg.write_text(f"[pfa]\n{key} = 0:2:3\n")
        out = run("pfa", "--config", str(cfg), *self.THRESHOLD_FLAGS)
        assert out.returncode == 0, out.stderr
        assert out.stdout == run("pfa", *self.THRESHOLD_FLAGS, "--tau-grid", "0:2:3").stdout

    @pytest.mark.parametrize("section, key", [
        ("simulate", "rate = 2"),        # the dest of --lambda, not a flag
        ("threshold", "trials = 5"),     # a flag of other subcommands
        ("threshold", "profile = x"),
        ("threshold", "config = other.ini"),
    ])
    def test_key_without_a_flag_in_its_subcommand_rejected(self, run, tmp_path, section, key):
        cfg = tmp_path / "detector.ini"
        cfg.write_text(f"[{section}]\n{key}\n")
        out = run(section, "--config", str(cfg), *self.THRESHOLD_FLAGS)
        assert out.returncode == 2
        assert "unknown config key" in out.stderr

    @pytest.mark.parametrize("section, key, flags", [
        ("threshold", "family = median", ("--n", "4", "--pfa", "0.1", "--t", "1")),
        ("simulate", "clutter = weibull", ("--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                                           "--lambda", "1", "--trials", "100", "--seed", "1")),
        ("simulate", "mode = pfd", ("--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                                    "--lambda", "1", "--trials", "100", "--seed", "1")),
    ])
    def test_value_outside_a_flags_choices_rejected(self, run, tmp_path, section, key, flags):
        # the check argparse makes on the flag, made on the config value
        cfg = tmp_path / "detector.ini"
        cfg.write_text(f"[{section}]\n{key}\n")
        out = run(section, "--config", str(cfg), *flags)
        assert out.returncode == 2
        assert out.stdout == ""
        assert f"bad config value {key.split()[0]}" in out.stderr
        assert "invalid choice" in out.stderr

    def test_choices_from_config(self, run, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[simulate]\nfamily = min_cfar\nclutter = pareto\nmode = pfa\n")
        flags = ("--n", "4", "--pfa", "0.1", "--alpha", "3", "--beta", "2",
                 "--trials", "1000", "--seed", "5")
        out = run("simulate", "--config", str(cfg), *flags)
        assert out.returncode == 0, out.stderr
        want = run("simulate", "--family", "min_cfar", "--clutter", "pareto", "--mode", "pfa",
                   *flags)
        assert out.stdout == want.stdout

    def test_store_true_flag_from_config(self, run, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("value\n" + "1\n" * 5)
        flags = ("--family", "min_cfar", "--n", "4", "--pfa", "0.1", "--profile", str(profile),
                 "--leading", "2", "--trailing", "2")
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[scan]\nheader = yes\n")
        out = run("scan", "--config", str(cfg), *flags)
        assert out.returncode == 0, out.stderr
        assert out.stdout == run("scan", *flags, "--header").stdout

    def test_invalid_boolean_rejected(self, run, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[scan]\nheader = maybe\n")
        out = run("scan", "--config", str(cfg), "--family", "min_cfar", "--n", "4",
                  "--pfa", "0.1", "--profile", "p.csv", "--leading", "2", "--trailing", "2")
        assert out.returncode == 2
        assert "bad config value header" in out.stderr


class TestNumericEdges:
    """A design point whose multiplier or threshold is not a finite float exits 3."""

    SIM = ("--lambda", "1", "--trials", "10", "--seed", "1")

    @pytest.mark.parametrize("argv", [
        # ca_cfar's pfa ** (-1/n) overflows
        ["threshold", "--family", "ca_cfar", "--n", "1", "--pfa", "1e-320", "--t", "1"],
        ["simulate", "--family", "ca_cfar", "--n", "1", "--pfa", "1e-320", *SIM],
        ["sweep", "--family", "ca_cfar", "--n", "1", "--pfa", "1e-320",
         "--lambda-grid", "1,2", "--trials", "10", "--seed", "1"],
        # n (1/pfa - 1) is inf
        ["threshold", "--family", "bayes_os", "--n", "3", "--k", "1", "--pfa", "1e-320",
         "--t", "1"],
        ["simulate", "--family", "min_cfar", "--n", "3", "--pfa", "1e-320", *SIM],
        # the multiplier is finite, m * t is not: strict JSON has no value for tau
        ["threshold", "--family", "min_cfar", "--n", "1", "--pfa", "1e-300", "--t", "1e300"],
        ["threshold", "--family", "bayes_os", "--n", "1", "--k", "1", "--pfa", "1e-300",
         "--t", "1e300"],
        ["threshold", "--family", "ca_cfar", "--n", "1", "--pfa", "1e-300", "--t", "1e300"],
    ], ids=["threshold-ca_cfar", "simulate-ca_cfar", "sweep-ca_cfar", "threshold-bayes_os",
            "simulate-min_cfar", "tau-min_cfar", "tau-bayes_os", "tau-ca_cfar"])
    def test_non_finite_multiplier_or_threshold_is_numeric_failure(self, run, argv):
        out = run(*argv)
        assert out.returncode == 3, out.stderr
        assert out.stdout == ""
        assert "numeric failure" in out.stderr

    @pytest.mark.parametrize("family, n", [("min_cfar", "3"), ("ca_cfar", "1")])
    def test_scan_with_an_infinite_multiplier_is_numeric_failure(self, run, tmp_path,
                                                                 family, n):
        # over zero windows an inf multiplier would give nan thresholds
        profile = tmp_path / "profile.csv"
        profile.write_text("".join(f"{v}\n" for v in [1, 0, 0, 0, 5, 0, 0, 0, 1]))
        out = run("scan", "--family", family, "--n", n, "--pfa", "1e-320",
                  "--profile", str(profile), "--leading", n, "--trailing", "0")
        assert out.returncode == 3, out.stderr
        assert out.stdout == ""
        assert "numeric failure" in out.stderr


# the flag space: every command line starts valid, then up to two of its
# numbers (a flag's value, a grid's part or a profile value) take an extreme
# value, tiny, huge, non-finite, negative or any float at all
EXTREME_FLOATS = st.one_of(st.sampled_from([
    0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e-12, 1.0, 1e12, 1e300, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, -1.0,
]), st.floats())
EXTREME_COUNTS = st.sampled_from([-1, 0, 1, 300, 2**64])
PROFILE = "<profile>"


@st.composite
def command_lines(draw):
    """(argv, profile): a command line with PROFILE standing for the path of
    a file holding the profile values, or None for no profile."""
    command = draw(st.sampled_from(["threshold", "pfa", "density", "simulate", "sweep", "scan"]))
    family = draw(st.sampled_from(["bayes_os", "min_cfar", "ca_cfar"]))
    positive = st.floats(1e-3, 1e3)
    # each flag's numbers; grids keep their parts apart until formatted
    numbers = {}
    if command == "scan":
        numbers["--leading"] = [draw(st.integers(0, 8))]
        numbers["--trailing"] = [draw(st.integers(0, 8))]
        n = max(numbers["--leading"][0] + numbers["--trailing"][0], 1)
    else:
        n = draw(st.integers(1, 40))
    numbers["--n"] = [n]
    if family == "bayes_os":
        numbers["--k"] = [draw(st.integers(1, n))]
    numbers["--pfa"] = [draw(st.floats(1e-6, 0.5))]
    words = []
    if command in ("threshold", "pfa", "density"):
        numbers["--t"] = [draw(positive)]
    if command in ("pfa", "density"):
        flag = "--tau-grid" if command == "pfa" else "--z0-grid"
        numbers[flag] = [draw(st.floats(0, 50)), draw(st.floats(0, 50)), draw(st.integers(1, 40))]
    if command == "simulate":
        if draw(st.booleans()):
            words += ["--clutter", "pareto"]
            numbers["--alpha"] = [draw(st.floats(0.5, 10))]
            numbers["--beta"] = [draw(positive)]
            # Pareto window sums are drawn in bounded chunks, so windows of
            # thousands of cells cost time, not memory
            numbers["--n"] = [draw(st.sampled_from([n, 2000, 20000]))]
        else:
            numbers["--lambda"] = [draw(positive)]
        if draw(st.booleans()):
            words += ["--mode", "pd"]
            numbers["--snr"] = [draw(st.floats(0, 100))]
    if command == "sweep":
        numbers["--lambda-grid"] = draw(st.lists(positive, min_size=1, max_size=3))
    # at most 2 * 10**7 Pareto uniforms a command line
    max_trials = 10**3 if numbers["--n"][0] > 40 else 10**4
    if command in ("simulate", "sweep"):
        numbers["--trials"] = [draw(st.integers(1, max_trials))]
        numbers["--seed"] = [draw(st.integers(0, 2**64 - 1))]
    profile = draw(st.lists(positive, max_size=40)) if command == "scan" else None
    places = [(flag, i) for flag, values in numbers.items() for i in range(len(values))]
    places += [(PROFILE, i) for i in range(len(profile or []))]
    for flag, i in draw(st.lists(st.sampled_from(places), max_size=2, unique=True)):
        values = profile if flag == PROFILE else numbers[flag]
        extreme = EXTREME_COUNTS if isinstance(values[i], int) else EXTREME_FLOATS
        values[i] = draw(extreme)
        if flag == "--trials":
            values[i] = min(values[i], max_trials)
    argv = [command, "--family", family, *words]
    for flag, values in numbers.items():
        joiner = "," if flag == "--lambda-grid" else ":"
        argv.append(f"{flag}={joiner.join(map(repr, values))}")
    if profile is not None:
        argv += ["--profile", PROFILE]
    return argv, profile


SIMULATE = ["simulate", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
            "--trials", "1000", "--seed", "3"]


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    return tmp_path_factory.mktemp("flag_space") / "profile.csv"


class TestFlagSpace:
    """Every command line exits 0, 2 or 3, with no traceback and no warning;
    exit 0 prints strict JSON, or CSV whose numbers are finite except the
    inf thresholds scan documents."""

    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    # a multiplier that overflows in the closed form
    @example((["threshold", "--family", "ca_cfar", "--n", "1", "--pfa", "1e-320",
               "--t", "1"], None))
    # a finite multiplier whose threshold m * t overflows
    @example((["threshold", "--family", "min_cfar", "--n", "1", "--pfa", "1e-300",
               "--t", "1e300"], None))
    # an infinite multiplier over zero windows
    @example((["scan", "--family", "min_cfar", "--n", "3", "--pfa", "1e-320", "--profile",
               PROFILE, "--leading", "3", "--trailing", "0"], [1, 0, 0, 0, 5, 0, 0, 0, 1]))
    # draws beyond the float range
    @example(([*SIMULATE, "--clutter", "pareto", "--alpha", "1e-12", "--beta", "1"], None))
    @example(([*SIMULATE, "--lambda", "5e-324"], None))
    # the widest Pareto window sums, drawn in chunks
    @example((["simulate", "--family", "ca_cfar", "--n", "20000", "--pfa", "0.1",
               "--clutter", "pareto", "--alpha", "3", "--beta", "1",
               "--trials", "1000", "--seed", "3"], None))
    # an --out file that opens but cannot be written
    @example(([*SIMULATE, "--lambda", "1", "--out", "/dev/full"], None))
    # an order index whose Pfa product would loop 2^64 times
    @example((["threshold", "--family", "bayes_os", "--n", "18446744073709551616", "--k",
               "18446744073709551616", "--pfa", "0.1", "--t", "1"], None))
    def test_every_command_line_keeps_the_exit_contract(self, profile_path, case):
        argv, profile = case
        if "/dev/full" in argv and not os.path.exists("/dev/full"):
            return
        if profile is not None:
            profile_path.write_text("".join(f"{v!r}\n" for v in profile))
            argv = [str(profile_path) if a == PROFILE else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected a flag
                code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught] == []
        if code != 0:
            assert out.getvalue() == ""
        elif argv[0] in ("threshold", "simulate"):
            json.loads(out.getvalue(), parse_constant=reject_constant)
        else:
            assert_finite_csv(out.getvalue(), argv[0] == "scan")


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_finite_csv(text, scan):
    header, *rows = [line.split(",") for line in text.splitlines()]
    for row in rows:
        assert len(row) == len(header)
        for column, field in zip(header, row):
            if column == "verdict":
                assert field in ("H0", "H1")
            elif not (scan and column == "comparison_value" and field == "inf"):
                assert math.isfinite(float(field)), (column, field)


# commands that use no random stream, with the exit code and the sha256 of
# the stdout each gave before the CSV and JSON output went through one writer
# each; {name} stands for the path of a profile in PINNED_PROFILES
PINNED_PROFILES = {
    "zeros": ("", [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0]),
    "ramp": ("", [(i * 7919 % 1013) / 37.0 for i in range(400)]),
    "beyond": ("", ["1e308"] * 12),
    "header_only": ("range_gate\n", []),
}
PINNED = [
    ("threshold --family bayes_os --n 16 --k 12 --pfa 0.01 --t 1.3",
     0, "364983e7abee124fa62b06962c8bca19f5c2e2744fe30cf61cce6f389f04d91f"),
    ("threshold --family bayes_os --n 4 --k 1 --pfa 0.1 --t 2",
     0, "5b0c96dbcdde4d139e08229adb8c3cd136a8cabef3e8a216507b681471e8e661"),
    ("threshold --family bayes_os --n 11 --k 7 --pfa 0.037 --t 1.3",
     0, "05c2d07d5186e69f08d569924da78e60e3c667cc11c26dbb6923eb07b2a276bb"),
    ("threshold --family min_cfar --n 16 --pfa 0.01 --t 1.3",
     0, "9e4b950fc65c381a3f8960220216445d72835bd70a8ee426d00b1289cb14949f"),
    ("threshold --family ca_cfar --n 16 --pfa 0.01 --t 1.3",
     0, "06a9dea1e434e83ca7b7f75baafadcc1665f17225522ab0bf7d437e07de5f723"),
    ("threshold --family bayes_os --n 2 --k 2 --pfa 1e-320 --t 1",
     3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("threshold --family ca_cfar --n 4 --pfa 1.5 --t 1",
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pfa --family bayes_os --n 16 --k 12 --t 1.3 --tau-grid 0:30:61",
     0, "b6f4a75c03e2d26bf151cf0c33b0134c8fd437939b4016c5a8685fc0ca6b07d4"),
    ("pfa --family bayes_os --n 4 --k 1 --t 1 --tau-grid 0:50:11",
     0, "c1d96e561bc1cefaa3a1902cc26451c442ceb47c7f1b15c08caf4fdd378b1f57"),
    ("pfa --family min_cfar --n 16 --t 1.3 --tau-grid 0:30:61",
     0, "1e40d43f036a1de4f80880246e64d08823ba68697c9411b49e32b616cd909b50"),
    ("pfa --family ca_cfar --n 16 --t 1.3 --tau-grid 0:30:61",
     0, "493941f9e08651563ddf6ff4a3250ef826162f89b2050c6145f97803ec68133f"),
    ("pfa --family ca_cfar --n 4 --t 1 --tau-grid 5:-0.5:12",
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("density --family bayes_os --n 8 --k 5 --t 1 --z0-grid 0:20:201",
     0, "064a0dd81a00e6d0929c7d7392d450aa1a15dc10e260bef31bee0f69f33cebf0"),
    ("density --family bayes_os --n 1 --k 1 --t 1 --z0-grid 0:0:1",
     0, "81af3e680eaa67e953b6d0ae799266c8db4eb208300ddd73fb3668c7ce8027a0"),
    ("density --family ca_cfar --n 4 --t 1 --z0-grid 0:1:2",
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("scan --family bayes_os --n 4 --k 2 --pfa 0.1 --profile {zeros} --leading 2 --trailing 2",
     0, "4987efe6a9891765b165f7325be05155749fcc46d095d2fca4b8f96130c625fb"),
    ("scan --family min_cfar --n 4 --pfa 0.1 --profile {zeros} --leading 2 --trailing 2",
     0, "6c9764e164a89e2eb5462dcb7f84c586dcdc5c9c45e6de8077fd1ce5081fe863"),
    ("scan --family ca_cfar --n 4 --pfa 0.1 --profile {zeros} --leading 2 --trailing 2",
     0, "456ba1dae9a2c7a0c565cd58eb551a2cf326ab46790bff8dec70fed940d4ce72"),
    ("scan --family bayes_os --n 16 --k 12 --pfa 0.01 --profile {ramp} --leading 8 --trailing 8",
     0, "86cd6178dc0a0574976551f00297efe1c00d10bdc0e0ce578097fbeae743c94a"),
    ("scan --family min_cfar --n 16 --pfa 0.01 --profile {ramp} --leading 8 --trailing 8",
     0, "8fc028dc9d38cc5777c73608b3242cbb37d99f84c9a598dacd5f90ddfb58525c"),
    ("scan --family ca_cfar --n 16 --pfa 0.01 --profile {ramp} --leading 8 --trailing 8",
     0, "6bc1fe76c681533c0668b0cc898df0f7337ca1a6c24c7a429d80e9a41b99d957"),
    ("scan --family ca_cfar --n 4 --pfa 0.1 --profile {beyond} --leading 2 --trailing 2",
     0, "1be859dba5f0d9edae675bdc50c0edaba1e638b484024923c03807370d4c6d03"),
    ("scan --family ca_cfar --n 4 --pfa 0.9 --profile {beyond} --leading 2 --trailing 2",
     0, "f8cd4a6e42c224454b3344072b3e4c06ac03ba8b59b258f6c3f6debb74c1549d"),
    ("scan --family min_cfar --n 4 --pfa 0.1 --profile {header_only} --header"
     " --leading 2 --trailing 2",
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


class TestPinnedStdout:
    @pytest.mark.parametrize("command, code, digest", PINNED,
                             ids=[f"{i}-{c.split()[0]}" for i, (c, _, _) in enumerate(PINNED)])
    def test_stdout_bytes_are_pinned(self, run, tmp_path, command, code, digest):
        paths = {}
        for name, (header, values) in PINNED_PROFILES.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(header + "".join(f"{v}\n" for v in values))
        out = run(*command.format(**paths).split())
        assert out.returncode == code, out.stderr
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


# a fresh interpreter imports bayescfar, then runs cli.main on each argv list
# in turn and prints one JSON line per command: its exit code, its stdout, and
# which of numpy and scipy are loaded by then
MAIN_IN_FRESH_INTERPRETER = """
import contextlib, io, json, sys
import bayescfar
from bayescfar import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    loaded = [name for name in ("numpy", "scipy") if name in sys.modules]
    print(json.dumps({"code": code, "stdout": out.getvalue(), "loaded": loaded}))
"""


def main_in_fresh_interpreter(*argvs):
    out = subprocess.run(
        [sys.executable, "-c", MAIN_IN_FRESH_INTERPRETER, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(), timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


class TestStartWithoutNumpy:
    FAMILIES = [["--family", "bayes_os", "--n", "16", "--k", "12"],
                ["--family", "min_cfar", "--n", "16"],
                ["--family", "ca_cfar", "--n", "16"]]
    # density is defined for bayes_os only; the others exit 2
    CLOSED_FORM = [
        *(["threshold", *f, "--pfa", "0.01", "--t", "1.3"] for f in FAMILIES),
        *(["pfa", *f, "--t", "1.3", "--tau-grid", "0:30:7"] for f in FAMILIES),
        *(["density", *f, "--t", "1.3", "--z0-grid", "0:30:7"] for f in FAMILIES),
    ]

    def test_closed_form_commands_load_neither_numpy_nor_scipy(self):
        results = main_in_fresh_interpreter(*self.CLOSED_FORM)
        assert [r["code"] for r in results] == [0] * 7 + [2, 2]
        assert [r["loaded"] for r in results] == [[]] * 9
        assert results[0]["stdout"] == run_module(*self.CLOSED_FORM[0]).stdout

    def test_array_commands_load_numpy_when_they_run(self, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("".join(f"{v}\n" for v in [1, 2, 30, 1, 0.5, 2, 1, 4, 1]))
        array_commands = [
            ["scan", "--family", "bayes_os", "--n", "4", "--k", "3", "--pfa", "0.1",
             "--profile", str(profile), "--leading", "2", "--trailing", "2"],
            ["simulate", *self.FAMILIES[2], "--pfa", "0.05", "--lambda", "1",
             "--trials", "20000", "--seed", "19"],
            ["sweep", *self.FAMILIES[1], "--pfa", "0.1", "--lambda-grid", "0.5,2",
             "--trials", "20000", "--seed", "5"],
        ]
        results = main_in_fresh_interpreter(self.CLOSED_FORM[0], *array_commands)
        assert [r["code"] for r in results] == [0, 0, 0, 0]
        assert [r["loaded"] for r in results] == [[], ["numpy"], ["numpy"], ["numpy"]]
        # the same bytes as each command run on its own
        assert [r["stdout"] for r in results[1:]] == [
            run_module(*argv).stdout for argv in array_commands
        ]
