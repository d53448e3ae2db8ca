"""Command line interface tests, run through a real subprocess."""

import json
import math
import subprocess
import sys

import pytest
from child_env import child_env

BASE = [sys.executable, "-m", "bayescfar.cli"]


def run(*argv, env_extra=None):
    return subprocess.run(
        BASE + list(argv), capture_output=True, text=True,
        env=child_env(**(env_extra or {})), timeout=600,
    )


class TestThreshold:
    def test_minimum_rule_hand_value(self):
        out = run("threshold", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--pfa", "0.1", "--t", "2")
        assert out.returncode == 0
        record = json.loads(out.stdout)
        assert record == {
            "family": "bayes_os", "n": 4, "k": 1, "pfa": 0.1, "t": 2.0, "tau": 72.0,
        }
        assert "tau = 72" in out.stderr

    def test_inverted_curve(self):
        out = run("threshold", "--family", "bayes_os", "--n", "2", "--k", "2",
                  "--pfa", "0.333333333333", "--t", "1")
        assert out.returncode == 0
        assert math.isclose(json.loads(out.stdout)["tau"], 1.0, rel_tol=1e-6)

    def test_closed_families(self):
        out = run("threshold", "--family", "min_cfar", "--n", "4",
                  "--pfa", "0.1", "--t", "1.5")
        assert out.returncode == 0
        assert json.loads(out.stdout)["tau"] == 54.0
        out = run("threshold", "--family", "ca_cfar", "--n", "1",
                  "--pfa", "0.5", "--t", "3")
        assert json.loads(out.stdout)["tau"] == 3.0

    def test_json_reparses_to_emitted_value(self):
        # serialized floats must carry full precision, not a trimmed rendering
        from bayescfar.detectors import DetectorSpec, Family, bayes_os_threshold

        out = run("threshold", "--family", "bayes_os", "--n", "11", "--k", "7",
                  "--pfa", "0.037", "--t", "1.3")
        record = json.loads(out.stdout)
        spec = DetectorSpec(Family.BAYES_OS, 11, 0.037, k=7)
        assert record["tau"] == bayes_os_threshold(spec, 1.3)

    def test_out_of_range_pfa_is_usage_error(self):
        out = run("threshold", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--pfa", "1.5", "--t", "2")
        assert out.returncode == 2
        assert "error:" in out.stderr

    def test_missing_flag_is_usage_error(self):
        out = run("threshold", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--pfa", "0.1")
        assert out.returncode == 2
        assert "--t" in out.stderr

    def test_unknown_family_is_usage_error(self):
        for family in ("median", "custom_g"):
            out = run("threshold", "--family", family, "--n", "4",
                      "--pfa", "0.1", "--t", "1")
            assert out.returncode == 2

    def test_unreachable_design_point_is_numeric_failure(self):
        out = run("threshold", "--family", "bayes_os", "--n", "2", "--k", "2",
                  "--pfa", "1e-320", "--t", "1")
        assert out.returncode == 3
        assert "numeric failure" in out.stderr


class TestPfaCurve:
    def test_zero_threshold_row(self):
        out = run("pfa", "--family", "bayes_os", "--n", "2", "--k", "2",
                  "--t", "1", "--tau-grid", "0:0:1")
        assert out.returncode == 0
        assert out.stdout == "tau,pfa\n0,1\n"

    def test_exact_decimal_row(self):
        out = run("pfa", "--family", "bayes_os", "--n", "4", "--k", "1",
                  "--t", "1", "--tau-grid", "36:36:1")
        assert out.stdout == "tau,pfa\n36,0.1\n"

    def test_interior_value_round_trips(self):
        out = run("pfa", "--family", "bayes_os", "--n", "2", "--k", "2",
                  "--t", "1", "--tau-grid", "1:1:1")
        line = out.stdout.splitlines()[1]
        tau, pfa = line.split(",")
        assert tau == "1"
        assert math.isclose(float(pfa), 1.0 / 3.0, rel_tol=1e-14)

    def test_grid_expansion(self):
        out = run("pfa", "--family", "ca_cfar", "--n", "4",
                  "--t", "1", "--tau-grid", "0:2:5")
        rows = out.stdout.splitlines()
        assert rows[0] == "tau,pfa"
        taus = [float(r.split(",")[0]) for r in rows[1:]]
        assert taus == [0.0, 0.5, 1.0, 1.5, 2.0]
        pfas = [float(r.split(",")[1]) for r in rows[1:]]
        assert pfas[0] == 1.0
        assert all(a > b for a, b in zip(pfas, pfas[1:]))

    def test_bad_grid_is_usage_error(self):
        for bad in ("5:1", "1:2:0", "a:b:3", "0:inf:2", "nan:1:2", "1:nan:3"):
            out = run("pfa", "--family", "ca_cfar", "--n", "4",
                      "--t", "1", "--tau-grid", bad)
            assert out.returncode == 2, bad

    @pytest.mark.parametrize("family", [["bayes_os", "--k", "1"], ["min_cfar"], ["ca_cfar"]])
    @pytest.mark.parametrize(
        "grid", ["-3:0:4", "-inf:0:3", "-1e308:1e308:3", "1:-1:3", "5:-0.5:12"]
    )
    def test_negative_threshold_is_usage_error(self, family, grid):
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
    def test_non_finite_or_zero_statistic_is_usage_error(self, argv, t):
        out = run(*argv, "--t", t)
        assert out.returncode == 2
        assert out.stdout == ""
        assert "--t must be finite and positive" in out.stderr


class TestDensity:
    def test_origin_value(self):
        out = run("density", "--family", "bayes_os", "--n", "1", "--k", "1",
                  "--t", "1", "--z0-grid", "0:0:1")
        assert out.returncode == 0
        assert out.stdout == "z0,density\n0,1\n"

    def test_curve_integrates_roughly_to_one(self):
        out = run("density", "--family", "bayes_os", "--n", "8", "--k", "5",
                  "--t", "1", "--z0-grid", "0:50:20001")
        rows = out.stdout.splitlines()[1:]
        ys = [float(r.split(",")[1]) for r in rows]
        riemann = sum(ys) * (50.0 / 20000.0)
        # crude rule on a truncated domain; just a sanity bracket
        assert 0.95 < riemann < 1.01

    def test_non_bayes_family_rejected(self):
        out = run("density", "--family", "ca_cfar", "--n", "4",
                  "--t", "1", "--z0-grid", "0:1:2")
        assert out.returncode == 2

    @pytest.mark.parametrize("grid", ["1:-1:3", "-1:1:3"])
    def test_grid_crossing_zero_prints_nothing(self, grid):
        out = run("density", "--family", "bayes_os", "--n", "4", "--k", "2",
                  "--t", "1", f"--z0-grid={grid}")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "error: z0 must be nonnegative" in out.stderr


class TestSimulate:
    ARGS = ["simulate", "--family", "ca_cfar", "--n", "16", "--pfa", "0.01",
            "--lambda", "1", "--trials", "50000", "--seed", "7"]

    def test_estimate_near_design_point(self):
        out = run(*self.ARGS)
        assert out.returncode == 0
        record = json.loads(out.stdout)
        width = record["wilson_high"] - record["wilson_low"]
        assert abs(record["estimate"] - 0.01) < width
        assert record["trials"] == 50000
        assert record["seed"] == 7
        assert record["degenerate_redraws"] == 0

    def test_byte_identical_reruns(self):
        a, b = run(*self.ARGS), run(*self.ARGS)
        assert a.stdout == b.stdout

    def test_json_reparses_to_report_values(self):
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

    def test_worker_count_does_not_change_output(self):
        a = run(*self.ARGS, env_extra={"BAYESCFAR_WORKERS": "1"})
        b = run(*self.ARGS, env_extra={"BAYESCFAR_WORKERS": "4"})
        assert a.stdout == b.stdout

    def test_pd_mode(self):
        out = run("simulate", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "2", "--mode", "pd", "--snr", "10",
                  "--trials", "200000", "--seed", "11")
        assert out.returncode == 0
        record = json.loads(out.stdout)
        # analytic Swerling-I value for the minimum rule is 0.55
        assert abs(record["estimate"] - 0.55) < 0.01

    def test_pd_mode_requires_snr(self):
        out = run("simulate", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "2", "--mode", "pd", "--trials", "100", "--seed", "1")
        assert out.returncode == 2
        assert "snr" in out.stderr

    def test_pareto_clutter_pfa(self):
        out = run("simulate", "--family", "ca_cfar", "--n", "8", "--pfa", "0.1",
                  "--clutter", "pareto", "--alpha", "3", "--beta", "2",
                  "--trials", "50000", "--seed", "13")
        assert out.returncode == 0
        record = json.loads(out.stdout)
        # the exponential multiplier is not calibrated for Pareto clutter;
        # the run must still execute and report a sane proportion
        assert 0.0 <= record["estimate"] <= 1.0

    def test_single_trial(self):
        out = run("simulate", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "1", "--trials", "1", "--seed", "3")
        record = json.loads(out.stdout)
        assert record["estimate"] in (0.0, 1.0)
        assert record["wilson_low"] <= record["estimate"] <= record["wilson_high"]

    def test_csv_sink_appends_with_single_header(self, tmp_path):
        sink = tmp_path / "runs.csv"
        run(*self.ARGS, "--out", str(sink))
        run(*self.ARGS, "--out", str(sink))
        lines = sink.read_text().splitlines()
        assert lines[0] == "estimate,wilson_low,wilson_high,trials,seed,degenerate_redraws"
        assert len(lines) == 3
        assert lines[1] == lines[2]
        first = lines[1].split(",")
        assert first[3] == "50000" and first[4] == "7"

    def test_trials_must_be_positive(self):
        out = run("simulate", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda", "1", "--trials", "0", "--seed", "3")
        assert out.returncode == 2

    @pytest.mark.parametrize("family, model, name", [
        ("ca_cfar", ["--lambda", "inf"], "rate_lambda"),
        ("ca_cfar", ["--clutter", "pareto", "--alpha", "inf", "--beta", "2"], "shape_alpha"),
        ("min_cfar", ["--clutter", "pareto", "--alpha", "3", "--beta", "inf"], "scale_beta"),
        ("min_cfar", ["--lambda", "1", "--mode", "pd", "--snr", "inf"], "snr_linear"),
    ])
    def test_non_finite_model_parameter_is_usage_error(self, family, model, name):
        out = run("simulate", "--family", family, "--n", "4", "--pfa", "0.1", *model,
                  "--trials", "100", "--seed", "3")
        assert out.returncode == 2
        assert out.stdout == ""
        assert f"{name} must be finite and positive, got inf" in out.stderr


class TestSweep:
    def test_rows_cover_grid(self):
        out = run("sweep", "--family", "ca_cfar", "--n", "8", "--pfa", "0.05",
                  "--lambda-grid", "0.5,1,2", "--trials", "20000", "--seed", "19")
        assert out.returncode == 0
        rows = out.stdout.splitlines()
        assert rows[0] == "lambda,estimate,wilson_low,wilson_high,trials"
        assert len(rows) == 4
        assert [r.split(",")[0] for r in rows[1:]] == ["0.5", "1", "2"]
        assert "max pairwise deviation" in out.stderr

    def test_single_rate(self):
        out = run("sweep", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--lambda-grid", "2", "--trials", "10000", "--seed", "5")
        assert out.returncode == 0
        assert len(out.stdout.splitlines()) == 2

    def test_empty_grid_is_usage_error(self):
        out = run("sweep", "--family", "ca_cfar", "--n", "8", "--pfa", "0.05",
                  "--lambda-grid", "", "--trials", "100", "--seed", "1")
        assert out.returncode == 2

    def test_negative_rate_is_usage_error(self):
        out = run("sweep", "--family", "ca_cfar", "--n", "8", "--pfa", "0.05",
                  "--lambda-grid", "1,-2", "--trials", "100", "--seed", "1")
        assert out.returncode == 2


class TestScan:
    @staticmethod
    def write_profile(tmp_path, values, header=None):
        path = tmp_path / "profile.csv"
        lines = ([header] if header else []) + [str(v) for v in values]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_flat_profile_all_quiet(self, tmp_path):
        path = self.write_profile(tmp_path, [1.0] * 12)
        out = run("scan", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 0
        rows = out.stdout.splitlines()
        assert rows[0] == "cell_index,z0,comparison_value,verdict"
        assert len(rows) == 9
        assert all(r.endswith(",H0") for r in rows[1:])
        assert rows[1].startswith("2,")

    def test_spike_is_flagged_at_its_cell(self, tmp_path):
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

    def test_run_of_zeros_takes_the_zero_statistic_limit(self, tmp_path):
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
    def test_cell_averaging_sum_beyond_the_float_range(self, tmp_path, pfa, verdict):
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

    def test_header_skip(self, tmp_path):
        path = self.write_profile(tmp_path, [1.0] * 8, header="range_gate")
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2",
                  "--header")
        assert out.returncode == 0
        assert len(out.stdout.splitlines()) == 5

    def test_negative_value_names_its_line(self, tmp_path):
        path = self.write_profile(tmp_path, [1.0, 2.0, -3.0, 4.0, 5.0, 6.0])
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 2
        assert "line 3" in out.stderr

    @pytest.mark.parametrize("text", ["inf", "1e400", "nan"])
    def test_non_finite_value_names_its_line(self, tmp_path, text):
        path = self.write_profile(tmp_path, [1.0, 2.0, text, 4.0, 5.0, 6.0])
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 2
        assert "line 3" in out.stderr
        assert "finite" in out.stderr

    def test_unknown_family_is_usage_error(self, tmp_path):
        path = self.write_profile(tmp_path, [1.0] * 12)
        out = run("scan", "--family", "custom_g", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 2

    def test_malformed_value_names_its_line(self, tmp_path):
        path = self.write_profile(tmp_path, [1.0, 2.0, "not-a-number", 4.0, 5.0])
        out = run("scan", "--family", "ca_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "2", "--trailing", "2")
        assert out.returncode == 2
        assert "line 3" in out.stderr

    def test_layout_mismatch_rejected(self, tmp_path):
        path = self.write_profile(tmp_path, [1.0] * 12)
        out = run("scan", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", path, "--leading", "3", "--trailing", "2")
        assert out.returncode == 2

    def test_missing_profile_file(self):
        out = run("scan", "--family", "min_cfar", "--n", "4", "--pfa", "0.1",
                  "--profile", "/nonexistent/profile.csv",
                  "--leading", "2", "--trailing", "2")
        assert out.returncode == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text(
            "[threshold]\nfamily = bayes_os\nn = 4\nk = 1\npfa = 0.1\nt = 2\n"
        )
        out = run("threshold", "--config", str(cfg))
        assert out.returncode == 0
        assert json.loads(out.stdout)["tau"] == 72.0

    def test_explicit_flags_win(self, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text(
            "[threshold]\nfamily = bayes_os\nn = 4\nk = 1\npfa = 0.1\nt = 2\n"
        )
        out = run("threshold", "--config", str(cfg), "--pfa", "0.5")
        assert json.loads(out.stdout)["tau"] == 8.0

    def test_sections_are_per_command(self, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[simulate]\ntrials = 100\nseed = 1\n")
        out = run("threshold", "--config", str(cfg), "--family", "min_cfar",
                  "--n", "4", "--pfa", "0.1", "--t", "1")
        assert out.returncode == 0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[threshold]\nturbo = yes\n")
        out = run("threshold", "--config", str(cfg), "--family", "min_cfar",
                  "--n", "4", "--pfa", "0.1", "--t", "1")
        assert out.returncode == 2

    def test_missing_config_file_rejected(self):
        out = run("threshold", "--config", "/nonexistent.ini",
                  "--family", "min_cfar", "--n", "4", "--pfa", "0.1", "--t", "1")
        assert out.returncode == 2

    THRESHOLD_FLAGS = ("--family", "min_cfar", "--n", "4", "--pfa", "0.1", "--t", "1")

    def test_keys_are_the_long_option_names(self, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[simulate]\nlambda = 2\ntrials = 1000\nseed = 5\n")
        flags = ("--family", "ca_cfar", "--n", "8", "--pfa", "0.1")
        out = run("simulate", "--config", str(cfg), *flags)
        assert out.returncode == 0, out.stderr
        want = run("simulate", *flags, "--lambda", "2", "--trials", "1000", "--seed", "5")
        assert out.stdout == want.stdout

    @pytest.mark.parametrize("key", ["tau-grid", "tau_grid"])
    def test_dash_or_underscore_in_keys(self, tmp_path, key):
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
    def test_key_without_a_flag_in_its_subcommand_rejected(self, tmp_path, section, key):
        cfg = tmp_path / "detector.ini"
        cfg.write_text(f"[{section}]\n{key}\n")
        out = run(section, "--config", str(cfg), *self.THRESHOLD_FLAGS)
        assert out.returncode == 2
        assert "unknown config key" in out.stderr

    def test_store_true_flag_from_config(self, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("value\n" + "1\n" * 5)
        flags = ("--family", "min_cfar", "--n", "4", "--pfa", "0.1", "--profile", str(profile),
                 "--leading", "2", "--trailing", "2")
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[scan]\nheader = yes\n")
        out = run("scan", "--config", str(cfg), *flags)
        assert out.returncode == 0, out.stderr
        assert out.stdout == run("scan", *flags, "--header").stdout

    def test_invalid_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "detector.ini"
        cfg.write_text("[scan]\nheader = maybe\n")
        out = run("scan", "--config", str(cfg), "--family", "min_cfar", "--n", "4",
                  "--pfa", "0.1", "--profile", "p.csv", "--leading", "2", "--trailing", "2")
        assert out.returncode == 2
        assert "bad config value header" in out.stderr
