"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan_os --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout that holds src/bayescfar; nothing is
installed, workers import the package from src/ directly. Inputs are made
from the seed before any timing and written under .perfbench_work/, which is
removed again at the end (traced runs keep their spans there).

--trace 0 measures the end-to-end metrics: set-up time over several fresh
interpreters, then one worker's closed loop for --seconds seconds. Both are
scaled by the reference loop timed around them (reference.py), so that the
host's own speed drift cancels; the unscaled values are printed as a comment.
--trace 1 measures the per-layer metrics: an untraced worker for half the
time, then a traced worker over exactly the same operations, so that the
difference in (scaled) wall time is the tracing overhead, plus interpreter
and import probes.

Every line but the last is a comment (# ...) or a metric (metric NAME VALUE
UNIT). The last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402  (numpy only; bayescfar is never imported here)
import reference  # noqa: E402

WORKLOADS = ("scan_os", "scan_ca_min", "certify", "crosscheck", "cli")
FAMILIES = ("bayes_os", "ca_cfar", "min_cfar")
LAYERS = ("bench", "numerics", "clutter_models", "predictive", "detectors", "simulate", "cli")
CLI_COMMANDS = ("threshold", "pfa", "scan", "simulate")
SETUP_SAMPLES = 5      # fresh interpreters whose set-up time makes the median
PROBE_REPEATS = 3
RUN_BUDGET_S = 170     # every worker and probe must end inside this


class RunError(RuntimeError):
    """The run could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**63):
        parser.error("--seed must lie in 0..2**63-1")
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")
    return args


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bayescfar").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    affinity = len(os.sched_getaffinity(0))
    cpus = os.cpu_count() or 1
    env = {
        "affinity": affinity,
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "source_sha256": source_digest(root),
        "commit": commit(root),
    }
    # the library's default worker count is os.cpu_count(); never let the CLI
    # start more workers than this process may run on
    if cpus > affinity:
        env["BAYESCFAR_WORKERS"] = str(affinity)
    return env


class Runner:
    """Starts worker interpreters and probes for one run, inside one budget."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, env: dict):
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.spans = root / ".perfbench_work" / "spans" / f"{workload}.npz"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        if "BAYESCFAR_WORKERS" in env:
            self.env["BAYESCFAR_WORKERS"] = env["BAYESCFAR_WORKERS"]
        self._count = 0

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError(f"run exceeded its {RUN_BUDGET_S} s budget")
        return left

    def run_process(self, argv: list[str]) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{argv[1:3]} did not finish inside the run budget") from exc

    def worker(self, mode: str, **extra) -> dict:
        self._count += 1
        result_path = self.workdir / f"result-{self._count}.json"
        config = {
            "root": str(self.root), "workdir": str(self.workdir), "workload": self.workload,
            "mode": mode, "seconds": self.seconds, "result": str(result_path), **extra,
        }
        config_path = self.workdir / f"config-{self._count}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        ref_before = reference.sample(reference.SETUP_S)
        t_spawn = time.monotonic()
        proc = self.run_process([sys.executable, str(HERE / "worker.py"), str(config_path)])
        if proc.returncode != 0:
            raise RunError(f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["raw_setup_s"] = result["t_ready"] - t_spawn
        # the worker samples the reference loop as soon as it is ready
        result["setup_s"] = reference.normalise(result["raw_setup_s"], ref_before, result["ref_s"][0])
        return result

    def wall(self, code: str) -> float:
        t0 = time.perf_counter()
        proc = self.run_process([sys.executable, "-c", code])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RunError(f"python -c {code!r} failed: {proc.stderr.strip()[-500:]}")
        return elapsed

    def import_probe(self) -> dict:
        bare = statistics.median(self.wall("pass") for _ in range(PROBE_REPEATS))
        full = statistics.median(self.wall("import bayescfar") for _ in range(PROBE_REPEATS))
        proc = self.run_process([sys.executable, "-X", "importtime", "-c", "import bayescfar"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        share = cumulative.get("scipy.integrate", 0) / max(cumulative.get("bayescfar", 1), 1)
        return {"interpreter_s": bare, "import_s": full - bare, "import_scipy_pct": 100.0 * share}


def end_to_end(runner: Runner) -> tuple[dict, list[dict], int]:
    setups = [runner.worker("setup") for _ in range(SETUP_SAMPLES - 1)]
    main = runner.worker("run")
    setups.append(main)
    op_s = main["op_scaled_s"]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "norm_work_per_s": (main["work"] / sum(op_s), "1/s"),
        "norm_op_ms.p50": (1e3 * statistics.median(op_s), "ms"),
    }
    print(f"# samples setup_s n={len(setups)} norm_op_ms.p50 n={len(op_s)} "
          f"work unit: {main['unit']}")
    print(f"# unscaled: setup_s {statistics.median(r['raw_setup_s'] for r in setups)!r} "
          f"work_per_s {main['work'] / sum(main['op_s'])!r} "
          f"op_ms.p50 {1e3 * statistics.median(main['op_s'])!r}; reference loop "
          f"median {1e3 * statistics.median(main['ref_s'])!r} ms, "
          f"nominal {1e3 * reference.NOMINAL_S!r} ms")
    return metrics, [main], 0


def per_layer(runner: Runner) -> tuple[dict, list[dict], int]:
    base = runner.worker("run", seconds=runner.seconds / 2)
    traced = runner.worker("trace", ops=base["attempted"], spans=str(runner.spans))
    imports = runner.import_probe()
    ops = traced["attempted"]
    wall = traced["op_end"][-1]
    untraced_s = sum(base["op_scaled_s"][:ops])
    overhead_s = sum(traced["op_scaled_s"]) - untraced_s
    trace = traced["trace"]
    by_name = trace["by_name"]
    counters = trace["counters"]
    stats, base_stats = traced["stats"], base["stats"]

    def self_s(*names):
        return sum(by_name.get(n, {}).get("self_s", 0.0) for n in names)

    def pct(seconds):
        return 100.0 * seconds / wall

    def per_op(count):
        return count / ops

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    m = {
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_pct": (100.0 * overhead_s / untraced_s, "%"),
        "trace.gap_pct": (pct(wall - trace["top_level_s"]), "%"),
        "trace.ops": (ops, "count"),
        "trace.spans_per_op": (per_op(trace["spans"]), "count"),
        "setup.interpreter_s": (imports["interpreter_s"], "s"),
        "setup.import_s": (imports["import_s"], "s"),
        "setup.import_scipy_pct": (imports["import_scipy_pct"], "%"),
    }
    for layer in LAYERS:
        names = [n for n in by_name if n.split(".", 1)[0] == layer]
        m[f"{layer}.self_pct"] = (pct(self_s(*names)), "%")
    accounted = sum(m[f"{layer}.self_pct"][0] for layer in LAYERS) + m["trace.gap_pct"][0]
    for short, name in (("altsum", "numerics.altsum"), ("quad", "numerics.quad")):
        m[f"numerics.{short}.calls_per_op"] = (per_op(calls(name)), "count")
        m[f"numerics.{short}.self_pct"] = (pct(self_s(name)), "%")
    for level in ("1e4", "1e8"):
        key = f"numerics.altsum.cancellation_gt_{level}"
        m[f"{key}_per_op"] = (per_op(counters.get(key, 0)), "count")
    os_pfa_calls = calls("predictive.os_pfa")
    float_tier = calls("numerics.altsum") - counters.get("numerics.altsum.cancellation_gt_1e4", 0)
    m["predictive.os_pfa.calls_per_op"] = (per_op(os_pfa_calls), "count")
    m["predictive.os_pfa.self_pct"] = (pct(self_s("predictive.os_pfa")), "%")
    m["predictive.float_tier_ratio"] = (float_tier / os_pfa_calls if os_pfa_calls else 0.0,
                                        "fraction")
    for what in ("model_build", "generic_pfa", "os_pfa_quadrature"):
        m[f"predictive.{what}.self_pct"] = (pct(self_s(f"predictive.{what}")), "%")
    for what in ("posterior_evals", "likelihood_evals"):
        m[f"predictive.{what}_per_op"] = (per_op(stats.get(what, 0)), "count")
    for family in FAMILIES:
        m[f"detectors.decide.calls_per_op.{family}"] = (
            per_op(calls(f"detectors.decide.{family}")), "count")
        m[f"detectors.decide.self_pct.{family}"] = (pct(self_s(f"detectors.decide.{family}")), "%")
    threshold = traced["probe"]["threshold"]
    m["detectors.threshold.cold_ms"] = (1e3 * threshold["cold_s"], "ms")
    m["detectors.threshold.evals_per_solve"] = (threshold["evals_per_solve"], "count")
    # the workloads solve thresholds before tracing starts; only the probe bisects
    m["numerics.bisect.calls_per_solve"] = (threshold["bisect_calls_per_solve"], "count")
    m["numerics.bisect.self_ms_per_solve"] = (1e3 * threshold["bisect_self_s_per_solve"], "ms")
    for what in ("window_build", "kth_order_statistic", "window_sum"):
        m[f"clutter_models.{what}.self_pct"] = (pct(self_s(f"clutter_models.{what}")), "%")
    m["simulate.scan_profile.self_pct"] = (pct(self_s("simulate.scan_profile")), "%")
    m["simulate.estimate_pfa.self_pct"] = (pct(self_s("simulate.estimate_pfa")), "%")
    m["simulate.multiplier.incl_pct"] = (
        pct(by_name.get("detectors.threshold_multiplier", {}).get("incl_s", 0.0)), "%")
    m["simulate.blocks_per_op"] = (per_op(stats.get("blocks", 0)), "count")
    m["simulate.degenerate_redraws"] = (stats.get("degenerate_redraws", 0), "count")
    efficiency = base_stats.get("parallel_efficiency", {})
    for family in FAMILIES:
        m[f"simulate.parallel_efficiency.{family}"] = (efficiency.get(family, 0.0), "fraction")
    cli_main = traced["probe"].get("cli_main", {})
    command_s = base_stats.get("command_s", {})
    round_s = sum(command_s.values())
    for name in CLI_COMMANDS:
        probe = cli_main.get(name)
        m[f"cli.main_self_pct.{name}"] = (
            100.0 * probe["self_s"] / probe["incl_s"] if probe else 0.0, "%")
        m[f"cli.command_pct.{name}"] = (
            100.0 * command_s[name] / round_s if round_s else 0.0, "%")

    mismatch = base["digest"] != traced["digest"]
    print(f"# digest untraced {base['digest']} traced {traced['digest']} "
          f"({'MISMATCH' if mismatch else 'identical'})")
    print(f"# trace: {ops} ops, {trace['spans']} spans, layer self times + gap = "
          f"{accounted:.6f}% of traced wall; "
          f"boundaries missing in this code: {trace['missing'] or 'none'}")
    for name in CLI_COMMANDS:
        if name in cli_main and cli_main[name]["exit"] != 0:
            mismatch = True
            print(f"# in-process cli.main {name} exited {cli_main[name]['exit']}")
    return m, [base, traced], int(mismatch)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bayescfar" / "__init__.py").is_file():
        print("error: run from the root of a bayescfar checkout (src/bayescfar not found)",
              file=sys.stderr)
        return 2
    env = environment(root)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    runner = Runner(root, args.workload, args.seed, args.seconds, env)
    try:
        inputs.write_inputs(args.workload, args.seed, runner.workdir)
        runner.spans.parent.mkdir(parents=True, exist_ok=True)
        measure = per_layer if args.trace else end_to_end
        metrics, results, extra_failures = measure(runner)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    first = results[0]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) + extra_failures
    print(f"# digest {args.workload} seed={args.seed} first {first['digest_ops']} ops "
          f"sha256:{first['digest']}")
    print(f"# stats {json.dumps(first['stats'], sort_keys=True)}")
    print(f"# operations attempted {attempted} failed {failed} "
          f"error_rate {failed / attempted!r}")
    for r in results:
        for note in r["failures"]:
            print(f"# failure {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
