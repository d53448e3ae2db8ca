"""The benchmark workloads: what one timed operation is, and how it is checked.

Imported only inside worker interpreters, after bayescfar. Every workload is
a closed loop driven by worker.py: one caller, the next operation starts when
the previous one has returned and been checked. Checks share no code with the
path they check and never raise; a failed check marks the operation failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import bayescfar.cli as cli
import bayescfar.predictive as predictive
import bayescfar.simulate as simulate
from bayescfar.clutter_models import ExponentialClutter
from bayescfar.detectors import DetectorSpec, bayes_os_threshold

WINDOW_N = 16
OS_K = 12
LEAD = TRAIL = WINDOW_N // 2
SCAN_PFA = 1e-3
# cells whose cut value lies this close to the threshold are not judged
BOUNDARY_REL = 1e-9

CERTIFY_FAMILIES = ("bayes_os", "ca_cfar", "min_cfar")
CERTIFY_PFA = 0.01
CERTIFY_TRIALS = 2**17       # two blocks a point: one per worker at two workers
LAMBDA_GRID = (0.5, 1.0, 2.0, 10.0)
CERTIFY_SE_LIMIT = 5.0

CROSSCHECK_SHAPES = ((4, 2), (8, 6), (16, 12), (24, 18))
TAU_RATIOS = (0.5, 2.0, 6.0)
CROSSCHECK_REL = 1e-8          # the criteria 3 and 4 tolerance

CLI_COMMANDS = ("threshold", "pfa", "scan", "simulate")
CLI_SIM_TRIALS = 10**6
CLI_TIMEOUT_S = 120

THRESHOLD_SOLVES = 5           # cold solves timed, then as many traced


def affinity() -> int:
    return len(os.sched_getaffinity(0))


def _spec(family: str, pfa: float) -> DetectorSpec:
    return DetectorSpec(family, WINDOW_N, pfa, k=OS_K if family == "bayes_os" else None)


def oracle_multiplier(family: str, n: int, k: int, pfa: float) -> float:
    """Threshold multiplier from closed forms only, sharing no package code.

    The OS rule uses the product form Pfa(x) = prod_{j<k} (n-j)/(n-j+x) of the
    predictive false-alarm curve at unit order statistic, solved by bisection
    on its logarithm.
    """
    if family == "ca_cfar":
        return pfa ** (-1.0 / n) - 1.0
    if family == "min_cfar":
        return n * (1.0 / pfa - 1.0)
    target = -math.log(pfa)

    def log_inverse_pfa(x: float) -> float:
        return math.fsum(math.log1p(x / (n - j)) for j in range(k))

    lo, hi = 0.0, 1.0
    while log_inverse_pfa(hi) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if log_inverse_pfa(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_verdicts(profile: np.ndarray, family: str, multiplier: float) -> tuple[np.ndarray, np.ndarray]:
    """H1 flags for every cell with a full window, and the near-boundary mask."""
    rows = sliding_window_view(profile, WINDOW_N + 1)
    cut = rows[:, LEAD]
    window = np.concatenate([rows[:, :LEAD], rows[:, LEAD + 1:]], axis=1)
    if family == "bayes_os":
        stat = np.partition(window, OS_K - 1, axis=1)[:, OS_K - 1]
    elif family == "ca_cfar":
        stat = window.sum(axis=1)
    else:
        stat = window.min(axis=1)
    threshold = multiplier * stat
    return cut > threshold, np.abs(cut - threshold) <= BOUNDARY_REL * threshold


def _h1_flags(decisions) -> np.ndarray:
    return np.fromiter((d.verdict == "H1" for d in decisions), dtype=bool, count=len(decisions))


@dataclass
class Outcome:
    ok: bool
    digest: bytes
    work: float
    note: str = ""


class Workload:
    """One timed operation per op(i); check(i, out) judges it afterwards."""

    unit = ""
    digest_ops = 1      # the first ops, always run, whose outputs form the digest
    cycle = 1           # a timed loop only stops after a whole number of cycles
    cores = 1           # cores the op keeps busy; the reference loop runs on as many

    def __init__(self, workdir: Path, root: Path, tracer):
        self.workdir = workdir
        self.root = root
        self.tracer = tracer

    def split(self) -> None:
        """Marks a point between library calls where a long op may be timed in
        segments; the worker replaces it with reference.Clock.split."""

    def warmup(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> Outcome:
        raise NotImplementedError

    def stats(self) -> dict:
        return {}

    def probe(self, tracer) -> dict:
        return {}


class Scan(Workload):
    """scan_profile over generated 1024-cell range profiles."""

    unit = "cells"

    def __init__(self, workdir, root, tracer, families, digest_ops):
        super().__init__(workdir, root, tracer)
        self.profiles = np.load(workdir / "profiles.npy")
        self.lists = [p.tolist() for p in self.profiles]
        self.specs = [_spec(f, SCAN_PFA) for f in families]
        self.layout = simulate.WindowLayout(leading=LEAD, trailing=TRAIL)
        self.digest_ops = digest_ops
        self._oracle: dict[int, list] = {}
        self.near_boundary = 0

    def warmup(self):
        for spec in self.specs:
            simulate.scan_profile(self.lists[0][:4 * WINDOW_N], spec, self.layout)

    def op(self, i):
        profile = self.lists[i % len(self.lists)]
        out = []
        for spec in self.specs:
            with self.tracer.span("simulate.scan_profile"):
                out.append(simulate.scan_profile(profile, spec, self.layout))
        return out

    def _expected(self, j: int) -> list:
        if j not in self._oracle:
            self._oracle[j] = [
                oracle_verdicts(
                    self.profiles[j], s.family.value,
                    oracle_multiplier(s.family.value, s.n, s.k or 1, s.design_pfa),
                )
                for s in self.specs
            ]
        return self._oracle[j]

    def check(self, i, out):
        digest = hashlib.sha256()
        notes = []
        work = 0
        for spec, decisions, (want, near) in zip(self.specs, out, self._expected(i % len(self.lists))):
            family = spec.family.value
            if len(decisions) != len(want):
                notes.append(f"{family}: {len(decisions)} decisions, expected {len(want)}")
                continue
            got = _h1_flags(decisions)
            wrong = int(np.count_nonzero((got != want) & ~near))
            if wrong:
                notes.append(f"{family}: {wrong} verdicts differ from the oracle")
            self.near_boundary += int(near.sum())
            digest.update(family.encode() + np.packbits(got).tobytes())
            work += len(decisions)
        return Outcome(not notes, digest.digest(), work, "; ".join(notes))

    def stats(self):
        return {"near_boundary_cells": self.near_boundary}


class Certify(Workload):
    """cfar_sweep per family at the affinity worker count, then a serial leg."""

    unit = "trials"
    digest_ops = 2

    def __init__(self, workdir, root, tracer):
        super().__init__(workdir, root, tracer)
        self.seeds = np.load(workdir / "seeds.npy")
        self.workers = self.cores = affinity()
        self.specs = [_spec(f, CERTIFY_PFA) for f in CERTIFY_FAMILIES]
        # per family: seconds in the parallel sweep, seconds in the serial leg
        self.leg_s = {f: [0.0, 0.0] for f in CERTIFY_FAMILIES}
        self.blocks = 0
        self.redraws = 0

    def warmup(self):
        for spec in self.specs:
            scenario = simulate.Scenario(ExponentialClutter(1.0), spec, 2**17, 0)
            simulate.estimate_pfa(scenario, workers=self.workers)

    def op(self, i):
        out = []
        for j, (spec, seed) in enumerate(zip(self.specs, self.seeds[i % len(self.seeds)])):
            if j:
                self.split()
            scenario = simulate.Scenario(ExponentialClutter(1.0), spec, CERTIFY_TRIALS, int(seed))
            t0 = perf_counter()
            with self.tracer.span("simulate.cfar_sweep"):
                sweep = simulate.cfar_sweep(scenario, LAMBDA_GRID, workers=self.workers)
            t1 = perf_counter()
            # the lambda = 1 point again, same seed, one worker
            serial = simulate.estimate_pfa(replace(scenario, seed=sweep[1].seed), workers=1)
            out.append((spec.family.value, sweep, serial, t1 - t0, perf_counter() - t1))
        return out

    def check(self, i, out):
        se = math.sqrt(CERTIFY_PFA * (1.0 - CERTIFY_PFA) / CERTIFY_TRIALS)
        digest = hashlib.sha256()
        notes = []
        work = 0
        block = getattr(simulate, "BLOCK_SIZE", 65536)
        for family, sweep, serial, parallel_s, serial_s in out:
            hits = [round(r.estimate * r.trials) for r in sweep]
            for rate, report in zip(LAMBDA_GRID, sweep):
                if abs(report.estimate - CERTIFY_PFA) > CERTIFY_SE_LIMIT * se:
                    notes.append(f"{family} lambda={rate}: estimate {report.estimate} "
                                 f"beyond {CERTIFY_SE_LIMIT} SE of {CERTIFY_PFA}")
            serial_hits = round(serial.estimate * serial.trials)
            if serial_hits != hits[1]:
                notes.append(f"{family}: serial hits {serial_hits} != parallel hits {hits[1]}")
            digest.update(f"{family}:{hits}:{serial_hits};".encode())
            reports = [*sweep, serial]
            work += sum(r.trials for r in reports)
            self.blocks += sum(-(-r.trials // block) for r in reports)
            self.redraws += sum(r.degenerate_redraws for r in reports)
            self.leg_s[family][0] += parallel_s
            self.leg_s[family][1] += serial_s
        return Outcome(not notes, digest.digest(), work, "; ".join(notes))

    def stats(self):
        # trials/s at N workers over N x trials/s at one worker, same trials per point
        points = len(LAMBDA_GRID)
        efficiency = {
            f: (points * s / (self.workers * p) if p > 0 else 0.0)
            for f, (p, s) in self.leg_s.items()
        }
        return {"workers": self.workers, "blocks": self.blocks, "degenerate_redraws": self.redraws,
                "parallel_efficiency": efficiency}


class Crosscheck(Workload):
    """Generic quadrature and the OS quadrature oracle against os_pfa."""

    unit = "models"
    digest_ops = 2
    # shapes and scale decades (inputs.CROSSCHECK_DECADES) differ in cost;
    # op i pairs shape i % 4 with decade i % 4, so every run covers each equally
    cycle = len(CROSSCHECK_SHAPES)

    def __init__(self, workdir, root, tracer):
        super().__init__(workdir, root, tracer)
        self.t = np.load(workdir / "t.npy")
        self.posterior_evals = 0
        self.likelihood_evals = 0

    def warmup(self):
        predictive.os_pfa_quadrature(1.0, predictive.OsPredictive(4, 2, 1.0))

    def op(self, i):
        n, k = CROSSCHECK_SHAPES[i % len(CROSSCHECK_SHAPES)]
        t = float(self.t[i % len(self.t)])
        osd = predictive.OsPredictive(n, k, t)
        counts = [0, 0]

        def likelihood(z0, lam):
            counts[0] += 1
            return lam * math.exp(-lam * z0)

        def posterior(lam):
            counts[1] += 1
            return predictive.posterior_lambda_os(lam, osd)

        span = self.tracer.span
        with span("predictive.model_build"):
            model = predictive.PredictiveModel(likelihood, posterior, 1)
        rows = []
        for ratio in TAU_RATIOS:
            self.split()
            tau = ratio * t
            with span("predictive.generic_pfa"):
                generic = predictive.generic_pfa(tau, model)
            with span("predictive.os_pfa_quadrature"):
                quadrature = predictive.os_pfa_quadrature(tau, osd)
            with span("predictive.os_pfa"):
                closed = predictive.os_pfa(tau, osd)
            rows.append((tau, closed, generic, quadrature))
        return n, k, rows, counts

    def check(self, i, out):
        n, k, rows, (likelihood_evals, posterior_evals) = out
        self.likelihood_evals += likelihood_evals
        self.posterior_evals += posterior_evals
        notes = []
        digest = hashlib.sha256()
        for tau, closed, generic, quadrature in rows:
            for label, value in (("generic_pfa", generic), ("os_pfa_quadrature", quadrature)):
                if not abs(value - closed) <= CROSSCHECK_REL * closed:
                    notes.append(f"n={n} k={k} tau={tau!r}: {label} {value!r} vs os_pfa {closed!r}")
            # six digits: stable under last-bit changes, still catches real ones
            digest.update(f"{n},{k},{closed:.6e},{generic:.6e},{quadrature:.6e};".encode())
        return Outcome(not notes, digest.digest(), 1, "; ".join(notes))

    def stats(self):
        return {"posterior_evals": self.posterior_evals, "likelihood_evals": self.likelihood_evals}


class Cli(Workload):
    """Sequential `python -m bayescfar.cli` subprocesses, one round per op."""

    unit = "commands"
    digest_ops = 1
    # a round takes about 9 s; whole pairs of rounds give the median two samples or more
    cycle = 2

    def __init__(self, workdir, root, tracer):
        super().__init__(workdir, root, tracer)
        params = json.loads((workdir / "cli.json").read_text(encoding="ascii"))
        self.t = params["t"]
        self.sim_seed = params["sim_seed"]
        profile = str(workdir / "profile.csv")
        bayes = ["--family", "bayes_os", "--n", str(WINDOW_N), "--k", str(OS_K)]
        self.argv = {
            "threshold": ["threshold", *bayes, "--pfa", repr(SCAN_PFA), "--t", repr(self.t)],
            "pfa": ["pfa", *bayes, "--t", repr(self.t), "--tau-grid", f"0:{20.0 * self.t!r}:101"],
            "scan": ["scan", *bayes, "--pfa", repr(SCAN_PFA), "--profile", profile,
                     "--leading", str(LEAD), "--trailing", str(TRAIL)],
            "simulate": ["simulate", "--family", "ca_cfar", "--n", str(WINDOW_N),
                         "--pfa", repr(SCAN_PFA), "--lambda", "1", "--trials", str(CLI_SIM_TRIALS),
                         "--seed", str(self.sim_seed)],
        }
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.command_s = dict.fromkeys(CLI_COMMANDS, 0.0)
        self._expected = None

    def op(self, i):
        out = {}
        for j, name in enumerate(CLI_COMMANDS):
            if j:
                self.split()
            t0 = perf_counter()
            with self.tracer.span(f"cli.subprocess.{name}"):
                proc = subprocess.run(
                    [sys.executable, "-m", "bayescfar.cli", *self.argv[name]],
                    capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT_S,
                )
            out[name] = (proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0)
        return out

    def expected(self) -> dict:
        # in-process library results for the same inputs, computed once
        if self._expected is None:
            osd = predictive.OsPredictive(WINDOW_N, OS_K, self.t)
            scenario = simulate.Scenario(ExponentialClutter(1.0), _spec("ca_cfar", SCAN_PFA),
                                         CLI_SIM_TRIALS, self.sim_seed)
            profile = np.loadtxt(self.workdir / "profile.csv")
            self._expected = {
                "tau": bayes_os_threshold(_spec("bayes_os", SCAN_PFA), self.t),
                "pfa": lambda tau: predictive.os_pfa(tau, osd),
                "scan": oracle_verdicts(profile, "bayes_os",
                                        oracle_multiplier("bayes_os", WINDOW_N, OS_K, SCAN_PFA)),
                "simulate": simulate.estimate_pfa(scenario).to_dict(),
            }
        return self._expected

    def check(self, i, out):
        want = self.expected()
        notes = []
        digest = hashlib.sha256()
        for name, (code, stdout, stderr, seconds) in out.items():
            self.command_s[name] += seconds
            if code != 0:
                notes.append(f"{name}: exit {code}: {stderr.strip()[-200:]}")
        if notes:
            return Outcome(False, b"", 0, "; ".join(notes))

        tau = json.loads(out["threshold"][1])["tau"]
        if tau != want["tau"]:
            notes.append(f"threshold: tau {tau!r} != library {want['tau']!r}")
        digest.update(repr(tau).encode())

        lines = out["pfa"][1].splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[:1] != ["tau,pfa"] or len(rows) != 101:
            notes.append(f"pfa: {len(rows)} rows under header {lines[:1]}")
        elif any(float(p) != want["pfa"](float(x)) for x, p in rows):
            notes.append("pfa: a row differs from os_pfa in-process")
        digest.update(out["pfa"][1].encode())

        lines = out["scan"][1].splitlines()
        flags, near = want["scan"]
        if lines[:1] != ["cell_index,z0,comparison_value,verdict"] or len(lines) - 1 != len(flags):
            notes.append(f"scan: {len(lines) - 1} rows, expected {len(flags)}")
        else:
            got = np.array([line.rsplit(",", 1)[1] == "H1" for line in lines[1:]])
            wrong = int(np.count_nonzero((got != flags) & ~near))
            if wrong:
                notes.append(f"scan: {wrong} verdicts differ from the oracle")
            digest.update(np.packbits(got).tobytes())

        report = json.loads(out["simulate"][1])
        if report != want["simulate"]:
            notes.append(f"simulate: {report} != library {want['simulate']}")
        digest.update(out["simulate"][1].encode())
        return Outcome(not notes, digest.digest(), len(out), "; ".join(notes))

    def stats(self):
        return {"command_s": dict(self.command_s)}

    def probe(self, tracer):
        """In-process cli.main per command, stdout captured, library calls traced."""
        tracer.install()
        codes = {}
        try:
            for name in CLI_COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    with tracer.span(f"cli.main.{name}"):
                        codes[name] = cli.main(self.argv[name])
        finally:
            tracer.uninstall()
        by_name = tracer.summary()["by_name"]
        return {
            "cli_main": {
                name: {"exit": codes[name], **by_name[f"cli.main.{name}"]} for name in CLI_COMMANDS
            }
        }


WORKLOADS = {
    "scan_os": lambda w, r, t: Scan(w, r, t, ("bayes_os",), digest_ops=4),
    "scan_ca_min": lambda w, r, t: Scan(w, r, t, ("ca_cfar", "min_cfar"), digest_ops=16),
    "certify": Certify,
    "crosscheck": Crosscheck,
    "cli": Cli,
}


def make(name: str, workdir: Path, root: Path, tracer) -> Workload:
    return WORKLOADS[name](workdir, root, tracer)


def threshold_probe(tracer) -> dict:
    """Cold bayes_os threshold solves: median seconds, then traced bisection.

    Each solve uses a design Pfa no other code path uses, so the multiplier
    cache never answers it. This is the only place the traced bisection runs:
    the workloads solve their thresholds during warm-up, before tracing.
    """
    def fresh_spec(j: int) -> DetectorSpec:
        return _spec("bayes_os", 1.0001e-3 + j * 1e-9)

    seconds = []
    for j in range(THRESHOLD_SOLVES):
        t0 = perf_counter()
        bayes_os_threshold(fresh_spec(j), 1.0)
        seconds.append(perf_counter() - t0)
    tracer.install()
    try:
        for j in range(THRESHOLD_SOLVES, 2 * THRESHOLD_SOLVES):
            bayes_os_threshold(fresh_spec(j), 1.0)
    finally:
        tracer.uninstall()
    by_name = tracer.summary()["by_name"]
    bisect = by_name.get("numerics.bisect", {})
    return {
        "cold_s": float(np.median(seconds)),
        "evals_per_solve": by_name.get("predictive.os_pfa", {}).get("calls", 0) / THRESHOLD_SOLVES,
        "bisect_calls_per_solve": bisect.get("calls", 0) / THRESHOLD_SOLVES,
        "bisect_self_s_per_solve": bisect.get("self_s", 0.0) / THRESHOLD_SOLVES,
    }
