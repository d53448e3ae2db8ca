"""Seeded input generation for the benchmark workloads.

Needs numpy only, so the orchestrator can build every input before a worker
interpreter starts and before any timing. The same seed always gives the same
files; the program under test only ever sees what is written here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PROFILE_CELLS = 1024
PROFILE_POOL = 64          # profiles per seed; workers cycle through them
CLI_PROFILE_CELLS = 20_000
TARGET_FRACTION = 0.01
GOLDEN = (5**0.5 - 1) / 2
CERTIFY_ROUNDS = 4096      # seeds for more rounds than any run can reach
CROSSCHECK_MODELS = 1024
CROSSCHECK_DECADES = (-2, 0, 2, 4)

# stream tags keep the workloads' random streams apart for the same seed
_STREAMS = {"scan": 1, "certify": 2, "crosscheck": 3, "cli": 4}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


def range_profiles(rng: np.random.Generator, count: int, cells: int) -> np.ndarray:
    """Exponential clutter with a x10 power edge mid-profile and ~1% targets.

    Each profile's clutter power is log-uniform over two decades; targets are
    Swerling-1 (exponential, mean scaled by 1 + SNR) at 10-20 dB.

    The cost of the exact-arithmetic os_pfa tier depends on the magnitude of
    the values, so the powers follow a golden-ratio sequence from a seeded
    start: every run of consecutive profiles covers the two decades evenly,
    whatever the seed.
    """
    offset = rng.random()
    fraction = (offset + GOLDEN * np.arange(count)) % 1.0
    power = 10.0 ** (2.0 * fraction[:, None])
    mean = np.repeat(power, cells, axis=1)
    mean[:, cells // 2:] *= 10.0
    targets = rng.random((count, cells)) < TARGET_FRACTION
    snr = 10.0 ** (rng.uniform(10.0, 20.0, size=(count, cells)) / 10.0)
    mean = np.where(targets, mean * (1.0 + snr), mean)
    return rng.standard_exponential((count, cells)) * mean


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the inputs of one workload and seed into workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload in ("scan_os", "scan_ca_min"):
        rng = _rng(seed, "scan")
        np.save(workdir / "profiles.npy", range_profiles(rng, PROFILE_POOL, PROFILE_CELLS))
    elif workload == "certify":
        seeds = np.random.SeedSequence([seed, _STREAMS["certify"]]).generate_state(
            CERTIFY_ROUNDS * 3, np.uint64
        )
        np.save(workdir / "seeds.npy", seeds.reshape(CERTIFY_ROUNDS, 3))
    elif workload == "crosscheck":
        # model i has scale t near 10**CROSSCHECK_DECADES[i % 4]; the seed moves
        # it by up to a factor sqrt(2). Quadrature cost depends on the decade,
        # so every whole cycle of four models covers each decade once
        rng = _rng(seed, "crosscheck")
        decades = np.resize(CROSSCHECK_DECADES, CROSSCHECK_MODELS)
        np.save(workdir / "t.npy", 10.0 ** (decades + rng.uniform(-0.15, 0.15, CROSSCHECK_MODELS)))
    elif workload == "cli":
        rng = _rng(seed, "cli")
        # twenty 1000-cell profiles back to back, so the powers are spread as above
        profile = range_profiles(rng, 20, CLI_PROFILE_CELLS // 20).ravel()
        with open(workdir / "profile.csv", "w", encoding="ascii") as sink:
            sink.writelines(f"{x!r}\n" for x in profile.tolist())
        params = {
            "t": float(10.0 ** rng.uniform(-1.0, 1.0)),
            "sim_seed": int(rng.integers(0, 2**63)),
        }
        (workdir / "cli.json").write_text(json.dumps(params), encoding="ascii")
    else:
        raise ValueError(f"unknown workload {workload!r}")
