"""One fresh interpreter of a benchmark run.

run.py starts it as `python3 perfbench/worker.py <config.json>` with
PYTHONPATH pointing at the checkout's src/. It imports bayescfar, warms the
workload up, notes the moment it is ready (setup ends there), and then,
unless it only measures setup, runs the workload's closed loop and writes a
JSON result to the path the config names.

Modes: "setup" stops when ready; "run" loops for the given seconds (at least
the workload's digest ops); "trace" runs exactly the given number of ops with
the tracing wrappers installed, then the trace-only probes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from time import monotonic, perf_counter

import reference

# stop a traced loop early rather than hold more spans than this in memory
SPAN_CAP = 2_000_000


def _import_package(root: Path):
    import bayescfar

    src = (root / "src").resolve()
    location = Path(bayescfar.__file__).resolve()
    if src not in location.parents:
        raise SystemExit(f"bayescfar imported from {location}, not from {src}")
    return bayescfar


def run_worker(config: dict) -> dict:
    root = Path(config["root"])
    _import_package(root)
    import tracing
    import workloads

    mode = config["mode"]
    tracer = tracing.Tracer() if mode == "trace" else tracing.NullTracer()
    workload = workloads.make(config["workload"], Path(config["workdir"]), root, tracer)
    workload.warmup()
    t_ready = monotonic()
    # its first reference sample, taken now, closes the set-up interval
    clock = reference.Clock(tracer.span, workload.cores)
    if mode == "setup":
        clock.close()
        return {"t_ready": t_ready, "ref_s": clock.samples}
    workload.split = clock.split

    ops = config.get("ops")
    seconds = config["seconds"]
    op_s, op_scaled_s, op_end, parts, failures = [], [], [], [], []
    work = 0.0
    if mode == "trace":
        tracer.install()
    start = perf_counter()
    try:
        i = 0
        while True:
            if ops is not None:
                if i >= ops or (i >= workload.digest_ops and len(tracer.start) > SPAN_CAP):
                    break
            elif (i >= workload.digest_ops and i % workload.cycle == 0
                  and perf_counter() - start >= seconds):
                break
            with tracer.span("bench.op"):
                clock.start()
                try:
                    out, error = workload.op(i), None
                except Exception as exc:  # a failed operation, not a failed run
                    out, error = None, exc
                clock.split()
            # the benchmark's own checks may call the library; keep them out of its layers
            with tracer.span("bench.check"), tracer.suspended():
                if error is not None:
                    outcome = workloads.Outcome(False, repr(error).encode(), 0, f"raised {error!r}")
                else:
                    try:
                        outcome = workload.check(i, out)
                    except Exception as exc:
                        outcome = workloads.Outcome(False, b"", 0, f"check raised {exc!r}")
            op_s.append(clock.raw_s)
            op_scaled_s.append(clock.scaled_s)
            op_end.append(perf_counter() - start)
            parts.append(outcome.digest)
            work += outcome.work
            if not outcome.ok:
                failures.append(f"op {i}: {outcome.note}")
            i += 1
    finally:
        tracer.uninstall()
        clock.close()

    digest_ops = workload.digest_ops
    result = {
        "t_ready": t_ready,
        "attempted": len(op_s),
        "failed": len(failures),
        "failures": failures[:5],
        "work": work,
        "unit": workload.unit,
        "op_s": op_s,
        "op_scaled_s": op_scaled_s,
        "op_end": op_end,
        "ref_s": clock.samples,
        "digest": hashlib.sha256(b"".join(parts[:digest_ops])).hexdigest()[:16],
        "digest_ops": digest_ops,
        "stats": workload.stats(),
    }
    if mode == "trace":
        result["trace"] = tracer.summary()
        if config.get("spans"):
            tracer.save(Path(config["spans"]))
        result["probe"] = {
            "threshold": workloads.threshold_probe(tracing.Tracer()),
            **workload.probe(tracing.Tracer()),
        }
    return result


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run_worker(config)
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
