"""Benchmark of icosym: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload tower --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of one closed-loop run.
``--trace 1`` runs the workload untraced for half the time, replays the same
operations with every layer boundary traced, runs the stand-alone probes,
and prints the per-layer metrics.  Each pass is a fresh interpreter, so the
process-wide caches start cold.  Run from the root of a source checkout;
nothing needs building.  Details of the run (seed, source, interpreter,
machine, sample counts, failures) go to ``.bench_out/``, and in the line
before the last of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("tower", "ledger", "cli")
SETUP_STARTS = 7
PASS_TIMEOUT_S = 150

# what a fresh interpreter does before a workload can start
SETUP_CODE = {
    "tower": "import icosym; icosym.default_table()",
    "ledger": "import icosym; icosym.default_table()",
    "cli": "import icosym.cli",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Fresh-interpreter start until the workload's set-up is done, at
    nominal speed and raw; the first start (which may write byte code) is
    not counted."""
    code = SETUP_CODE[workload] + "; print('ready', flush=True)"
    scaled, raw = [], []
    speed = Speed()
    for _ in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                env=child_env(), text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"set-up of {workload} failed")
        speed.sample(t1 - t0)
        raw.append(t1 - t0)
        scaled.append(raw[-1] * speed.scale(t0, t1))
    return scaled[1:], raw[1:]


def worker(mode: str, workload: str, seed: int, *extra: str) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"), mode,
            "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} pass of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: every order statistic
    weighted by the Beta((n+1)p, (n+1)(1-p)) density at its rank (midpoint
    rule).  It varies less from run to run than a single order statistic."""
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * x for w, x in zip(weights, sorted_values)) / sum(weights)


def mix_rate(result: dict, busy: str = "busy_s") -> float:
    """Operations per second of busy time at the workload's stated mix: the
    inverse of the mix-weighted mean latency of the kinds of operation.

    Unlike operations over busy time, it does not depend on where the run
    happened to stop; on ``cli`` that decides whether one more ``verify
    all``, some twenty times as long as another command, is counted.  A
    kind the run never reached (in runs of a few seconds only) is left out.
    """
    kinds = result["kinds"]
    weights = {kind: w for kind, w in result["mix"].items() if kind in kinds}
    mean = sum(w * kinds[kind][busy] / kinds[kind]["ops"] for kind, w in weights.items())
    return sum(weights.values()) / mean


def end_to_end(result: dict, setup: list[float], raw_setup: list[float]) -> tuple[dict, dict]:
    """Metrics at nominal speed; the details keep the raw timings."""
    lat = sorted(result["latencies"])
    raw = sorted(result["raw_latencies"])
    p90 = quantile(lat, 0.9)
    metrics = {
        "ops_per_s": mix_rate(result),
        "op_p50_ms": quantile(lat, 0.5) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "ok_frac": (result["ops"] - result["failed"]) / result["ops"],
        "decided_frac": result["definite"] / max(result["verdicts"], 1),
        "peak_rss_mb": result["maxrss_mb"],
        "setup_s": statistics.median(setup),
    }
    details = {
        "samples": len(lat),
        "beyond_p90": sum(x > p90 for x in lat),
        "verdicts": result["verdicts"],
        "kinds": {kind: {"ops": k["ops"], "busy_share": k["busy_s"] / result["busy_s"]}
                  for kind, k in sorted(result["kinds"].items())},
        "speed_scale": result["scale"],
        "raw_ops_per_s": mix_rate(result, "raw_busy_s"),
        "raw_op_p50_ms": quantile(raw, 0.5) * 1e3,
        "raw_op_p90_ms": quantile(raw, 0.9) * 1e3,
        "wall_s": result["wall_s"],
        "raw_setup_starts_s": raw_setup,
    }
    return metrics, details


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "icosym").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "icosym" / "__init__.py").is_file():
        print(f"error: no icosym sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    # every process of the run shares one CPU, so that the speed bursts of a
    # pass measure the CPU that its operations, and CLI children, ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w, seed = args.workload, args.seed
    setup, raw_setup = setup_seconds(w)
    if args.trace == 0:
        result = worker("run", w, seed, "--seconds", str(args.seconds))
        metrics, details = end_to_end(result, setup, raw_setup)
        passes = [result]
    else:
        plain = worker("run", w, seed, "--seconds", str(args.seconds / 2))
        spans_path = OUT / f"spans-{w}-{seed}.json"
        traced = worker("replay", w, seed, "--ops", str(plain["ops"]), "--spans", str(spans_path))
        probes = worker("probe", w, seed)["probes"]
        metrics = {**traced["layers"], **probes}
        metrics["trace.overhead_frac"] = traced["busy_s"] / plain["busy_s"] - 1
        details = {"replayed_ops": plain["ops"], "spans_file": spans_path.name,
                   "speed_scales": [plain["scale"], traced["scale"]],
                   "timeouts": probes["chartab.sym_power_cold.timeouts"]}
        passes = [plain, traced]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes: dict[str, int] = {}
    for p in passes:
        for note, count in p["notes"].items():
            notes[note] = notes.get(note, 0) + count
    record = {
        "workload": w,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_identity(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": " ".join(platform.uname()[i] for i in (0, 2, 4)),
        "failures": [f for p in passes for f in p["failures"]],
        "notes": notes,
        **details,
        "metrics": metrics,
    }
    (OUT / f"result-{w}-{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
