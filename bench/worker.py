"""One fresh interpreter running one pass of a workload; started by run.py.

Modes:

``run``      closed loop for ``--seconds``; every output is checked.
``replay``   the first ``--ops`` operations of the same stream, traced, then
             one fixed operation that calls every traced layer once, so that
             every per-layer metric is measured on every workload.
``probe``    stand-alone timings: Q(sqrt 5) multiply, group build, cold
             symmetric powers with a time cap, each verify section, the
             import of the CLI, and malformed facts documents fed to it.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import icosym
import icosym.cli
from icosym import isobaric

from spans import Tracer
from speed import Speed
from workloads import WORKLOADS, Outcome, Universe, constituent

ROOT = Path(__file__).resolve().parent.parent
SYM_CAP_S = 2.0  # time cap of each cold symmetric-power probe


def loop(workload, limit_s: float | None, limit_ops: int | None, tracer=None) -> dict:
    failures: list[str] = []
    notes: dict[str, int] = {}
    verdicts = definite = 0
    spans: list[tuple[float, float]] = []  # (start, end) of each operation
    kinds: list[str] = []  # the kind of each operation
    speed = Speed()
    start = time.perf_counter()
    for index, op in enumerate(workload.ops()):
        if limit_ops is not None and index >= limit_ops:
            break
        if limit_s is not None and time.perf_counter() - start >= limit_s:
            break
        arg = workload.prepare(op)
        if tracer is not None:
            tracer.op = index
        problem = None
        t0 = time.perf_counter()
        try:
            out = run_op(workload, op, arg, index, tracer)
        except Exception as err:  # an operation that raises has failed
            problem = f"op {index}: raised {err!r}"
        spans.append((t0, time.perf_counter()))
        kinds.append(op["kind"] if isinstance(op, dict) else op[0])
        speed.sample(spans[-1][1] - t0)
        if problem is None:
            outcome: Outcome = workload.check(op, out)
            verdicts += outcome.verdicts
            definite += outcome.definite
            if outcome.note:
                notes[outcome.note] = notes.get(outcome.note, 0) + 1
            if not outcome.ok:
                problem = f"op {index}: {outcome.problem}"
        if problem is not None:
            failures.append(problem)
    if tracer is None:  # the untraced pass has checked the same operations
        failures += workload.finish()
    raw = [t1 - t0 for t0, t1 in spans]
    scaled = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    by_kind: dict[str, dict] = {}
    for kind, seconds, raw_seconds in zip(kinds, scaled, raw):
        entry = by_kind.setdefault(kind, {"ops": 0, "busy_s": 0.0, "raw_busy_s": 0.0})
        entry["ops"] += 1
        entry["busy_s"] += seconds
        entry["raw_busy_s"] += raw_seconds
    return {
        "ops": len(spans),
        "failed": len(failures),
        "failures": failures[:10],
        "latencies": scaled,
        "raw_latencies": raw,
        "busy_s": sum(scaled),
        "wall_s": time.perf_counter() - start,
        "verdicts": verdicts,
        "definite": definite,
        "notes": notes,
        "kinds": by_kind,
        "mix": dict(workload.MIX),
        "scale": speed.scale(),
    }


def run_op(workload, op, arg, index, tracer):
    if tracer is None or workload.name != "cli":
        return workload.run(op, arg)
    # a traced CLI operation runs under the benchmark's own runner, which
    # writes its spans to a file merged here
    path = ROOT / ".bench_out" / f"cli-spans-{index}.json"
    runner = [sys.executable, str(ROOT / "bench" / "clitrace.py"), str(path), str(index)]
    try:
        return workload.run(op, arg, command=runner)
    finally:
        if path.exists():
            tracer.absorb(json.loads(path.read_text()))
            path.unlink()


def sweep() -> None:
    """One call into every traced layer at a tiny size."""
    tab = icosym.default_table()
    tab.decompose(tab.sym_power("X'", 7))
    icosym.scan_trivial(12)
    icosym.siegel_report(12)
    universe = Universe.generate(random.Random(0), scale=0.4)
    ledger = icosym.load_facts(universe.doc)
    p, q = ledger.bases["b4"], ledger.bases["b6"]
    icosym.decide_cuspidality(p, q, ledger)
    icosym.decide_cuspidality_via_poles(p, q, ledger)
    terms = ("Ad(b4)", "Ad(b6)", "b2", "chi0")
    icosym.pole_order(isobaric.IsobaricExpr.of((constituent(s, ledger), 1) for s in terms), ledger)
    icosym.evaluate(icosym.parse("sym^3(X')*dual(W) + U"))
    with contextlib.redirect_stdout(io.StringIO()):
        icosym.cli.cmd_dispatch(["irreps", "--m", "2", "--json"])


# -- probes -------------------------------------------------------------------


def median_time(fn, repeats: int, speed: Speed) -> float:
    return statistics.median(speed.measure(fn) for _ in range(repeats))


class CapReached(Exception):
    pass


def _alarm(signum, frame):
    raise CapReached


def cold_sym_power_ms(group, n: int, speed: Speed) -> tuple[float, bool]:
    """Time sym_power(X', n) on a fresh table; when the cap stops it, the
    time until then and True."""
    tab = icosym.CharacterTable(group=group)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SYM_CAP_S)
    try:
        tab.sym_power("X'", n)
        capped = False
    except CapReached:
        capped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.perf_counter()
    speed.sample(t1 - t0)
    return (t1 - t0) * speed.scale(t0, t1) * 1e3, capped


def slug(section: str) -> str:
    """``"finite-group classification"`` -> ``"finite_group_classification"``."""
    return re.sub(r"[^a-z0-9]+", "_", section.lower()).strip("_")


# facts documents that are malformed in shape; each is due exit 2
MALFORMED_FACTS = (
    {"bases": "pi"},
    {"bases": [5]},
    {"characters": {"name": "chi"}},
    {"facts": [["Ad(pi)", "Ad(pi)"]]},
    {"bases": [{"name": "pi", "type": "icosahedral", "galois_row": "Q"}],
     "facts": [{"lhs": "Ad(pi)", "rhs": "sym^3(pi)", "relation": "equiv", "truth": False}]},
    {"bases": [{"name": 7, "type": "icosahedral"}]},
    {"siegel": ["pi"]},
    {"bases": [{"name": "pi", "type": "icosahedral"}], "cuspidal": [{"symbol": "sym^x(pi)"}]},
)


def malformed_wrong_exits(workdir: Path) -> int:
    """How many malformed facts documents get another outcome than exit 2."""
    wrong = 0
    path = workdir / "malformed.json"
    for doc in MALFORMED_FACTS:
        path.write_text(json.dumps(doc))
        argv = ["cuspidality", "--facts", str(path), "--pi", "pi", "--pi-prime", "pi"]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = icosym.cli.cmd_dispatch(argv)
        except Exception:  # a traceback where exit 2 was due
            code = None
        wrong += code != 2
    return wrong


def probe(workdir: Path) -> dict[str, float]:
    """Stand-alone timings, at nominal speed."""
    from icosym.group import GroupTable
    from icosym.verify import VERIFY_SECTIONS

    out: dict[str, float] = {}
    speed = Speed()
    out["group.build_ms"] = median_time(GroupTable, 5, speed) * 1e3
    tab = icosym.default_table()
    values = [v for name in icosym.IRREP_NAMES for v in tab.row(name).values]
    pairs = [(a, b) for a in values for b in values]

    def multiply_all():
        for a, b in pairs:
            a * b

    out["scalar.mul_us"] = median_time(multiply_all, 5, speed) / len(pairs) * 1e6
    signal.signal(signal.SIGALRM, _alarm)
    timeouts = 0
    for n in (10, 1000, 100000):
        ms, capped = cold_sym_power_ms(tab.group, n, speed)
        timeouts += capped
        out[f"chartab.sym_power_cold_ms.n{n}"] = ms
    out["chartab.sym_power_cold.timeouts"] = timeouts
    for title, run in VERIFY_SECTIONS:
        out[f"verify.section_s.{slug(title)}"] = speed.measure(run)
    code = "import time; t = time.perf_counter(); import icosym.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        seconds = float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True, timeout=60).stdout)
        t1 = time.perf_counter()
        speed.sample(t1 - t0)
        imports.append(seconds * speed.scale(t0, t1))
    out["cli.import_ms"] = statistics.median(imports) * 1e3
    out["cli.malformed_facts_wrong_exit"] = malformed_wrong_exits(workdir)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "replay", "probe"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args()
    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)
    icosym.default_table()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF

    if args.mode == "probe":
        result = {"probes": probe(workdir)}
    else:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.mode == "replay":
            tracer = Tracer()
            tracer.install()
        result = loop(workload, args.seconds, args.ops, tracer)
        if tracer is not None:
            tracer.op = "sweep"
            sweep()
            result["layers"] = tracer.metrics(result["scale"])
            tracer.dump(args.spans)
    result["maxrss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
