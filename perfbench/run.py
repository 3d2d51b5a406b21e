"""protoseg benchmark: one workload, one process, one JSON result.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from its `src/`
with PROTOSEG_THREADS=1, set before `protoseg` (and so numpy) is imported.
The workloads are in workloads.py, the span tracer in tracing.py. One
client drives the program in a closed loop: each call starts when the
last one has returned.

--trace 0 measures whole cycles (one call per class fold), starting
another while at least half of one fits in --seconds, and prints the
end-to-end metrics. --trace 1 runs cycle 0 untraced, traced, and untraced
again, and prints the per-layer metrics of the traced cycle; the tracing
overhead compares its wall time with the untraced ones. Every run checks
the outputs; a failed check or an exception marks the episodes of that
call as failed, and `failed / attempted` is the error rate.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it list every metric
with its unit, the quality figures, sample counts and the environment.
A full record (and, with --trace 1, every span) goes to .perfbench/.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout holds no protoseg sources.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="toy model sizes, for the smoke test")
    return ap.parse_args(argv)


def import_protoseg():
    if not (SRC / "protoseg" / "__init__.py").is_file():
        print("perfbench: no protoseg sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    # protoseg derives the BLAS thread variables from PROTOSEG_THREADS.
    os.environ["PROTOSEG_THREADS"] = "1"
    for var in BLAS_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import protoseg
    if Path(protoseg.__file__).resolve().parent != SRC / "protoseg":
        print("perfbench: imported protoseg from %s, not from %s"
              % (protoseg.__file__, SRC), file=sys.stderr)
        sys.exit(2)


IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import protoseg.harness"


def import_seconds() -> float:
    """Wall time from starting a fresh interpreter to protoseg imported."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("PROTOSEG_THREADS",) + BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "machine": platform.machine(),
    }


class Ledger:
    """Runs calls, counts attempted and failed episodes, and compares the
    outputs of calls with equal inputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict = {}
        self.repeats = 0

    def run(self, call):
        self.attempted += call.episodes
        try:
            res = call.run()
        except Exception:
            traceback.print_exc()
            self.failed += call.episodes
            self.problems.append("%s raised" % (call.key,))
            return None
        problems = list(res.problems)
        if call.key in self.outputs:
            self.repeats += 1
            if self.outputs[call.key] != res.outputs:
                problems.append("same-seed repeat of %s gave different outputs"
                                % (call.key,))
        else:
            self.outputs[call.key] = res.outputs
        if problems:
            self.failed += call.episodes
            self.problems += problems
        return res


def run_cycles(wl, ledger, seconds, max_cycles=None):
    """Whole cycles 0, 1, ..., starting another while at least half of it
    fits before `seconds` have passed."""
    cycles = []
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        cycle = []
        for call in wl.cycle(len(cycles)):
            res = ledger.run(call)
            if res is None:
                return cycles
            cycle.append(res)
        cycles.append(cycle)
        now = time.perf_counter()
        if max_cycles is not None and len(cycles) >= max_cycles:
            return cycles
        if now - t0 + 0.5 * (now - c0) > seconds:
            return cycles


def percentile(values, q):
    import numpy
    return float(numpy.percentile(values, q)) if values else float("nan")


def quality(cycles) -> dict:
    """Mean over the folds of the first cycle; deterministic per seed."""
    out = {}
    for key, unit in (("loss_tail", "nats"), ("miou", "1")):
        vals = [r.quality[key] for r in cycles[0] if key in r.quality] if cycles else []
        if vals:
            out[key] = {"value": statistics.fmean(vals), "unit": unit}
    return out


def blocks(cycles) -> list[float]:
    """Throughput of each block: piece j of every call in one cycle. A
    block holds every fold once, so blocks do equal work."""
    out = []
    for cycle in cycles:
        for pieces in zip(*(r.parts for r in cycle)):
            out.append(sum(n for n, _ in pieces) / sum(t for _, t in pieces))
    return out


def end_to_end(cycles, setup_s):
    calls = [r for c in cycles for r in c]
    throughput = blocks(cycles)
    epoch_s = [t for r in calls for t in r.epoch_s]
    metrics = {
        "episodes_per_s": (statistics.median(throughput), "1/s"),
        "epoch_ms_p50": (1000 * percentile(epoch_s, 50), "ms"),
        "epoch_ms_p90": (1000 * percentile(epoch_s, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    samples = {"cycles": len(cycles), "calls": len(calls),
               "call_s": [r.seconds for r in calls],
               "episodes": sum(r.episodes for r in calls),
               "measured_s": sum(r.seconds for r in calls),
               "throughput_blocks": len(throughput),
               "epoch_samples": len(epoch_s)}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import_protoseg()
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / ("work-%s-%d" % (args.workload, os.getpid()))
    work_dir.mkdir()
    try:
        return measure(args, workloads, tracing, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def set_up(wl, ledger, tracer) -> float:
    """Runs the workload's set-up setup_repeats times and returns setup_s:
    process start to the first workload call, as a fresh interpreter's
    import of protoseg plus the workload's own set-up, each the median of
    the tries. With a tracer, the last try is traced."""
    setup_times, import_times = [], []
    for i in range(wl.setup_repeats):
        import_times.append(import_seconds())
        if tracer is not None and i == wl.setup_repeats - 1:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            ledger.problems += wl.setup()
        except Exception:
            traceback.print_exc()
            ledger.problems.append("set-up raised")
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if ledger.problems:
            # Nothing can be measured without a set-up.
            ledger.attempted = ledger.failed = 1
            break
    return statistics.median(import_times) + statistics.median(setup_times)


def untraced_run(wl, ledger, seconds, setup_s, record):
    cycles = run_cycles(wl, ledger, seconds)
    if not cycles:
        return cycles, {}
    if not wl.repeats_inside and ledger.repeats == 0:
        ledger.run(wl.cycle(0)[0])         # untimed same-seed repeat
    metrics, record["samples"] = end_to_end(cycles, setup_s)
    return cycles, metrics


def traced_run(wl, ledger, tracer, tracing, record):
    """Cycle 0 untraced, traced, untraced again; the overhead compares the
    traced wall time with the mean of the two untraced ones."""
    cycles = run_cycles(wl, ledger, 0, max_cycles=1)
    if not cycles:
        return cycles, {}
    del tracer.tape_nodes[:]                # drop what the set-up recorded
    del tracer.tape_peak_bytes[:]
    first = tracer.mark()
    wl.tracer = tracer
    try:
        traced = run_cycles(wl, ledger, 0, max_cycles=1)
    finally:
        wl.tracer = None
    if not traced:
        return cycles, {}
    window = tracer.mark()
    cycles += run_cycles(wl, ledger, 0, max_cycles=1)
    if len(cycles) < 2:
        return cycles, {}
    untraced_s = statistics.fmean(sum(r.seconds for r in c) for c in cycles)
    metrics, record["trace"] = tracing.layer_metrics(
        tracer, first, window, traced[0], untraced_s)
    tracer.write(OUT / ("spans-%s.json" % wl.name))
    return cycles, metrics


def measure(args, workloads, tracing, work_dir) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir, args.tiny)
    ledger = Ledger()
    tracer = tracing.Tracer() if args.trace else None
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "why": wl.why, "layers": wl.layers}
    cycles, metrics = [], {}
    if tracer is not None:
        tracer.install()
    try:
        setup_s = set_up(wl, ledger, tracer)
        if not ledger.problems and tracer is not None:
            cycles, metrics = traced_run(wl, ledger, tracer, tracing, record)
        elif not ledger.problems:
            cycles, metrics = untraced_run(wl, ledger, args.seconds, setup_s,
                                           record)
    finally:
        if tracer is not None:
            tracer.uninstall()

    correct = not ledger.problems and ledger.failed == 0 and bool(metrics)
    if not correct:
        metrics = {}
    record.update(quality=quality(cycles), environment=environment(),
                  problems=ledger.problems,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    with open(OUT / ("result-%s-seed%d-trace%d.json"
                     % (wl.name, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for problem in ledger.problems:
        print("check failed: %s" % problem, file=sys.stderr)
    if "samples" in record:
        print("samples = %s" % json.dumps(record["samples"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))
    for name, entry in record["quality"].items():
        print("quality %s = %.6f %s" % (name, entry["value"], entry["unit"]))
    print("env = %s" % json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(ledger.attempted, 1),
                      "failed": ledger.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
