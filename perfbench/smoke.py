"""Smoke test of the benchmark itself, at toy sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, and echo-desk, it runs run.py --tiny
twice and
checks that
- the --trace 0 run passes its correctness checks and prints every
  end-to-end metric with the unit BENCHMARK.json gives it, and no other;
- the --trace 1 run does the same for the per-layer metrics, and the
  layers' self times plus harness.other_ms add up to trace.wall_ms;
- eval-5shot records no backward pass.
Last, it checks that run.py fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SELF_TIMES = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".self_ms")]
# Runnable with run.py but left out of BENCHMARK.json (see RESULTS.md).
EXTRA_WORKLOADS = ["echo-desk"]


def run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(failures, what, metrics, spec):
    want = {m["name"]: m["unit"] for m in spec}
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing or extra:
        failures.append("%s: missing %s, unexpected %s" % (what, missing, extra))
    for name, entry in metrics.items():
        if name in want and entry.get("unit") != want[name]:
            failures.append("%s: %s has unit %r, expected %r"
                            % (what, name, entry.get("unit"), want[name]))
        if not isinstance(entry.get("value"), (int, float)):
            failures.append("%s: %s has no numeric value" % (what, name))


def check_workload(failures, workload):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        what = "%s --trace %d" % (workload, trace)
        proc = run(ROOT, workload, trace)
        result = result_of(proc)
        if proc.returncode != 0 or result is None or not result["correct"]:
            failures.append("%s: exit %d\n%s" % (what, proc.returncode,
                                                 proc.stderr[-2000:]))
            continue
        if result["failed"] or result["attempted"] < 1:
            failures.append("%s: attempted %d, failed %d"
                            % (what, result["attempted"], result["failed"]))
        metrics = result["metrics"]
        check_metrics(failures, what, metrics, spec)
        if trace:
            value = {k: v["value"] for k, v in metrics.items()}
            covered = sum(value[name] for name in SELF_TIMES)
            wall = value["trace.wall_ms"]
            if not (value["harness.other_ms"] >= -1e-9
                    and abs(covered + value["harness.other_ms"] - wall) <= 1e-6 * wall):
                failures.append("%s: self times %.6f + other %.6f != wall %.6f"
                                % (what, covered, value["harness.other_ms"], wall))
            if workload == "eval-5shot" and value["autodiff.backward_ms"] != 0:
                failures.append("%s: backward recorded during evaluation" % what)
        print("ok  %s" % what)


def check_bare_directory(failures):
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        if proc.returncode == 0 or result_of(proc) is not None:
            failures.append("without sources: exit %d, result %r"
                            % (proc.returncode, result_of(proc)))
        else:
            print("ok  fails without sources (exit %d)" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    for workload in [w["name"] for w in SPEC["workloads"]] + EXTRA_WORKLOADS:
        check_workload(failures, workload)
    check_bare_directory(failures)
    for failure in failures:
        print("FAIL %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
