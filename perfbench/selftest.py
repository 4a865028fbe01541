#!/usr/bin/env python3
"""Self-tests of the Potluck daemon benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, then checks:
  * the generator's own arithmetic and inputs (perfbench_selftest: the
    percentile floor, the self-time subtraction, seeded op lists);
  * a tiny-size smoke run of every workload, untraced and traced, prints
    every metric BENCHMARK.json names, with its unit, and passes its
    output checks;
  * on recog and churn_tiered, two runs of one seed report the same
    counts, window counters and hit ratios (all but the counts of the
    store's timed maintenance);
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    fails without printing a result.
Exits non-zero when any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark runner next to this file)

TINY = ["--scale", "tiny"]
# Ratios that, like counts, are a function of the seed alone.
SEEDED_RATIOS = ("hit_rate", "hit_accuracy", "compute_saved_frac")
# Counts of the store's once-a-second maintenance: they depend on how
# many ticks land in the window, not on the seed.
TIME_DRIVEN_COUNTS = ("store.compactions", "store.index_rewrites")

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def tiny_run(workload, trace, seed=7):
    """One tiny run; returns (exit code, parsed last line or None)."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=2,
                              trace=trace)
    with tempfile.TemporaryFile(mode="w+",
                                dir=os.path.join(run.ROOT, run.BUILD_ROOT,
                                                 "tmp")) as out:
        code = run.run_generator(args, TINY, stdout=out)
        out.seek(0)
        lines = out.read().strip().splitlines()
    try:
        return code, json.loads(lines[-1])
    except (IndexError, ValueError):
        return code, None


def check_result(result, expected, what):
    if result is None:
        expect(False, what + ": prints a JSON result line")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           what + ": result has exactly correct/attempted/failed/metrics")
    expect(result.get("correct") is True, what + ": output checks pass")
    metrics = result.get("metrics", {})
    missing = [m["name"] for m in expected
               if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    expect(not missing, what + ": every metric with its unit"
           + (" (missing: %s)" % ", ".join(missing) if missing else ""))


def counts(result, bench):
    """The count metrics of a per-layer result that the seed fixes."""
    metrics = result["metrics"]
    names = [m["name"] for m in bench["per_layer"]
             if m["unit"] == "count" and m["name"] not in TIME_DRIVEN_COUNTS]
    return {n: metrics[n]["value"] for n in names if n in metrics}


def bare_directory_fails():
    bare = os.path.join(run.ROOT, run.BUILD_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recog", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py fails without a result outside a source tree")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.build()
    expect(subprocess.call([run.SELFTEST], cwd=run.ROOT) == 0,
           "perfbench_selftest")

    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s --trace %d (tiny)" % (workload, trace)
            code, result = tiny_run(workload, trace)
            expect(code == 0, what + ": exits 0")
            check_result(result, bench[kind], what)

    for workload in ("recog", "churn_tiered"):
        _, a = tiny_run(workload, 1, seed=11)
        _, b = tiny_run(workload, 1, seed=11)
        _, c = tiny_run(workload, 0, seed=11)
        _, d = tiny_run(workload, 0, seed=11)
        if None in (a, b, c, d):
            expect(False, workload + ": same-seed runs print results")
            continue
        expect(counts(a, bench) == counts(b, bench),
               workload + ": one seed repeats every count exactly")
        expect(all(c["metrics"][n]["value"] == d["metrics"][n]["value"]
                   for n in SEEDED_RATIOS),
               workload + ": one seed repeats the hit ratios exactly")

    bare_directory_fails()
    print("selftest " + ("FAILED: " + "; ".join(failures) if failures
                         else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
