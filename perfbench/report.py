"""Steadiness report: two sets of benchmark runs of the same code.

    python3 perfbench/report.py

For each workload this makes RUNS untraced runs (set A), then RUNS more
(set B), every run with its own seed and BENCHMARK.json's ``run_seconds``.
For each end-to-end metric it prints each set's median, quartiles, op
counts and spread (interquartile range over median), and whether both
spreads and the shift between the two sets' medians are within the
metric's bound in BENCHMARK.json; ``setup_s`` is held to its bound like
the rest.  It then makes one traced run on each of two seeds,
requires the exact per-layer counts to be identical across them, and
prints the tracing overhead: the traced runs' ``bench.op_p50_ms`` minus
the untraced ``latency_p50_ms``.  Every run also self-tests its answer
checker with one corrupted answer, and fails if that is not counted.
Exits 1 if anything disagrees or fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced runs per set; two sets per workload.
RUNS = 10
SEED0 = 1000

#: Traced-run counts that must repeat exactly across runs and seeds.
EXACT = ("core.relational_gates", "boolcircuit.word_gates",
         "boolcircuit.depth", "engine.levels", "engine.word_slots",
         "engine.bit_slots", "engine.fused_segments",
         "obs.exposition_lines", "serve.batch_size_mean")


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (exit code, last-line JSON or None,
    results file contents or None)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        doc = None
    path = HERE / "out" / f"{workload}-s{seed}-t{trace}.json"
    results = json.loads(path.read_text()) if path.exists() else None
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return proc.returncode, doc, results


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    seed = SEED0
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for _ in range(2):
            docs = []
            for _ in range(RUNS):
                code, doc, results = run(workload, seed, seconds, 0)
                seed += 1
                if code != 0 or doc is None or not doc["correct"]:
                    print(f"{workload}: run with seed {seed - 1} failed "
                          f"(exit {code})")
                    ok = False
                    continue
                docs.append((doc, results["ops"]))
            sets.append(docs)
        if any(len(s) < 2 for s in sets):
            ok = False
            continue
        ops = [[n for _, n in s] for s in sets]
        print(f"\n{workload}: {RUNS} + {RUNS} runs of {seconds} s; ops per "
              f"run A {ops[0]}, B {ops[1]}")
        print(f"  {'metric':<18} {'A median [Q1, Q3]':>34} "
              f"{'B median [Q1, Q3]':>34} {'spread A':>9} {'spread B':>9} "
              f"{'B/A-1':>8} {'bound':>6}")
        p50 = []
        for name, bound in bounds.items():
            a = [d["metrics"][name]["value"] for d, _ in sets[0]]
            b = [d["metrics"][name]["value"] for d, _ in sets[1]]
            if name == "latency_p50_ms":
                p50 = a + b
            qa, qb = spread(a), spread(b)
            widest = max(qa[3], qb[3])
            shift = qb[1] / qa[1] - 1
            within = abs(shift) <= bound and widest <= bound
            ok &= within
            flag = ("  <-- outside bound" if not within else
                    "  (spread above a third of the bound)"
                    if widest >= bound / 3 else "")
            print(f"  {name:<18} {qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                  f"{'':>2}{qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
                  f"{qa[3]:>8.2%} {qb[3]:>9.2%} {shift:>+8.2%} "
                  f"{bound:>6.2f}{flag}")
        traced = []
        for _ in range(2):
            code, doc, results = run(workload, seed, seconds, 1)
            seed += 1
            if code != 0 or doc is None:
                print(f"{workload}: traced run with seed {seed - 1} failed")
                ok = False
                continue
            traced.append(results["per_layer"])
        if traced:
            for name in EXACT:
                seen = {t[name] for t in traced if name in t}
                if len(seen) > 1:
                    print(f"  COUNT MISMATCH {name}: {sorted(seen)}")
                    ok = False
            exact = {n: traced[0][n] for n in EXACT if n in traced[0]}
            print(f"  exact counts (identical across {len(traced)} traced "
                  f"seeds): {exact}")
            print(f"  per-layer metrics of the {len(traced)} traced runs:")
            for name in traced[0]:
                print(f"    {name:<30} " + "  ".join(
                    f"{t[name]:>14.6g}" for t in traced if name in t))
            overhead = (statistics.median(t["bench.op_p50_ms"]
                                          for t in traced)
                        - statistics.median(p50))
            print(f"  tracing overhead: traced bench.op_p50_ms minus "
                  f"untraced latency_p50_ms = {overhead:+.3f} ms")
    print("\nsteadiness report:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
