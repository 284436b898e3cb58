"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload serve_hits --seed 7 --seconds 20 --trace 0

Workloads (see perfbench/README.md): ``compile_cold``, ``batch_eval``,
``serve_hits``, ``serve_observed``.  The seed generates every input; the
program only sees the generated queries and instances.

``--trace 0`` measures the end-to-end metrics with every span recorder
off.  ``--trace 1`` is a separate run that records spans around the
benchmark's calls into each layer and prints the per-layer metrics.
Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable table, and the full result (every metric, the obs
state of each process, and the spans) is written to
``perfbench/out/<workload>-s<seed>-t<trace>.json``.

Every output is checked against an independent reference outside the
timed window.  A wrong, refused or failed op counts in ``failed``; any
failure, an obs/tracemalloc state other than the workload's definition,
or a per-layer count that differs between two renamings of one shape
makes the run exit 1.
"""

import os
import sys
import time

T0 = time.perf_counter()

#: Variables that would switch the program away from its shipped defaults
#: (tracing, tracemalloc, memory budgets, the unfused plan).
SCRUBBED = ("REPRO_TRACE", "REPRO_MEM", "REPRO_MEM_BUDGET", "REPRO_NO_FUSE",
            "PYTHONTRACEMALLOC")

if any(name in os.environ for name in SCRUBBED):
    # Restart with the variables removed, so the program imports clean.
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    os.execve(sys.executable, [sys.executable] + sys.argv, env)

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: How many times a run sets the workload up; ``setup_s`` is the median.
SETUPS = 3

#: ``latency_p90_ms`` splits a run's ops into ``ops // BLOCK`` consecutive,
#: non-overlapping blocks of near-equal size (at least BLOCK ops each) and
#: reports the median of their p90s, so a burst of load from outside the
#: benchmark moves the blocks it lands in, not the result.  On
#: serve_observed a block is one scrape period.  Runs with fewer than two
#: blocks report the p90 of all ops.
BLOCK = 50


def _quantile(values, q):
    """Nearest-rank quantile of ``values`` (q in [0, 1])."""
    data = sorted(values)
    return data[min(len(data) - 1, max(0, round(q * (len(data) - 1))))]


def _p90(lat_ms):
    n, k = len(lat_ms), len(lat_ms) // BLOCK
    if k < 2:
        return _quantile(lat_ms, 0.9)
    edges = [round(i * n / k) for i in range(k + 1)]
    return statistics.median(_quantile(lat_ms[a:b], 0.9)
                             for a, b in zip(edges, edges[1:]))


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def end_to_end(wl, setups, base_s, settle_s):
    lat_ms = [s * 1e3 for s in wl.latencies]
    ops = len(lat_ms)
    return {
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (_p90(lat_ms), "ms"),
        "throughput_per_s": (ops * wl.units_per_op / wl.window, "1/s"),
        "peak_rss_mb": (wl.peak_rss_kb / 1024, "MB"),
        "setup_s": (base_s + statistics.median(setups) + settle_s, "s"),
    }


def print_table(wl, metrics, setups, base_s, settle_s, trace):
    ops = len(wl.latencies)
    notes = {
        "latency_p50_ms": f"{ops} ops",
        "latency_p90_ms": (f"{ops} ops: fewer than 100, so p90 of all, "
                           f"fewer than ten samples beyond it"
                           if ops < 2 * BLOCK else
                           f"{ops} ops, median p90 of {ops // BLOCK} "
                           f"consecutive blocks of about "
                           f"{ops / (ops // BLOCK):.0f}"),
        "throughput_per_s": f"{wl.throughput_name}; timed window "
                            f"{wl.window:.2f} s",
        "peak_rss_mb": f"VmHWM of the {wl.rss_owner}",
        "setup_s": (f"{base_s:.3f} s inputs + median of "
                    + ", ".join(f"{s:.3f}" for s in setups) + " s set-ups"
                    + (f" + {settle_s:.3f} s settling" if settle_s > 0.01
                       else "")),
    }
    print(f"perfbench {wl.name}: seed {wl.seed}, trace {trace}")
    for proc, state in wl.state.items():
        print(f"  {proc}: obs {'on' if state['obs'] else 'off'}, "
              f"tracemalloc {'on' if state['tracemalloc'] else 'off'} "
              f"(expected obs {'on' if state['expect_obs'] else 'off'}, "
              f"tracemalloc off)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit:<6} {notes.get(name, '')}")
    rate = wl.failed / wl.attempted if wl.attempted else 1.0
    print(f"  {'error_rate':<32} {rate:>16.6g} {'':<6} "
          f"{wl.failed} failed of {wl.attempted} attempted")
    for line in wl.problems:
        print(f"  FAILED: {line}")


def print_attribution(wl):
    """Per traced op: its wall time, each layer span's self time, and the
    unattributed remainder (wall time minus the layers' self times)."""
    rows = wl.unattributed_by_op()
    by_op = wl.spans.self_ms()
    if len(rows) > 20:
        vals = sorted(row[3] for row in rows)
        print(f"  bench.unattributed_ms over {len(rows)} traced ops: "
              f"min {vals[0]:.4f}, median {statistics.median(vals):.4f}, "
              f"max {vals[-1]:.4f} (every op in the results file)")
        return
    for op, shape, wall, rest in rows:
        stages = ", ".join(f"{name} {sum(ms):.3f}"
                           for name, ms in by_op[op].items()
                           if name != "bench.op")
        print(f"  op {op} {shape}: {wall:.3f} ms = {stages}, "
              f"bench.unattributed_ms {rest:.4f}")


def main(argv=None):
    from workloads import OUT, WORKLOADS  # needs sys.path set up

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)

    wl = WORKLOADS[args.workload](args.seed, bool(args.trace))
    try:
        base_s = time.perf_counter() - T0   # imports + inputs + references
        setups = []
        for i in range(SETUPS):
            if i:
                wl.release()
            started = time.perf_counter()
            wl.prepare()
            setups.append(time.perf_counter() - started)
        started = time.perf_counter()
        wl.settle()
        settle_s = time.perf_counter() - started
        deadline = time.perf_counter() + args.seconds
        while True:
            wl.op(len(wl.latencies))
            if (time.perf_counter() >= deadline
                    and len(wl.latencies) % wl.cycle == 0):
                break
        wl.finish()
    finally:
        wl.close()

    wl.check_state()
    wl.self_test()
    metrics = end_to_end(wl, setups, base_s, settle_s)
    if args.trace:
        shown = wl.per_layer()
        reported = {name: shown[name] for name in wl.PER_LAYER}
    else:
        shown = metrics
        reported = metrics
    print_table(wl, shown, setups, base_s, settle_s, args.trace)
    if args.trace:
        print_attribution(wl)
    correct = wl.failed == 0 and not wl.problems
    result_path = OUT / f"{wl.name}-s{args.seed}-t{args.trace}.json"
    with open(result_path, "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "correct": correct, "attempted": wl.attempted,
                   "failed": wl.failed, "problems": wl.problems,
                   "state": wl.state, "setups_s": setups,
                   "settle_s": settle_s, "ops": len(wl.latencies),
                   "latencies_ms": [s * 1e3 for s in wl.latencies],
                   "end_to_end": {k: v for k, (v, _) in metrics.items()},
                   "per_layer": ({k: v for k, (v, _) in shown.items()}
                                 if args.trace else {}),
                   "unattributed_by_op": wl.unattributed_by_op(),
                   "per_op": wl.per_op, "spans": wl.spans.records},
                  fh, indent=1)
    print(f"  results and spans: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'repro'} is "
                 f"missing")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    sys.exit(main())
