"""The four benchmark workloads, the checks on their outputs, and the spans
a traced run records around the benchmark's calls into the program.

Every workload has the same life cycle, driven by run.py:

* construction makes the seeded inputs and their references;
* ``prepare()`` is the program's set-up (cold compile, warm-up ops), run
  several times with ``release()`` in between;
* ``op(i)`` is one timed op; it appends the op's latency and checks the
  op's output after the clock has stopped;
* ``finish()`` does the untimed end-of-run work: peak RSS, server
  statistics, and on traced runs the explain and in-process layer probes;
* ``close()`` stops every process the workload started.

The program is reached only through public entry points: ``repro.compile``
and the ``CompiledQuery`` stages, ``repro.engine``'s plan cache,
``execute_plan`` and the plan's fused kernels (``ExecutionPlan.kernel_for``),
``ArrayBuilder.encode_relation``, and for the serve workloads the ``repro
serve`` command and its HTTP API via ``repro.Client``.
"""

import gc
import http.client
import json
import os
import socket
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import repro
from repro import engine, obs
from repro.boolcircuit import ArrayBuilder
from repro.datagen import random_database
from repro.engine.exec import tail_mask
from repro.serve import ServeError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: repro was imported from {repro.__file__}, "
                     f"not from this checkout's {SRC}")

#: (shape, query, per-relation cardinality bound N).  The three compile to
#: word circuits of similar size: 614,941 / 505,581 / 428,256 gates.
TRIANGLE = ("triangle", "R(A,B), S(B,C), T(A,C)", 6)
SHAPES = (TRIANGLE,
          ("path3", "R(A,B), S(B,C), T(C,D)", 4),
          ("star3", "R(A,B), S(A,C), T(A,D)", 4))
DOMAIN = 5                  # instance values are drawn from 1..DOMAIN
BATCH = 256                 # instances per batch_eval op
N_BATCHES = 4               # distinct seeded batches, cycled
BATCH_WARMUP = 2            # untimed evaluate_batch calls per set-up
EXECUTE_REPEATS = 3         # traced: back-to-back execute_plan runs per op
DECODE_PROBES = 9           # traced: batch-BATCH splits for api.decode_ms
SERVE_INSTANCES = 64        # distinct seeded serve instances, cycled
SERVE_WARMUP = 10           # untimed requests per set-up
SCRAPE_EVERY = 50           # serve_observed: one /v1/metrics per 50 requests
SETTLE_REQUESTS = 256       # serve_observed: fills the 256-sample reservoirs
PROBE_INSTANCES = 8         # serve traced runs: in-process batch-1 probes

#: The per-layer metrics every traced run prints: BENCHMARK.json's list.
PER_LAYER = tuple((m["name"], m["unit"]) for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"])

#: Serve-tier metrics, printed (and saved) on the serve workloads only.
SERVE_LAYER = (
    ("serve.total_ms", "ms"), ("serve.evaluate_ms", "ms"),
    ("serve.queue_ms", "ms"), ("serve.overhead_ms", "ms"),
    ("serve.transport_ms", "ms"), ("serve.batch_size_mean", "count"),
    ("serve.plan_cache_hit_ratio", "ratio"), ("obs.scrape_ms", "ms"),
    ("obs.exposition_lines", "count"), ("obs.exposition_bytes", "bytes"),
)


# -- inputs and checks -------------------------------------------------------

def renamed(text, rng):
    """``text`` with variables and relations renamed and atoms permuted,
    all drawn from ``rng``; returns ``(query text, parsed query)``."""
    query = repro.parse_query(text)
    variables = sorted(query.variables)
    # Names keep their sorted order (two-digit suffixes sort like numbers):
    # the compiled circuit depends on the order of variable names, and the
    # workloads need the same circuit under every renaming.
    var_ids = np.sort(rng.choice(90, size=len(variables), replace=False)) + 10
    rel_ids = np.sort(rng.choice(90, size=len(query.atoms), replace=False)) + 10
    var_map = {v: f"V{k}" for v, k in zip(variables, var_ids)}
    order = rng.permutation(len(query.atoms))
    rel_map = {a.name: f"E{k}" for a, k in
               zip(sorted(query.atoms, key=lambda a: a.name), rel_ids)}
    text = ", ".join(
        f"{rel_map[query.atoms[i].name]}"
        f"({','.join(var_map[v] for v in query.atoms[i].vars)})"
        for i in order)
    return text, repro.parse_query(text)


def empty_instance(query):
    return {a.name: repro.Relation(tuple(a.vars), []) for a in query.atoms}


def answer_ok(answer, reference, bound=None):
    """An answer is right iff it equals the reference (as a set of rows
    over the same attributes) and, when given, fits the DAPB bound."""
    return (answer is not None and answer == reference
            and (bound is None or len(answer) <= bound))


def corrupted(answer):
    """``answer`` with one row replaced by one outside the data domain."""
    rows = sorted(answer.rows)[1:]
    return repro.Relation(answer.schema,
                          rows + [tuple(10 ** 6 for _ in answer.schema)])


def regimes(report):
    """Engine time by regime from an EXPLAIN ANALYZE report (ms):
    word-regime levels, the levels of fused bit-regime segments, and the
    PACK/UNPACK boundary ops between them.  The three sum to the measured
    level time.  EXPLAIN ANALYZE runs every level one at a time, fused
    segments included, so ``engine.fused_ms`` is not the time of the
    compiled fused kernels; ``engine.fused_kernel_ms`` is."""
    word = fused = boundary = 0.0
    for level in report["levels"]:
        edge = sum(ms for op, ms in level["group_ms"].items()
                   if op in ("PACK", "UNPACK"))
        boundary += edge
        rest = (level["measured_ms"] or 0.0) - edge
        if level["fused"]:
            fused += rest
        else:
            word += rest
    return {"engine.word_ms": word, "engine.fused_ms": fused,
            "engine.boundary_ms": boundary}


def vmhwm_kb(pid="self"):
    """Peak resident set size (VmHWM) of a process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def exposition_state(text):
    """(obs on, tracemalloc on) of a server, read from its /v1/metrics.

    With obs off only the server's own ``repro_server_*`` families render;
    with obs on the registry's ``repro_*`` families appear too, and the
    engine sets ``repro_engine_peak_rss_delta_bytes`` only while memory
    accounting (tracemalloc) is on."""
    names = {line.split("{")[0].split()[0] for line in text.splitlines()
             if line and not line.startswith("#")}
    obs_on = any(not n.startswith("repro_server_") for n in names)
    return obs_on, "repro_engine_peak_rss_delta_bytes" in names


def program_env():
    """The environment of a program process: this one's (run.py has removed
    the variables that change the program's defaults), with this checkout's
    sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# -- spans --------------------------------------------------------------------

class Spans:
    """Spans recorded around the benchmark's own calls into the program.

    A record holds its name, start and end (``perf_counter`` seconds), the
    index of its parent record, and the id of the op it belongs to; every
    span of one op shares that id.
    """

    def __init__(self):
        self.records = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {"name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.records))
        self.records.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_ms(self):
        """``{op id: {span name: [self time in ms, ...]}}``, one entry per
        span of that name in that op: its duration minus the time its child
        spans cover."""
        inner = [0.0] * len(self.records)
        for rec in self.records:
            if rec["parent"] is not None:
                inner[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for rec, covered in zip(self.records, inner):
            out.setdefault(rec["op"], {}).setdefault(rec["name"], []).append(
                (rec["end"] - rec["start"] - covered) * 1e3)
        return out


# -- workloads ----------------------------------------------------------------

class Workload:
    name = ""
    cycle = 1                     # timed ops end on a multiple of this
    units_per_op = 1              # throughput units one op completes
    throughput_name = ""
    rss_owner = "benchmark process"
    layer_batch = 1               # batch of the traced encode/execute splits
    PER_LAYER = tuple(name for name, _ in PER_LAYER)

    def __init__(self, seed, traced):
        self.seed = seed
        self.traced = traced
        self.spans = Spans()
        self.latencies = []       # seconds, one per timed op
        self.window = 0.0         # seconds spent in timed ops and scrapes
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.state = {}
        self.peak_rss_kb = 0
        self.per_op = []          # traced serve ops: the response timings
        self.counts = {}          # shape -> exact per-layer counts
        self.op_shape = {}        # op id -> shape it compiled
        self.op_batch = {}        # op id -> batch of its encode/execute split
        self.layer = {}           # per-layer values measured outside ops
        self.sample = None        # one right (answer, reference, bound)
        self.compiled = None      # (shape, circuit, lowered, plan), traced
        self.setups = 0
        OUT.mkdir(exist_ok=True)

    def rng(self, *tag):
        return np.random.default_rng([abs(self.seed), *tag])

    def span(self, name):
        return self.spans.span(name) if self.traced else nullcontext()

    def timed(self, seconds):
        self.latencies.append(seconds)
        self.window += seconds

    # -- life cycle (see the module docstring) --------------------------------
    def prepare(self):
        raise NotImplementedError

    def settle(self):
        """Untimed work between the last set-up and the first timed op."""

    def op(self, i):
        raise NotImplementedError

    def release(self):
        pass

    def finish(self):
        self.peak_rss_kb = vmhwm_kb()

    def close(self):
        self.release()

    # -- checks ---------------------------------------------------------------
    def check(self, answers, references, bound=None):
        """Count one op: right iff every answer equals its reference."""
        answers = list(answers)
        ok = len(answers) == len(references) and all(
            answer_ok(a, r, bound) for a, r in zip(answers, references))
        self.attempted += 1
        self.failed += not ok
        if ok and self.sample is None:
            self.sample = (answers[0], references[0], bound)

    def self_test(self):
        """A wrong answer is counted: one corrupted copy of a right answer
        goes through ``check()`` and must raise ``failed`` by one.  The
        count is then undone."""
        if self.sample is None:
            self.problems.append("no op produced a right answer")
            return
        answer, reference, bound = self.sample
        attempted, failed = self.attempted, self.failed
        self.check([corrupted(answer)], [reference], bound)
        counted = self.failed == failed + 1
        self.attempted, self.failed = attempted, failed
        if not counted:
            self.problems.append("a corrupted answer was not counted as "
                                 "failed")

    def record_state(self, process, obs_on, tracemalloc_on, expect_obs):
        self.state[process] = {"obs": obs_on, "tracemalloc": tracemalloc_on,
                               "expect_obs": expect_obs}
        if obs_on != expect_obs or tracemalloc_on:
            self.problems.append(
                f"{process}: obs {obs_on}, tracemalloc {tracemalloc_on}; "
                f"the workload defines obs {expect_obs}, tracemalloc False")

    def check_state(self):
        self.record_state("benchmark process", obs.enabled(),
                          tracemalloc.is_tracing(), expect_obs=False)

    def record_counts(self, shape, values):
        """Exact per-layer counts of one shape; a shape compiled twice (two
        renamings) must give the same counts."""
        known = self.counts.setdefault(shape, {})
        for name, value in values.items():
            if known.setdefault(name, value) != value:
                self.problems.append(
                    f"{shape}: {name} was {known[name]}, now {value}")

    # -- calls into the program ------------------------------------------------
    def compile_shape(self, text, n, shape, traced=None):
        """One plan-cache miss, done the way ``repro serve`` does one:
        clear the engine plan cache, build a new CompiledQuery, read
        ``.lowered`` then ``.bound``, and evaluate the empty instance.
        Traced, each stage is read on its own inside a span, and the engine
        plan is fetched before the first evaluation so planning and warm-up
        are timed apart."""
        traced = self.traced if traced is None else traced
        engine.DEFAULT_PLAN_CACHE.clear()
        cq = repro.compile(text, n=n)
        if traced:
            self.op_shape[self.spans.op] = shape
            with self.spans.span("bounds.lp"):
                cq.log_bound
            with self.spans.span("bounds.proof"):
                cq.proof
            with self.spans.span("core.panda_c"):
                circuit = cq.circuit
            with self.spans.span("boolcircuit.lower"):
                lowered = cq.lowered
            with self.spans.span("engine.plan"):
                plan = engine.DEFAULT_PLAN_CACHE.get(
                    lowered.circuit, engine.lowered_output_gates(lowered))
            bound = cq.bound
            with self.spans.span("engine.warmup"):
                cq.evaluate(empty_instance(cq.query))
            self.compiled = (shape, circuit, lowered, plan)
        else:
            cq.lowered
            bound = cq.bound
            cq.evaluate(empty_instance(cq.query))
        return cq, bound

    def record_compile_counts(self):
        """The exact counts of the last traced compile (read after its op,
        since reading some of them walks the whole circuit).  Drops its
        references, so the next compile starts without this one alive."""
        shape, circuit, lowered, plan = self.compiled
        self.compiled = None
        self.record_counts(shape, {
            "core.relational_gates": circuit.size,
            "boolcircuit.word_gates": lowered.size,
            "boolcircuit.depth": lowered.depth,
            "engine.levels": len(plan.levels),
            "engine.word_slots": plan.n_slots,
            "engine.bit_slots": plan.n_bit_slots,
            "engine.fused_segments": len(plan.segments)})

    def evaluate_traced(self, cq, dbs, shape):
        """``evaluate_batch`` in a span, then the same batch through the
        encode and execute layers on their own: ``execute_plan`` runs
        EXECUTE_REPEATS times back to back, and then every fused segment's
        compiled kernel (the fast path's, which EXPLAIN ANALYZE does not
        run) is timed on a copy of the run's final bit buffer; bitwise
        kernels take the same time on any data.  Returns the answers and the
        ``evaluate_batch`` seconds."""
        self.op_shape.setdefault(self.spans.op, shape)
        self.op_batch[self.spans.op] = len(dbs)
        lowered = cq.lowered
        plan = engine.DEFAULT_PLAN_CACHE.get(
            lowered.circuit, engine.lowered_output_gates(lowered))
        with self.spans.span("api.evaluate_batch") as rec:
            answers = cq.evaluate_batch(dbs)
        with self.spans.span("boolcircuit.encode"):
            rows = []
            for db in dbs:
                row = []
                for name in lowered.input_order:
                    row.extend(ArrayBuilder.encode_relation(
                        db[name], lowered.input_arrays[name]))
                rows.append(row)
            columns = np.asarray(rows, dtype=np.int64).T
        for _ in range(EXECUTE_REPEATS):
            with self.spans.span("engine.execute"):
                run = engine.execute_plan(plan, columns)
        bits, mask = run.bits.copy(), tail_mask(len(dbs))
        kernels = [k for k in plan.kernels() if k is not None]
        with self.spans.span("engine.fused_kernels"):
            for kernel in kernels:
                kernel(bits, mask)
        if len(dbs) == self.layer_batch:
            self.record_counts(shape, {
                "engine.buffer_bytes": plan.buffer_bytes(len(dbs))})
        return answers, rec["end"] - rec["start"]

    def decode_probe(self, cq, bound):
        """``api.decode_ms`` where the ops run batch 1, from DECODE_PROBES
        splits of one seeded batch of BATCH triangle instances: at batch 1
        decoding takes about 0.1 ms, well inside the run-to-run jitter of a
        28 ms execution, so a difference taken there is noise.  The first
        evaluation at this batch is untimed, since it alone pays for the
        first touch of the larger buffers, and a full collection follows
        it, so that no cyclic-GC pass owed to the just-compiled circuit's
        objects lands inside a split."""
        rng = self.rng(4)
        dbs = [random_database(cq.query, TRIANGLE[2], DOMAIN, seed=rng)
               for _ in range(BATCH)]
        refs = [cq.query.evaluate(db) for db in dbs]
        self.check(cq.evaluate_batch(dbs), refs, bound)
        gc.collect()
        for k in range(DECODE_PROBES):
            self.spans.op = f"decode{k}"
            answers, _ = self.evaluate_traced(cq, dbs, TRIANGLE[0])
            self.check(answers, refs, bound)

    # -- traced-run results -----------------------------------------------------
    def per_layer(self):
        """Every per-layer metric of a traced run: ``{name: (value, unit)}``.

        Times are medians over ops of each op's median span of that name;
        the encode/execute splits count only at the workload's
        ``layer_batch``, and ``api.decode_ms`` only at BATCH.  Rates divide
        gates by the summed stage time; counts are summed over the shapes
        the run compiled (each shape's counts are exact).  A layer this
        workload does not reach through its ops is measured by the run's
        probes.  ``api.decode_ms`` at or below 0 fails the run."""
        by_op = self.spans.self_ms()
        counts = {}
        for values in self.counts.values():
            for name, value in values.items():
                counts[name] = counts.get(name, 0) + value

        def per_op(name, batch=None):
            return {op: statistics.median(s[name])
                    for op, s in by_op.items() if name in s and
                    (batch is None or self.op_batch.get(op) == batch)}

        def median(name, batch=None):
            vals = per_op(name, batch).values()
            return statistics.median(vals) if vals else 0.0

        def rate(span_name):
            gates = secs = 0.0
            for op, s in by_op.items():
                if span_name in s:
                    gates += self.counts[self.op_shape[op]][
                        "boolcircuit.word_gates"]
                    secs += sum(s[span_name]) / 1e3
            return gates / secs if secs else 0.0

        execute = per_op("engine.execute", self.layer_batch)
        per_level = [ms * 1e3 / self.counts[self.op_shape[op]]["engine.levels"]
                     for op, ms in execute.items()]
        split = [per_op(name, BATCH) for name in
                 ("api.evaluate_batch", "boolcircuit.encode", "engine.execute")]
        decode = [split[0][op] - split[1][op] - split[2][op] for op in split[0]]
        timed = [sum(by_op[i]["bench.op"]) for i in range(len(self.latencies))
                 if "bench.op" in by_op.get(i, {})]
        if not decode or statistics.median(decode) <= 0:
            self.problems.append(
                "api.decode_ms is not above 0: evaluate_batch minus encode "
                "minus execute did not resolve the decoding time")
        values = {
            "bounds.lp_ms": median("bounds.lp"),
            "bounds.proof_ms": median("bounds.proof"),
            "core.panda_c_ms": median("core.panda_c"),
            "core.relational_gates": counts.get("core.relational_gates", 0),
            "boolcircuit.lower_ms": median("boolcircuit.lower"),
            "boolcircuit.word_gates": counts.get("boolcircuit.word_gates", 0),
            "boolcircuit.depth": counts.get("boolcircuit.depth", 0),
            "boolcircuit.lower_gates_per_s": rate("boolcircuit.lower"),
            "boolcircuit.encode_ms": median("boolcircuit.encode",
                                            self.layer_batch),
            "engine.plan_ms": median("engine.plan"),
            "engine.plan_gates_per_s": rate("engine.plan"),
            "engine.levels": counts.get("engine.levels", 0),
            "engine.word_slots": counts.get("engine.word_slots", 0),
            "engine.bit_slots": counts.get("engine.bit_slots", 0),
            "engine.fused_segments": counts.get("engine.fused_segments", 0),
            "engine.warmup_ms": median("engine.warmup"),
            "engine.execute_ms": median("engine.execute", self.layer_batch),
            "engine.us_per_level": (statistics.median(per_level)
                                    if per_level else 0.0),
            "engine.buffer_bytes": counts.get("engine.buffer_bytes", 0),
            "engine.fused_kernel_ms": median("engine.fused_kernels",
                                             self.layer_batch),
            "api.decode_ms": statistics.median(decode) if decode else 0.0,
            "bench.unattributed_ms": (statistics.median(timed)
                                      if timed else 0.0),
            "bench.op_p50_ms": statistics.median(self.latencies) * 1e3,
        }
        values.update(self.layer)
        units = dict(PER_LAYER + SERVE_LAYER)
        return {name: (value, units[name]) for name, value in values.items()}

    def unattributed_by_op(self):
        """``[(op id, shape, op ms, unattributed ms)]`` for each traced op."""
        by_op = self.spans.self_ms()
        rows = []
        for rec in self.spans.records:
            if rec["name"] == "bench.op" and isinstance(rec["op"], int):
                rows.append((rec["op"], self.op_shape.get(rec["op"], ""),
                             (rec["end"] - rec["start"]) * 1e3,
                             sum(by_op[rec["op"]]["bench.op"])))
        return rows


class CompileCold(Workload):
    """Cold compiles in-process, obs off, rotating three shapes.  The seed
    renames variables and relations and permutes atoms: two renamings per
    shape, alternating by rotation."""

    name = "compile_cold"
    cycle = len(SHAPES)
    throughput_name = "compiles_per_s"

    def __init__(self, seed, traced):
        super().__init__(seed, traced)
        self.cases = []           # [shape][renaming] -> (text, n, db, ref)
        for s, (_, text, n) in enumerate(SHAPES):
            variants = []
            for v in range(2):
                rng = self.rng(1, s, v)
                text_v, query = renamed(text, rng)
                db = random_database(query, n, DOMAIN, seed=rng)
                variants.append((text_v, n, db, query.evaluate(db)))
            self.cases.append(variants)

    def prepare(self):
        # Warm-up: one untimed cold compile of the smallest shape pulls in
        # the modules the compiler imports lazily.
        self.spans.op = f"setup{self.setups}"
        self.setups += 1
        text, n, db, ref = self.cases[-1][0]
        cq, bound = self.compile_shape(text, n, SHAPES[-1][0], traced=False)
        self.check([cq.evaluate(db)], [ref], bound)

    def op(self, i):
        shape = SHAPES[i % len(SHAPES)][0]
        text, n, db, ref = self.cases[i % len(SHAPES)][(i // len(SHAPES)) % 2]
        self.spans.op = i
        started = time.perf_counter()
        with self.span("bench.op"):
            cq, bound = self.compile_shape(text, n, shape)
        self.timed(time.perf_counter() - started)
        if self.traced:
            self.record_compile_counts()
            self.spans.op = f"check{i}"
            answers, _ = self.evaluate_traced(cq, [db], shape)
            if shape == TRIANGLE[0] and "engine.word_ms" not in self.layer:
                self.layer.update(regimes(
                    cq.explain_report(db, analyze=True).to_json()))
                self.decode_probe(cq, bound)
        else:
            answers = [cq.evaluate(db)]
        self.check(answers, [ref], bound)


class BatchEval(Workload):
    """``evaluate_batch`` on 256 seeded triangle instances per op against one
    warm plan, in-process, obs off."""

    name = "batch_eval"
    units_per_op = BATCH
    layer_batch = BATCH
    throughput_name = "instances_per_s"

    def __init__(self, seed, traced):
        super().__init__(seed, traced)
        rng = self.rng(2)
        self.text, query = renamed(TRIANGLE[1], rng)
        self.batches = [[random_database(query, TRIANGLE[2], DOMAIN, seed=rng)
                         for _ in range(BATCH)] for _ in range(N_BATCHES)]
        self.refs = [[query.evaluate(db) for db in batch]
                     for batch in self.batches]
        self.cq = self.bound = None

    def release(self):
        self.cq = self.bound = None

    def prepare(self):
        self.spans.op = f"setup{self.setups}"
        self.setups += 1
        cq, bound = self.compile_shape(self.text, TRIANGLE[2], TRIANGLE[0])
        if self.traced:
            self.record_compile_counts()
        for k in range(BATCH_WARMUP):
            self.check(cq.evaluate_batch(self.batches[k % N_BATCHES]),
                       self.refs[k % N_BATCHES], bound)
        self.cq, self.bound = cq, bound

    def op(self, i):
        k = i % N_BATCHES
        self.spans.op = i
        if self.traced:
            with self.spans.span("bench.op"):
                answers, seconds = self.evaluate_traced(
                    self.cq, self.batches[k], TRIANGLE[0])
        else:
            started = time.perf_counter()
            answers = self.cq.evaluate_batch(self.batches[k])
            seconds = time.perf_counter() - started
        self.timed(seconds)
        self.check(answers, self.refs[k], self.bound)

    def finish(self):
        super().finish()
        if self.traced:
            self.layer.update(regimes(self.cq.explain_report(
                self.batches[0], analyze=True).to_json()))
        self.release()


class Serve(Workload):
    """A closed loop of one ``repro.Client`` against ``repro serve --workers
    2`` in its own process: seeded triangle instances for the compiled
    shape, so every timed request is a plan-cache hit at batch 1."""

    name = "serve_hits"
    observed = False
    throughput_name = "requests_per_s"
    rss_owner = "repro serve process"

    def __init__(self, seed, traced):
        super().__init__(seed, traced)
        rng = self.rng(3)
        self.text, query = renamed(TRIANGLE[1], rng)
        self.instances = [random_database(query, TRIANGLE[2], DOMAIN, seed=rng)
                          for _ in range(SERVE_INSTANCES)]
        self.refs = [query.evaluate(db) for db in self.instances]
        self.proc = self.client = self.log = None
        self.scrapes = []         # one {"ms", "lines", "bytes"} per scrape

    def prepare(self):
        self.spans.op = f"setup{self.setups}"
        self.setups += 1
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        self.log = open(OUT / f"server-{self.name}-s{self.seed}.log", "a")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--workers", "2"] + (["--trace"] if self.observed else []),
            cwd=ROOT, env=program_env(),
            stdout=self.log, stderr=subprocess.STDOUT)
        self.client = repro.Client(f"http://127.0.0.1:{port}",
                                   tenant="perfbench", timeout=120)
        deadline = time.perf_counter() + 60
        while True:
            try:
                self.client.healthz()
                break
            except (OSError, http.client.HTTPException, ServeError):
                self.client.close()
                if self.proc.poll() is not None or \
                        time.perf_counter() > deadline:
                    raise RuntimeError("repro serve did not come up; see "
                                       f"{self.log.name}")
                time.sleep(0.01)
        reply = self.client.compile(self.text, n=TRIANGLE[2])
        if reply.get("cache") != "miss":
            self.problems.append(f"first compile was {reply.get('cache')!r}, "
                                 "not a cold miss")
        for i in range(SERVE_WARMUP):
            reply, _ = self.request(i)
            self.check_reply(reply, i)
        if self.observed:
            self.scrape()

    def settle(self):
        """serve_observed: fill the metrics registry's 256-sample reservoirs
        before timing, then scrape the full registry once.  Until they are
        full, server RSS, request latency and scrape time all grow with the
        request count, so runs of different lengths would not compare.
        Scrapes add no reservoir samples, so one at the end is enough."""
        if not self.observed:
            return
        self.spans.op = "settle"
        for i in range(SETTLE_REQUESTS):
            reply, _ = self.request(i)
            self.check_reply(reply, i)
        self.scrape()
        self.scrapes = []

    def release(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None
        if self.log is not None:
            self.log.close()
            self.log = None

    def request(self, i):
        """One evaluate request; returns ``(reply or None, seconds)``."""
        started = time.perf_counter()
        with self.span("serve.request"):
            try:
                reply = self.client.evaluate_full(
                    self.text, db=self.instances[i % SERVE_INSTANCES],
                    n=TRIANGLE[2])
            except (ServeError, OSError, http.client.HTTPException):
                reply = None
        return reply, time.perf_counter() - started

    def check_reply(self, reply, i):
        """Right iff a plan-cache hit whose answers equal the reference."""
        answer = None
        if reply is not None and reply.cache == "hit":
            answer = reply.answer_relation()
        self.check([answer], [self.refs[i % SERVE_INSTANCES]])

    def scrape(self, timed=False):
        """One ``GET /v1/metrics``; returns the exposition text or None."""
        started = time.perf_counter()
        with self.span("obs.scrape"):
            try:
                text = self.client.metrics_text()
            except (ServeError, OSError, http.client.HTTPException):
                text = None
        seconds = time.perf_counter() - started
        if timed:
            self.window += seconds
        self.attempted += 1
        self.failed += text is None
        if text is not None:
            self.scrapes.append({"ms": seconds * 1e3,
                                 "lines": len(text.splitlines()),
                                 "bytes": len(text.encode())})
        return text

    def op(self, i):
        self.spans.op = i
        with self.span("bench.op"):
            reply, seconds = self.request(i)
        self.timed(seconds)
        self.check_reply(reply, i)
        if self.traced and reply is not None:
            t = reply.timings
            self.per_op.append({
                "op": i, "total_ms": t.total_ms,
                "evaluate_ms": t.evaluate_ms, "queue_ms": t.queue_ms,
                "overhead_ms": t.total_ms - t.evaluate_ms - t.queue_ms,
                "transport_ms": seconds * 1e3 - t.total_ms,
                "batch_size": reply.batch_size})
        if self.observed and (i + 1) % SCRAPE_EVERY == 0:
            self.spans.op = f"scrape{i}"
            self.scrape(timed=True)

    def finish(self):
        self.peak_rss_kb = vmhwm_kb(self.proc.pid)
        self.spans.op = "final"
        stats = self.client.stats()
        counters, cache = stats["counters"], stats["plan_cache"]
        if counters["errors"]:
            self.problems.append(
                f"the server returned {counters['errors']} error envelopes")
        text = self.scrape()
        if text is None:
            self.problems.append("the final /v1/metrics scrape failed")
        else:
            self.record_state("repro serve process", *exposition_state(text),
                              expect_obs=self.observed)
        lines = {s["lines"] for s in self.scrapes}
        if len(lines) > 1:
            self.problems.append(f"exposition line counts differ: {lines}")
        if not self.traced:
            return
        for name in ("total_ms", "evaluate_ms", "queue_ms", "overhead_ms",
                     "transport_ms"):
            self.layer[f"serve.{name}"] = statistics.median(
                row[name] for row in self.per_op)
        self.layer["serve.batch_size_mean"] = (
            counters["batch_instances"] / counters["batch_calls"])
        self.layer["serve.plan_cache_hit_ratio"] = (
            cache["hits"] / (cache["hits"] + cache["misses"]))
        self.layer["obs.scrape_ms"] = statistics.median(
            s["ms"] for s in self.scrapes)
        self.layer["obs.exposition_lines"] = self.scrapes[-1]["lines"]
        self.layer["obs.exposition_bytes"] = self.scrapes[-1]["bytes"]
        self.spans.op = "explain"
        with self.spans.span("serve.explain"):
            report = self.client.explain(
                self.text, db=self.instances[0], n=TRIANGLE[2],
                analyze=True)["report"]
        self.layer.update(regimes(report))
        server_plan = report["plan"]
        self.release()
        # In-process probe of the layers under the server: the same shape
        # compiled stage by stage, then batch-1 evaluations split into
        # encode and execute, as the server runs them per request.
        self.spans.op = "probe"
        cq, bound = self.compile_shape(self.text, TRIANGLE[2], TRIANGLE[0])
        self.record_compile_counts()
        for k in range(PROBE_INSTANCES):
            self.spans.op = f"probe{k}"
            answers, _ = self.evaluate_traced(
                cq, [self.instances[k]], TRIANGLE[0])
            self.check(answers, [self.refs[k]], bound)
        self.decode_probe(cq, bound)
        mine = self.counts[TRIANGLE[0]]
        for key, name in (("depth", "engine.levels"),
                          ("n_slots", "engine.word_slots"),
                          ("n_bit_slots", "engine.bit_slots"),
                          ("n_segments", "engine.fused_segments")):
            if server_plan[key] != mine[name]:
                self.problems.append(
                    f"server plan {key}={server_plan[key]} differs from the "
                    f"in-process plan's {name}={mine[name]}")


class ServeObserved(Serve):
    """The serve_hits traffic against ``repro serve --trace --workers 2``,
    with one ``GET /v1/metrics`` scrape per 50 requests on the same
    connection, inside the timed window."""

    name = "serve_observed"
    observed = True
    cycle = SCRAPE_EVERY          # every run ends just after a scrape


WORKLOADS = {cls.name: cls for cls in (CompileCold, BatchEval, Serve,
                                       ServeObserved)}
