"""qspan benchmark: one workload per process, driven through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the reasons each exists are in BENCHMARK.json):

* census-337    `verify-theorem --k 3 --m 3 --n 7 --jobs 1` through cli.main.
                The census is exhaustive, so its input does not depend on
                the seed.
* decide-tight  a seeded, stratified corpus of (graph text, demand) pairs,
                each decided by graph_core.parse_graph then trees.construct_tree.
* exact-fuzz    verify.subgraph_monotonicity_fuzz (3000 trials, seed N), then
                `proof-sweep --k-range 3..7 --m-range 3..8 --n-extra 0..8
                --seed N` through cli.main.

A run imports qspan, generates the inputs and warms up, then runs passes over
the workload's operations. With --trace 0 it keeps starting passes while the
next one is expected to end within --seconds (at least one), timing them on
the speed clock of speedclock.py, times
SETUP_REPEATS fresh interpreters doing that same set-up (setup_s is their
median) and prints the end-to-end metrics. With --trace 1 it runs one
untraced pass and one traced pass, prints the per-layer metrics and writes
every span to perfbench/out/. Every output is checked by code in this directory, outside
the timed region; an operation that raises or fails its check is counted as
failed and the run goes on. The last line of stdout is the JSON result; the
lines before it give the environment, the corpus shape and a readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import corpus
import spans
from speedclock import LOOP_S, SpeedClock

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CPUS = len(os.sched_getaffinity(0))
SETUP_REPEATS = 4
qspan = None  # imported by load_qspan() once src/ is on the path

CENSUS_ARGV = ["verify-theorem", "--k", "3", "--m", "3", "--n", "7", "--jobs", "1"]
CENSUS_EXPECTED = {
    "schema": "1",
    "params": {"k": 3, "m": 3, "n": 7},
    "graphs_total": 2097152,
    "graphs_connected": 778765,
    "graphs_above_bound": 505,
    "counterexamples": [],
    "extremal_found": True,
}
CENSUS_QSTAR = 9.09692409559706   # largest root of x^3 - 14x^2 + 49x - 40
FUZZ_TRIALS = 3000
FUZZ_STRICT_CHECKS = 400
SWEEP_POINTS = 1110
SWEEP_BOUNDARY = 30
# shape every decide-tight corpus must have, whatever the seed
DECIDE_SHAPE = {"planted_share": (1 / 3, 1 / 3), "per_vertex_share": (0.5, 0.5),
                "feasible_share": (0.58, 0.72)}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qspan.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _mismatch(payload: dict, expected: dict) -> str | None:
    for key, want in expected.items():
        if payload.get(key) != want:
            return f"{key} is {payload.get(key)!r}, expected {want!r}"
    return None


class Op:
    """One call into qspan: fn runs in the timed region, check(result)
    afterwards returns None or the reason the result is wrong."""

    def __init__(self, label, fn, check):
        self.label, self.fn, self.check = label, fn, check


# --- workloads ----------------------------------------------------------------


class Census:
    name = "census-337"

    def __init__(self, seed):
        self.seed = seed
        self.counts = {}

    def prepare(self):
        _cli(["extremal", "--k", "3", "--m", "3", "--n", "7", "--s", "1"])

    def ops(self):
        return [Op("verify-theorem", lambda: _cli(CENSUS_ARGV), self._check)]

    def _check(self, result):
        rc, out, _ = result
        if rc != 0:
            return f"exit code {rc}"
        payload = json.loads(out)
        self.counts = payload
        if abs(payload.get("qstar", 0.0) - CENSUS_QSTAR) > 1e-10:
            return f"qstar {payload.get('qstar')!r}, expected {CENSUS_QSTAR}"
        return _mismatch(payload, CENSUS_EXPECTED)

    def shape(self):
        return {"masks": CENSUS_EXPECTED["graphs_total"], "params": CENSUS_EXPECTED["params"],
                "jobs": 1, "seed_used": False}


class Decide:
    name = "decide-tight"

    def __init__(self, seed):
        self.seed = seed
        self.instances = []
        self.verdicts = {}
        self.brute_checked = set()

    def prepare(self):
        self.instances = corpus.decide_corpus(self.seed)
        for inst in sorted(self.instances, key=lambda i: i.m * i.n)[:3]:
            self._decide(inst)

    def _decide(self, inst):
        g = qspan.graph_core.parse_graph(inst.text)
        return qspan.trees.construct_tree(g, qspan.graph_core.DegreeDemand(inst.demand))

    def ops(self):
        return [Op(f"instance {i}", lambda inst=inst: self._decide(inst),
                   lambda res, i=i: self._check(i, res))
                for i, inst in enumerate(self.instances)]

    def _check(self, i, result):
        inst = self.instances[i]
        self.verdicts[i] = result.feasible
        if result.feasible:
            if inst.planted:
                return f"planted violation {inst.planted} reported feasible"
            err = corpus.tree_error(inst, result.tree.edges)
        else:
            err = corpus.violation_error(inst, result.violation.vertices)
        if err is None and inst.m <= 12 and i not in self.brute_checked:
            self.brute_checked.add(i)
            g = qspan.graph_core.BipartiteGraph(inst.m, inst.n, inst.adj)
            brute = qspan.trees.find_violation_bruteforce(g, qspan.graph_core.DegreeDemand(inst.demand))
            if (brute is None) != result.feasible:
                err = "verdict disagrees with find_violation_bruteforce"
        return err

    def shape(self):
        feasible = sum(self.verdicts.values())
        shape = corpus.corpus_shape(self.instances, feasible)
        shape["in_range"] = all(lo - 1e-9 <= shape[key] <= hi + 1e-9
                                for key, (lo, hi) in DECIDE_SHAPE.items())
        return shape


class Fuzz:
    name = "exact-fuzz"

    def __init__(self, seed):
        self.seed = seed
        self.report = None
        self.sweep_argv = ["proof-sweep", "--k-range", "3..7", "--m-range", "3..8",
                           "--n-extra", "0..8", "--seed", str(seed)]

    def prepare(self):
        # warm up at a fixed seed, so set-up time does not depend on --seed
        qspan.verify.subgraph_monotonicity_fuzz(trials=20, seed=0)
        _cli(["proof-sweep", "--k-range", "3", "--m-range", "3", "--n-extra", "1"])

    def ops(self):
        return [
            Op("fuzz", lambda: qspan.verify.subgraph_monotonicity_fuzz(
                trials=FUZZ_TRIALS, seed=self.seed), self._check_fuzz),
            Op("proof-sweep", lambda: _cli(self.sweep_argv), self._check_sweep),
        ]

    def _check_fuzz(self, report):
        self.report = report
        if (report.trials, report.seed) != (FUZZ_TRIALS, self.seed):
            return f"report echoes trials={report.trials} seed={report.seed}"
        if report.violations or report.strict_failures:
            return (f"{len(report.violations)} monotonicity violations, "
                    f"{len(report.strict_failures)} strictness failures")
        if report.strict_checks != FUZZ_STRICT_CHECKS:
            return f"{report.strict_checks} strict checks, expected {FUZZ_STRICT_CHECKS}"
        return None

    def _check_sweep(self, result):
        rc, out, _ = result
        if rc != 0:
            return f"exit code {rc}"
        payload = json.loads(out)
        points = payload["points"]
        grid = {"k_values": list(range(3, 8)), "m_values": list(range(3, 9)),
                "n_extras": list(range(0, 9)), "seed": self.seed}
        err = _mismatch(payload, {"schema": "1", "failures": [], "grid": grid})
        if err:
            return err
        if len(points) != SWEEP_POINTS:
            return f"{len(points)} sweep points, expected {SWEEP_POINTS}"
        if sum(pt["expected_boundary"] for pt in points) != SWEEP_BOUNDARY:
            return "wrong number of expected-boundary points"
        bad = [pt for pt in points if not all(pt["checks"].values())]
        return f"{len(bad)} points with a failed check" if bad else None

    def shape(self):
        r = self.report
        return {"fuzz_trials": FUZZ_TRIALS, "strict_checks": r.strict_checks if r else None,
                "equal_pairs_share": r.equal_pairs / FUZZ_TRIALS if r else None,
                "sweep_points": SWEEP_POINTS, "sweep_boundary": SWEEP_BOUNDARY}


WORKLOADS = {w.name: w for w in (Census, Decide, Fuzz)}


# --- measurement --------------------------------------------------------------


class Pass:
    def __init__(self):
        self.times = []   # wall seconds per operation
        self.work = []    # speed-clock seconds per operation, when a SpeedClock ran
        self.failed = 0
        self.elapsed = 0.0

    @property
    def wall_s(self):
        return sum(self.times)


def run_pass(ops, tracer=None, clock=None) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        t0 = time.perf_counter()
        w0 = clock.now() if clock else 0.0
        try:
            out = tracer.op(op_id, op.fn) if tracer else op.fn()
            err = None
        except Exception:
            err = "raised\n" + traceback.format_exc()
        if clock:
            result.work.append(clock.now() - w0)
        result.times.append(time.perf_counter() - t0)
        if err:
            result.failed += 1
            print(f"FAILED {op.label}: {err}", file=sys.stderr)
            continue
        try:
            err = op.check(out)
        except Exception:
            err = "check raised\n" + traceback.format_exc()
        if err:
            result.failed += 1
            print(f"FAILED {op.label}: {err}", file=sys.stderr)
    result.elapsed = time.perf_counter() - start
    return result


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "qspan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "sched_affinity": CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(np),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def blas_threads(np):
    """Thread count OpenBLAS reports, or the requested cap if it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() or "unknown"


def layer_metrics(wanted, traced: Pass, untraced: Pass, tracer, workload) -> tuple[dict, dict]:
    table = spans.summarize(tracer.spans)
    by_name = lambda name: [s for s in tracer.spans if s[spans.NAME] == name]  # noqa: E731
    dur = lambda ss: sum(s[spans.END] - s[spans.START] for s in ss)  # noqa: E731
    flow = by_name("trees.find_violation_flow")
    radius = by_name("spectral.spectral_radius")
    census = workload.counts if isinstance(workload, Census) else {}
    verdicts = list(workload.verdicts.values()) if isinstance(workload, Decide) else []
    special = {
        "verify.graphs_connected": census.get("graphs_connected", 0),
        "verify.graphs_near_bound": census.get("graphs_above_bound", 0),
        "verify.radius_stragglers": len(spans.under(tracer.spans, "spectral.spectral_radius",
                                                    "verify.engine")),
        "graph_core.part_preserving_isomorphic.true": sum(
            1 for s in by_name("graph_core.part_preserving_isomorphic") if s[spans.TAG]),
        "trees.find_violation_flow.feasible_s": dur(s for s in flow if s[spans.TAG]),
        "trees.find_violation_flow.infeasible_s": dur(s for s in flow if s[spans.TAG] is False),
        "spectral.spectral_radius.iterations": sum(s[spans.TAG][0] for s in radius if s[spans.TAG]),
        "spectral.spectral_radius.jacobi": sum(
            1 for s in radius if s[spans.TAG] and s[spans.TAG][1] != "power"),
        "decide.feasible": sum(verdicts),
        "decide.infeasible": len(verdicts) - sum(verdicts),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.bench_self_s": table.get(spans.OP, {}).get("self_s", 0.0),
        "trace.spans": len(tracer.spans),
    }
    out = {}
    for name, unit in wanted:
        if name in special:
            value = special[name]
        else:
            span_name, _, field = name.rpartition(".")
            value = table.get(span_name, {}).get(field, 0.0 if unit == "s" else 0)
        out[name] = {"value": value, "unit": unit}
    return out, table


def load_qspan():
    """Cap the BLAS threads, import qspan from src/ and return numpy."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(CPUS)
    sys.path.insert(0, str(SRC))
    import numpy as np

    global qspan
    import qspan.cli
    import qspan.graph_core
    import qspan.trees
    import qspan.verify

    return np


def fresh_setup(name: str, seed: int) -> float:
    """Speed-clock seconds a new interpreter takes to import qspan, generate
    the workload's inputs and warm up, as a user starting the workload would
    pay them."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import speedclock; "
            "clock = speedclock.SpeedClock().start(); w0 = clock.now(); "
            f"import run; run.load_qspan(); run.WORKLOADS[{name!r}]({seed}).prepare(); "
            "print(clock.now() - w0); clock.stop()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qspan" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: need {SRC / 'qspan'} and {spec_path}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    np = load_qspan()
    import_s = time.perf_counter() - T_START
    workload = WORKLOADS[args.workload](args.seed)
    t0 = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - t0
    ops = workload.ops()

    passes = []
    setup_times = []
    tracer = None
    if args.trace:
        passes.append(run_pass(ops))
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(ops, tracer))
        finally:
            tracer.uninstall()
    else:
        # Half the set-up rounds run before the passes and half after: the
        # host's speed drifts over seconds, and rounds at both ends of the
        # run sample more of it than rounds back to back.
        before = SETUP_REPEATS // 2
        setup_times = [fresh_setup(args.workload, args.seed) for _ in range(before)]
        t_measure = time.perf_counter()
        with SpeedClock() as clock:
            while True:
                passes.append(run_pass(ops, clock=clock))
                expected = statistics.median(p.elapsed for p in passes)
                if time.perf_counter() - t_measure + expected > args.seconds:
                    break
        setup_times += [fresh_setup(args.workload, args.seed)
                        for _ in range(SETUP_REPEATS - before)]

    attempted = len(ops) * len(passes)
    failed = sum(p.failed for p in passes)
    op_times = [t for p in passes for t in p.work]
    print(f"perfbench {workload.name} seed={args.seed} passes={len(passes)} "
          f"ops={attempted} failed={failed} fail_ratio={failed / attempted:.6g}")
    print("env " + json.dumps(environment(np), sort_keys=True))
    shape = workload.shape()
    print("shape " + json.dumps(shape, sort_keys=True))
    shape_ok = shape.get("in_range", True)
    if not shape_ok:
        print(f"FAILED corpus shape outside {DECIDE_SHAPE}", file=sys.stderr)

    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics, table = layer_metrics(wanted, passes[1], passes[0], tracer, workload)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload.name}-seed{args.seed}.json")
        total_self = sum(row["self_s"] for row in table.values())
        print(f"traced wall_s {passes[1].wall_s:.4f} s, untraced {passes[0].wall_s:.4f} s, "
              f"span self times sum to {total_self:.4f} s")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            share = row["self_s"] / passes[1].wall_s if passes[1].wall_s else 0.0
            print(f"  {name:42s} calls {row['calls']:8d}  s {row['s']:10.4f}  "
                  f"self_s {row['self_s']:10.4f}  {100 * share:5.1f}% of traced wall")
    else:
        values = {
            "time_s": statistics.median(sum(p.work) for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_p50_ms": 1e3 * percentile(op_times, 50),
            "op_p95_ms": 1e3 * percentile(op_times, 95),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"  reference loop: fastest {1e6 * min(clock.samples):.2f} us, median "
              f"{1e6 * statistics.median(clock.samples):.2f} us over {len(clock.samples)} samples, "
              f"counted as {1e6 * LOOP_S:.2f} us")
        print(f"  op samples {len(op_times)}, pass times "
              + ", ".join(f"{sum(p.work):.4f}" for p in passes)
              + ", pass walls " + ", ".join(f"{p.wall_s:.4f}" for p in passes)
              + ", fresh set-ups " + ", ".join(f"{t:.4f}" for t in setup_times)
              + f", this process: import {import_s:.4f}, prepare {prepare_s:.4f}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']!s:>24} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and shape_ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
