"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's inputs come from ``--seed``;
its operation repeats in a closed loop with one client for ``--seconds``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics, taken from a second, traced
half of the run, plus the tracing overhead against the untraced half.

A full result, with the environment stamp, per-stage figures and the digest
of the byte-compared artifacts, is also written to
``bench/results/<workload>-seed<N>-trace<T>.json`` (see ``--results``).
"""

from __future__ import annotations

import os
import sys

# Pin BLAS and OpenMP to one thread before anything imports numpy: small
# matrix products jitter by an order of magnitude when threads are free.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from stats import percentile, samples_beyond, tail_percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; setup_s is their median.
SETUP_REPS = 3

IMPORT_PROBE = "import numpy, powernet.cli"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def start_interpreter():
    """Run a fresh interpreter that imports numpy and powernet, with the
    same environment as this process."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                   env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                   check=True, timeout=60)


def blas_threads():
    """Threads OpenBLAS reports it will use, when numpy bundles OpenBLAS."""
    import ctypes
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def env_stamp():
    import numpy
    try:
        # the ceiling keeps git from reporting a repository above the root
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True,
                             env=dict(os.environ,
                                      GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "powernet", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
    }


class Phase:
    """Latencies and failures of the operations run in one phase."""

    def __init__(self):
        self.intervals = []     # (start, end) of each operation
        self.scaled = []        # latencies scaled to the reference speed
        self.failed = 0
        self.failures = []      # one message per problem found

    @property
    def latencies(self):
        return [end - start for start, end in self.intervals]

    def finish(self, probe):
        self.scaled = [probe.scaled(start, end) for start, end in self.intervals]

    def ms(self, pct):
        return 1000.0 * percentile(self.scaled, pct)


def run_op(workload, i, phase, tracer=None):
    """Time one operation, then check its outputs outside the timed span."""
    if tracer is not None:
        tracer.rid = i
    problems = []
    t0 = time.perf_counter()
    try:
        outcome = workload.op(i)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        problems = [f"raised {type(exc).__name__}: {exc}"]
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.rid = None
    if not problems:
        try:
            problems = workload.check(outcome)
        except Exception as exc:  # malformed output the checks could not read
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    phase.intervals.append((t0, t1))
    phase.failed += bool(problems)
    phase.failures += [f"op {i}: {p}" for p in problems]


def measure(workload, seconds, first, probe, tracer=None):
    """Closed loop, one client: start operations until ``seconds`` have
    passed and at least ``workload.min_ops`` have run."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = first
    while time.perf_counter() < deadline or len(phase.intervals) < workload.min_ops:
        run_op(workload, i, phase, tracer)
        i += 1
    phase.finish(probe)
    return phase


def timed(fn, probe):
    """Run ``fn``; returns its wall time and its time scaled to the
    reference speed."""
    t0 = time.perf_counter()
    fn()
    t1 = time.perf_counter()
    return t1 - t0, probe.scaled(t0, t1)


def stage_summary(workload):
    return {k: statistics.median(v) for k, v in sorted(workload.stages.items())}


def run(args):
    """Set up, warm up and measure one workload; returns the full result."""
    import workloads
    work = os.path.join(args.results, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](work, args.seed,
                                            workloads.SCALES[args.scale])
    try:
        with SpeedProbe() as probe:
            return measure_workload(wl, args, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_workload(wl, args, probe):
    # a set-up is what a user pays before the first operation: a fresh
    # interpreter with its imports, then the workload's inputs
    setups = [(timed(start_interpreter, probe), timed(wl.setup, probe))
              for _ in range(SETUP_REPS)]
    warm = Phase()          # fills caches; its outputs become the reference
    run_op(wl, 0, warm)
    quality = wl.quality_problems()
    if quality:
        warm.failed = 1
        warm.failures += [f"quality: {q}" for q in quality]
    base = measure(wl, args.seconds / 2 if args.trace else args.seconds, 1, probe)
    phases = [warm, base]
    if args.trace:
        traced, metrics = traced_half(wl, args, base, setups, probe)
        phases.append(traced)
    else:
        metrics = {
            "setup_s": statistics.median(imp[1] + st[1] for imp, st in setups),
            "op_ms_p50": base.ms(50),
            "op_ms_tail": base.ms(wl.tail_pct),
            "ops_per_s": len(base.scaled) / sum(base.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.intervals) for p in phases)
    failed = sum(p.failed for p in phases)
    n = len(base.intervals)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "seconds": args.seconds, "env": env_stamp(),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "correct": not failures,
        "failures": failures[:20], "ops_measured": n,
        "tail_pct": wl.tail_pct, "beyond_tail": samples_beyond(n, wl.tail_pct),
        "highest_supported_pct": tail_percentile(n),
        "op_ms_p99": base.ms(99),
        "stages": stage_summary(wl), "digest": wl.digest(),
        "test_mape_pct": wl.test_mape, "mean_forecast_mape_pct": wl.mean_mape,
        "setup_wall_s": [imp[0] + st[0] for imp, st in setups],
        "wall_ms": [1000.0 * x for x in base.latencies],
        "scaled_ms": [1000.0 * x for x in base.scaled],
        "probe_us": 1e6 * statistics.median(probe.values),
        "metrics": metrics,
    }


def traced_half(wl, args, base, setups, probe):
    """Set up once and run the second half of the run with wrappers
    installed; returns the traced phase and the per-layer metrics."""
    import tracing
    modules = {name: importlib.import_module(f"powernet.{name}")
               for name in ("cli", "dataio", "features", "model", "training",
                            "metrics", "baselines", "forecast_anomaly", "synth")}
    modules["powernet"] = importlib.import_module("powernet")
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        tracer.rid = tracing.SETUP_RID
        _, traced_setup = timed(wl.setup, probe)
        tracer.rid = None
        traced = measure(wl, args.seconds / 2, len(base.intervals) + 1, probe, tracer)
    finally:
        tracer.rid = None
        tracer.uninstall()
    layer = tracing.layer_metrics(tracer.spans, len(traced.intervals),
                                  sum(traced.latencies))
    layer.update({
        "trace.overhead.setup_s":
            traced_setup - statistics.median(st[1] for _, st in setups),
        "trace.overhead.op_ms_p50": traced.ms(50) - base.ms(50),
        "trace.overhead.op_ms_tail": traced.ms(wl.tail_pct) - base.ms(wl.tail_pct),
    })
    if layer["trace.unattributed.s"] < 0:
        traced.failures.append("summed layer self time exceeds the traced wall time")
    os.makedirs(args.results, exist_ok=True)
    tracer.write(os.path.join(
        args.results, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    return traced, layer


def select(metrics, declared, trace):
    """The declared metrics, in declared order; per-layer metrics a
    workload does not exercise read 0."""
    out = {}
    for m in declared:
        if m["name"] not in metrics and not trace:
            raise KeyError(f"workload did not produce {m['name']}")
        out[m["name"]] = {"value": float(metrics.get(m["name"], 0.0)),
                          "unit": m["unit"]}
    return out


def report(result, selected):
    env = result["env"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"git={env['git_sha']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} nproc={env['nproc']} blas_threads={env['blas_threads']}")
    print(f"# ops measured {result['ops_measured']}, {result['beyond_tail']} beyond "
          f"the tail p{result['tail_pct']:g}; p99 {result['op_ms_p99']:.6g} ms "
          f"(highest percentile with >= 10 beyond: p{result['highest_supported_pct']:g}); "
          f"attempted {result['attempted']}, "
          f"failed {result['failed']}, error_rate {result['error_rate']:.4g}")
    for name, m in selected.items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    for name, value in result["stages"].items():
        print(f"stage.{name:38s} {value:14.6g}")
    if result["test_mape_pct"] is not None:
        print(f"# quality: test MAPE {result['test_mape_pct']:.4g}% against "
              f"{result['mean_forecast_mape_pct']:.4g}% for the mean forecast")
    print(f"# artifact digest {result['digest']}")
    for failure in result["failures"]:
        print(f"# FAIL {failure}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for smoke tests")
    p.add_argument("--results", default=os.path.join(HERE, "results"),
                   help="directory for result files (one result set)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "powernet", "__init__.py")):
        print(f"error: no powernet sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, SRC)
    result = run(args)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = select(result["metrics"], declared, args.trace)
    os.makedirs(args.results, exist_ok=True)
    path = os.path.join(args.results,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, metrics=selected, all_metrics=result["metrics"]),
                  fh, indent=1, sort_keys=True)
    report(result, selected)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
