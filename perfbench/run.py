"""veriforget benchmark.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 25 --trace 0

runs units of one workload for about ``--seconds`` (at least one unit),
checks every unit, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json untraced (``--trace 0``), or its per-layer metrics from a
traced run (``--trace 1``).  Untraced timings are in reference seconds,
wall seconds corrected for the machine's drifting speed (see speed.py);
the detail line before the result also gives them in wall seconds.  ``--workload all`` runs every workload in
fresh processes, untraced and traced, and prints a table.  Scratch files
go under ``.perfbench/`` at the checkout root; the traced run also writes
its spans to ``.perfbench/trace-<workload>-<seed>.json``.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread.  With OpenBLAS's default of one thread per core, a
# 420 x 420 Cholesky took 2.5 times as long on the shared 2-vCPU machine
# and its time scattered several-fold, while its threads spun on the
# core the rest of the process could use.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import speed  # noqa: E402  (after the BLAS setting: it imports numpy)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def unit_seed(seed: int, workload: str, i: int) -> int:
    """Seed of unit ``i``.  Units 2j and 2j+1 share a seed, so every second
    unit re-runs the one before it and must reproduce its artifacts."""
    tag = f"{workload}/{seed}/{i // 2}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:4], "big") % 1_000_000


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "machine": platform.machine(),
    }


def summarize(values: list) -> dict:
    """Sample count, median, and the highest percentile that has at least
    ten samples beyond it (none below 20 samples)."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 20:
        q = int(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


def setup_intervals(args) -> list:
    """Wall intervals of fresh processes that run this script's set-up
    (start, imports, workload construction) and stop before the first
    unit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    intervals = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        intervals.append((start, time.perf_counter()))
    return intervals


def group_seconds(groups: list, seconds) -> float:
    """Median over groups of intervals of the seconds summed in a group."""
    return statistics.median(sum(seconds(*iv) for iv in g) for g in groups)


def run_workload(args, spec) -> dict:
    from tracer import Tracer
    import workloads

    tracer = Tracer()
    workload = workloads.WORKLOADS[args.workload](workloads.Cli(tracer))
    if args.setup_probe:
        return {}
    scratch = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    meter = speed.Meter()
    # The traced run reports wall seconds; speed probes there would land
    # in the self time of whichever span is open.
    sampling = contextlib.nullcontext if args.trace else meter.sampling
    setup = [] if args.trace else setup_intervals(args)
    if args.trace:
        tracer.install()
    timings, seeds, failures, digests, unit_wall = [], [], [], {}, []
    deadline = time.perf_counter() + args.seconds
    try:
        i = 0
        # Start another unit only if a typical one (with its checks) still
        # ends before the deadline, so a run measures about --seconds.
        while i == 0 or (time.perf_counter() + statistics.median(unit_wall)
                         <= deadline):
            started = time.perf_counter()
            seed = unit_seed(args.seed, args.workload, i)
            w = os.path.join(scratch, f"u{i}")
            seeds.append(seed)
            try:
                tracer.unit = i
                try:
                    with sampling():
                        timing = workload.run(seed, w)
                finally:
                    tracer.unit = -1
                timings.append(timing)
                digest = workload.check(seed, w)
                if seed in digests:
                    workloads.require(digest == digests[seed],
                                      "a repeated seed gave other artifacts")
                digests[seed] = digest
            except Exception as exc:  # a failed unit is counted, not fatal
                failures.append(f"unit {i} (seed {seed}): {exc}")
                traceback.print_exc(file=sys.stderr)
            finally:
                shutil.rmtree(w, ignore_errors=True)
            unit_wall.append(time.perf_counter() - started)
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        kl = workload.quality(os.path.join(scratch, "quality"))
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(seeds)
    wall = {
        "pipeline_s": [group_seconds(t.pipeline, meter.wall) for t in timings],
        "certificate_s": [group_seconds(t.certificate, meter.wall)
                          for t in timings],
        "setup_s": [meter.wall(*iv) for iv in setup],
    }
    if args.trace:
        samples = {"trace.pipeline_s": wall["pipeline_s"],
                   "process.cpu_s": [t.cpu_s for t in timings]}
        values = tracer.per_layer(attempted)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        values["process.children_peak_rss_mb"] = children.ru_maxrss / 1024
    else:
        samples = {
            "pipeline_s": [group_seconds(t.pipeline, meter.seconds)
                           for t in timings],
            "certificate_s": [group_seconds(t.certificate, meter.seconds)
                              for t in timings],
            # Set-up runs before the probes; it is scaled by the whole run's.
            "setup_s": [meter.seconds(*iv, pad=math.inf) for iv in setup],
        }
        values = {
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": (attempted - len(failures)) / attempted,
            "kl_to_gold": kl,
        }
    for key, vals in samples.items():
        values[key] = statistics.median(vals) if vals else 0.0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "unit_seeds": seeds,
        "samples": {k: summarize(v) for k, v in samples.items() if v},
        "wall": {k: summarize(v) for k, v in wall.items() if v},
        "speed_probes": {
            "n": len(meter.starts),
            "median_s": {name: statistics.median(costs) if costs else None
                         for name, costs in meter.costs.items()},
            "nominal_s": speed.NOMINAL_S,
        },
        "failures": failures,
        "env": environment(),
        "missing_trace_targets": tracer.missing,
        "unreported": sorted(set(values) - set(metrics)),
    }
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({**detail, "per_layer": values, **tracer.dump()}, fh)
        detail["trace_file"] = os.path.relpath(path, ROOT)
    if tracer.missing:
        print(f"perfbench: trace targets not found: {tracer.missing}")
    print(json.dumps({"detail": detail}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(args, spec) -> int:
    """Every workload in a fresh process, untraced then traced; a table."""
    ok = True
    for w in spec["workloads"]:
        runs = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 w["name"], "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return fail(f"{w['name']} --trace {trace} exited {proc.returncode}")
            detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
            runs[trace] = json.loads(result_line)
            runs[trace]["detail"] = json.loads(detail_line)["detail"]
            ok = ok and runs[trace]["correct"]
        print(f"== {w['name']}: attempted {runs[0]['attempted']}, "
              f"failed {runs[0]['failed']}")
        for trace in (0, 1):
            for name, m in runs[trace]["metrics"].items():
                print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        overhead = (runs[1]["metrics"]["trace.pipeline_s"]["value"]
                    - runs[0]["detail"]["wall"]["pipeline_s"]["median"])
        print(f"  {'tracing overhead (traced - untraced wall pipeline_s)':48s} "
              f"{overhead:14.6g} s")
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isfile(os.path.join(SRC, "veriforget", "__init__.py")):
        return fail(f"no veriforget sources under {SRC}")
    sys.path.insert(0, SRC)
    import veriforget

    if not os.path.abspath(veriforget.__file__).startswith(SRC + os.sep):
        return fail(f"imported veriforget from {veriforget.__file__}, not {SRC}")

    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    result = run_workload(args, spec)
    if not args.setup_probe:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
