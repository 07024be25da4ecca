"""Benchmark of the hk pipeline: end-to-end timings, memory and per-layer spans.

Run from the root of an hk checkout:

    python3 perfbench/run.py --workload study-p3 --seed 1 --seconds 35 --trace 0

Each workload runs as a closed loop with one client: one fresh child
process at a time (``perfbench/child.py``), hk at its CLI default of one
thread and BLAS pinned to one thread.  One untimed warm-up run fills the
.pyc files and the file cache first; then runs repeat until ``--seconds``
have passed (at least ``MIN_RUNS`` of each kind).  A run fails if it exits
non-zero, raises, or fails its workload's correctness gate; failed runs are
counted, not timed.  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of the traced ones (medians), plus the
tracing overhead.  ``--workload all`` runs every workload in turn.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, with the environment, go to ``perfbench/out/``.  The exit code is
0 only when every run passed.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path("perfbench") / "out"
SRC_DIR = Path("src")
BLAS_THREADS = 1
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Peak RSS of identical study runs spreads over 132..155 MiB for reasons
# outside hk's allocations (it did not settle with address randomization
# or numpy's huge-page advice turned off), so the largest run is reported.
END_TO_END_STATS = {"run_s": "median", "setup_s": "median",
                    "peak_rss_mib": "max"}
REPORT_ONLY_UNITS = {"failed_fraction": "fraction", "E_exp_finest": "norm",
                     "E_exp_rate": "1"}
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_names(names):
    """Raise ValueError unless every name is a valid benchmark metric name."""
    bad = [name for name in names if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")


STATS = {"median": statistics.median, "max": max}


def summarize(values, unit, stat="median"):
    """A metric's samples reduced by ``stat``, with unit, count and range."""
    return {"value": STATS[stat](values), "unit": unit, "stat": stat,
            "n": len(values), "min": min(values), "max": max(values),
            "samples": list(values)}


def format_metric(name, summary):
    return (f"  {name:<34} {summary['value']:>12.6g} {summary['unit']:<8} "
            f"{summary['stat']} of n={summary['n']}, range "
            f"{summary['min']:.6g}..{summary['max']:.6g}")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the git checkout in the working directory; None if none.

    The search for a repository stops at the working directory, so a
    checkout that is not a repository does not report an enclosing one.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "git_commit": _git_commit()}


def child_env():
    env = dict(os.environ)
    src = str(SRC_DIR.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("HK_THREADS", None)
    return env


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_child(name, config_path, work_dir, trace):
    """Start one child run and wait for it; returns its result dict.

    A run that exits non-zero, times out or leaves no result comes back
    with ``failures`` set and no timings.
    """
    out = work_dir / "hk_out"
    result_path = work_dir / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", name,
           "--config", str(config_path), "--out", str(out),
           "--result", str(result_path), "--trace", str(int(trace)),
           "--launched", str(time.time_ns())]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            result = {"failures": [f"exit {proc.returncode}: {tail[0]}"]}
        else:
            with open(result_path) as fh:
                result = json.load(fh)
    except subprocess.TimeoutExpired:
        result = {"failures": [f"timed out after {CHILD_TIMEOUT_S:.0f} s"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
        result_path.unlink(missing_ok=True)
    result["trace"] = bool(trace)
    return result


def bench_workload(name, seed, seconds, trace):
    """Warm up, then loop runs of one workload; returns the results dict."""
    from hk.cli import PRESETS
    workload = workloads.WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work_dir = OUT_DIR / tag
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"
    with open(config_path, "w") as fh:
        json.dump(workload.config(PRESETS, seed), fh, indent=2)

    runs = [run_child(name, config_path, work_dir, trace=False)]  # warm-up
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < seconds
           or k < MIN_RUNS * len(modes)):
        runs.append(run_child(name, config_path, work_dir,
                              modes[k % len(modes)]))
        k += 1
    shutil.rmtree(work_dir, ignore_errors=True)
    return summarize_runs(name, runs, trace)


def summarize_runs(name, runs, trace):
    """Metrics of one workload from its child results (warm-up first)."""
    workload = workloads.WORKLOADS[name]
    failed = sum(1 for r in runs if r["failures"])
    timed = [r for r in runs[1:] if not r["failures"]]
    plain = [r for r in timed if not r["trace"]]
    traced = [r for r in timed if r["trace"]]
    e2e = {}
    if plain:
        for metric, unit in END_TO_END_UNITS.items():
            e2e[metric] = summarize([r[metric] for r in plain], unit,
                                    END_TO_END_STATS[metric])
    e2e["failed_fraction"] = dict(
        summarize([failed / len(runs)], REPORT_ONLY_UNITS["failed_fraction"]),
        n=len(runs))
    if workload.is_study and plain:
        for metric in ("E_exp_finest", "E_exp_rate"):
            e2e[metric] = summarize([r["accuracy"][metric] for r in plain],
                                    REPORT_ONLY_UNITS[metric])
    layers = {}
    if traced and plain:
        per_run = [spans.layer_metrics(r["spans"], r["run_s"])
                   for r in traced]
        for metric, unit in spans.LAYER_UNITS.items():
            if metric in per_run[0]:
                layers[metric] = summarize([m[metric] for m in per_run], unit)
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - e2e["run_s"]["value"])
        layers["trace.overhead_s"] = summarize([overhead], "s")
    expected = END_TO_END_UNITS if not trace else spans.LAYER_UNITS
    complete = all(metric in (layers if trace else e2e)
                   for metric in expected)
    return {"workload": name, "attempted": len(runs), "failed": failed,
            "correct": failed == 0 and complete,
            "failures": [f for r in runs for f in r["failures"]],
            "end_to_end": e2e, "per_layer": layers,
            "spans": [r["spans"] for r in traced]}


def print_summary(result, trace):
    print(f"{result['workload']}: {result['attempted']} runs "
          f"(1 warm-up), {result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for metric, summary in result["end_to_end"].items():
        print(format_metric(metric, summary))
    if trace:
        print("  per layer (traced runs):")
        for metric, summary in result["per_layer"].items():
            print(format_metric(metric, summary))


def contract_line(result, trace):
    """The last-line JSON object for one workload."""
    names = spans.LAYER_UNITS if trace else END_TO_END_UNITS
    source = result["per_layer"] if trace else result["end_to_end"]
    metrics = {m: {"value": source[m]["value"], "unit": source[m]["unit"]}
               for m in names if m in source}
    check_metric_names(metrics)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def write_results(result, seed, seconds, trace):
    tag = f"{result['workload']}-seed{seed}-trace{int(trace)}"
    payload = {"workload": result["workload"], "seed": seed,
               "seconds": seconds, "trace": trace,
               "environment": environment(),
               **{k: v for k, v in result.items() if k != "spans"}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    if result["spans"]:
        with open(OUT_DIR / f"{tag}.spans.json", "w") as fh:
            json.dump(result["spans"], fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "hk" / "__init__.py").is_file():
        print("perfbench: src/hk not found; run from the root of an hk "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR.resolve()))

    trace = bool(args.trace)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = []
    for name in names:
        result = bench_workload(name, args.seed, args.seconds, trace)
        write_results(result, args.seed, args.seconds, trace)
        print_summary(result, trace)
        results.append(result)
    if len(results) == 1:
        line = contract_line(results[0], trace)
    else:
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "workloads": {r["workload"]: contract_line(r, trace)["metrics"]
                              for r in results}}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
