"""One run of one workload, in a fresh process started by ``run.py``.

Set-up is timed from the parent's launch stamp (``--launched``, ns since
the epoch) to the point where hk is imported, the config is loaded and
validated and ``build_spec``/``build_tensors`` have returned.  The run is
timed from the subcommand's first call until its report files are
written.  The result, including spans when ``--trace 1``, goes to
``--result`` as JSON; the parent decides what the run counts for.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads


def peak_rss_kib():
    """Peak resident memory of this process's address space, in KiB.

    VmHWM starts afresh at exec; ``ru_maxrss`` would carry over the peak
    of the parent that forked this process.  ``ru_maxrss`` is the fallback
    where /proc is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--launched", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from hk import cli
    cfg = cli.validate_config(cli.load_config(args.config))
    cli.build_spec(cfg)
    cli.build_tensors(cfg)
    setup_s = (time.time_ns() - args.launched) / 1e9

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    code = cli.COMMANDS[workload.subcommand](cfg, out, 1)
    run_s = time.perf_counter() - start
    peak_rss_mib = peak_rss_kib() / 1024.0

    failures, accuracy = workloads.check_outputs(
        workload, out, workloads.load_reference())
    if code != 0:
        failures.insert(0, f"subcommand returned {code}")
    result = {"setup_s": setup_s, "run_s": run_s,
              "peak_rss_mib": peak_rss_mib, "failures": failures,
              "accuracy": accuracy,
              "spans": tracer.spans if tracer is not None else None}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
