"""One pass of a workload, in a fresh interpreter.

Usage: python3 child.py SRC_DIR JOBS_JSON RESULT_JSON TRACE(0|1)

Times ``import pclie.cli`` (set-up), then runs every job of the list as an
in-process ``pclie.cli.main(argv)`` call with stdout captured, in order,
one at a time.  The lru_caches start cold because the interpreter is new,
and stay warm from one job to the next.  Writes per-job latencies, exit
codes and outputs, the work-phase wall time and peak RSS to RESULT_JSON;
with TRACE=1 it also installs the layer tracer and adds its roll-up.
"""

import sys
import time


def _peak_rss_mb():
    """High-water RSS of this process image.  ru_maxrss is no use here: on
    Linux it keeps the RSS of the forking benchmark process across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    src, jobs_path, result_path, trace = sys.argv[1:5]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pclie.cli

    setup_s = time.perf_counter() - t0

    import contextlib
    import io
    import json
    import traceback

    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)

    tracer = None
    main_fn = pclie.cli.main
    if trace == "1":
        from layers import Tracer

        modules = {
            name: getattr(pclie, name)
            for name in ("cli", "expr", "gsb", "lie", "quotient", "rules", "words")
        }
        tracer = Tracer()
        main_fn = tracer.install(modules)

    latencies, outputs = [], []
    clock = time.perf_counter
    start = clock()
    for k, argv in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = k
            before = tracer.cache_snapshot()
        t = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main_fn(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        latencies.append(clock() - t)
        if tracer is not None:
            tracer.cache_delta(before)
        outputs.append([rc, out.getvalue(), err.getvalue()])
    wall_s = clock() - start
    peak_rss_mb = _peak_rss_mb()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
    }
    if tracer is not None:
        tracer.output_bytes = sum(len(o[1].encode()) for o in outputs)
        result["layers"] = tracer.rollup(wall_s)
        result["spans"] = len(tracer.starts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
