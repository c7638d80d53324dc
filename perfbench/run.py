"""pclie benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/pclie`` must exist).  The
workload's inputs are generated from the seed, then passes are run one
at a time until S seconds are spent.  A pass is a fresh interpreter
(``child.py``) that imports pclie and runs the whole job list in a closed
loop with one client, so every pass pays the cold-cache start a CLI user
pays, and caches stay warm across the jobs of the pass.

After the passes every output is checked outside the timed region: the
first pass against the oracles in ``checks.py``, later passes for equal
bytes, and with the default seed against the digests committed in
``digests.json``.

``--trace 0`` reports the end-to-end metrics.  Every pass runs the same
jobs from the same cold start, so one job's passes differ only by machine
noise and memory layout; each job's latency is taken as its best over the
untraced passes (as ``timeit`` does), and ``wall_s`` and the percentiles
are computed from those best latencies.  On a shared host whose CPU speed
drifts from second to second this is steadier than a mean or a median.  Set-up is timed
in import-only interpreters started between the passes and reported as a
median.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer roll-up of the traced pass with the median wall time, plus
the tracing overhead.  The last line of stdout is the JSON result; the
lines before it give the run context and a readable table.

Pass ``k`` runs with ``PYTHONHASHSEED=k``.  The hash seed changes set
and dict orders and the memory layout of a pass, but neither its work nor
its output (the checks hold every pass to the first one's bytes); with
one fixed hash seed, a whole run could be 1.4x slower or faster
depending on how that seed met the inputs.  Taking each job's best over
several hash seeds measures the program rather than one layout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
PASS_TIMEOUT_S = 120
SETUP_SAMPLES = 15

# name, unit; failed_ratio is printed in the table and carried by the
# result's "failed" and "attempted" fields
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _digest(outputs):
    h = hashlib.sha256()
    for rc, out, _ in outputs:
        h.update(f"{rc}\0{len(out)}\0".encode())
        h.update(out.encode())
    return h.hexdigest()


def _job_digests(outputs):
    return [hashlib.sha256(f"{rc}\0{out}".encode()).hexdigest() for rc, out, _ in outputs]


def _quantile(values, q):
    """Inclusive-method quantile (q a multiple of 0.01) of a non-empty
    sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _commit():
    """HEAD commit when the checkout is a git work tree, else None.  Read
    from .git directly, so that nothing outside the checkout is read."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pclie")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _run_pass(workdir, jobs_path, k, traced):
    result_path = os.path.join(workdir, f"pass{k}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), SRC, jobs_path, result_path,
         "1" if traced else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": str(k)},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {k} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


def run(workload, seed, seconds, trace, plant_fault=False):
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs = workloads.make_jobs(workload, seed, workdir)
        jobs_path = os.path.join(workdir, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump([j.argv for j in jobs], fh)

        # import-only passes between the work passes, so that set-up time is
        # a median of samples spread over the run
        empty_path = os.path.join(workdir, "empty.json")
        with open(empty_path, "w", encoding="utf-8") as fh:
            json.dump([], fh)

        passes, setups = [], []
        t0 = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            p = _run_pass(workdir, jobs_path, len(passes), traced)
            if passes:
                # later passes are only compared with the first: keep digests
                p["outputs"] = _job_digests(p["outputs"])
            p["traced"] = traced
            passes.append(p)
            setups.append(p["setup_s"])
            if not trace:
                setups.append(_run_pass(workdir, empty_path, len(setups), False)["setup_s"])
            elapsed = time.perf_counter() - t0
            enough = not trace or len(passes) >= 2
            if enough and elapsed + elapsed / len(passes) > seconds:
                break
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_run_pass(workdir, empty_path, len(setups), False)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if plant_fault:
        victim = passes[0]["outputs"][seed % len(jobs)]
        victim[1] = victim[1][: len(victim[1]) // 2]
    failures = _check(workload, seed, jobs, passes)
    return jobs, passes, setups, failures


def _check(workload, seed, jobs, passes):
    """Check every job of every pass; returns (pass, job, reason) triples."""
    sys.path.insert(0, SRC)
    import checks

    first = passes[0]["outputs"]
    reference = _job_digests(first)
    failures = []
    for j, (job, output) in enumerate(zip(jobs, first)):
        reason = checks.check(job.check, output)
        if reason is not None:
            failures.append((0, j, reason))
    for k, p in enumerate(passes[1:], start=1):
        for j, d in enumerate(p["outputs"]):
            if d != reference[j]:
                failures.append((k, j, "output differs from the first pass"))
    if seed == DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            want = json.load(fh).get(workload)
        if _digest(first) != want:
            failures.append((0, -1, "output digest differs from the committed one"))
    return failures


def end_to_end(passes, setups):
    """Each job's best latency over the untraced passes; ``wall_s`` is the
    time to all results at those latencies, the percentiles are over jobs.
    Set-up time and peak RSS are medians."""
    plain = [p for p in passes if not p["traced"]]
    best = [min(job) for job in zip(*(p["latencies"] for p in plain))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "job_p50_ms": 1000 * _quantile(best, 0.5),
        "job_p90_ms": 1000 * _quantile(best, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(passes):
    """Roll-up of the traced pass with the median wall time, so that its
    layer self times and unattributed time add up to its wall time (also
    returned)."""
    traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    plain = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    metrics = dict(chosen["layers"])
    metrics["trace.overhead_ratio"] = chosen["wall_s"] / plain
    return metrics, chosen["wall_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant-fault", action="store_true",
        help="self-test: corrupt one job's output before the checks",
    )
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running pass,
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if not os.path.isfile(os.path.join(SRC, "pclie", "__init__.py")):
        print(f"error: no pclie sources under {SRC}", file=sys.stderr)
        return 2

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }
    try:
        jobs, passes, setups, failures = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.plant_fault
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    context["loadavg_end"] = os.getloadavg()
    context["passes"] = len(passes)
    context["traced_passes"] = sum(p["traced"] for p in passes)
    context["jobs_per_pass"] = len(jobs)
    if args.trace:
        context["spans_per_traced_pass"] = [p["spans"] for p in passes if p["traced"]]

    attempted = len(jobs) * len(passes)
    # a digest mismatch alone (job -1) counts as one failed job
    failed = len({(k, j) for k, j, _ in failures if j >= 0}) or min(len(failures), 1)
    for k, j, reason in failures[:20]:
        print(f"FAIL pass {k} job {j}: {reason}", file=sys.stderr)

    context["output_sha256"] = _digest(passes[0]["outputs"])
    if args.trace:
        units = {n: u for n, u, _ in PER_LAYER}
        values, context["traced_wall_s"] = per_layer(passes)
    else:
        units = dict(END_TO_END)
        values = end_to_end(passes, setups)
    print(json.dumps({"context": context}, sort_keys=True))
    for name, unit in units.items():
        print(f"{args.workload:12s} {name:40s} {values[name]:>16.6g} {unit}")
    print(f"{args.workload:12s} {'failed_ratio':40s} {failed / attempted:>16.6g} 1")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
