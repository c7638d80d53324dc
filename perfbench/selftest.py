"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload that ``workloads.py`` defines, the ones that
BENCHMARK.json leaves out included, it checks that

* a planted fault (one job's output truncated before the checks) is
  caught: the result has ``failed`` > 0 and ``correct`` false;
* a short untraced run prints every end-to-end metric with its unit and
  a short traced run every per-layer metric, both with no failure, and
  the traced layer self times plus the unattributed time add up to the
  traced pass's wall time.

Last, it copies only BENCHMARK.json and the benchmark's files into an
empty directory and checks that the benchmark exits non-zero there
without printing a result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in workloads.WORKLOADS:
        proc = _run(ROOT, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0",
                    "--plant-fault")
        res = _result(proc)
        if proc.returncode != 0 or res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: planted fault not caught ({proc.stderr.strip()[-300:]})")
        else:
            print(f"{w}: planted fault caught, failed_ratio {res['failed'] / res['attempted']:.4g}")

        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", w, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace))
            res = _result(proc)
            want = {m["name"]: m["unit"] for m in spec[key]}
            if proc.returncode != 0 or res is None:
                problems.append(f"{w} trace {trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            table = proc.stdout.splitlines()
            missing = [
                n for n, u in list(want.items()) + [("failed_ratio", "1")]
                if not any(line.split()[1:2] == [n] and line.split()[-1] == u for line in table)
            ]
            if got != want or missing:
                problems.append(f"{w} trace {trace}: metrics differ from {key}: "
                                f"{sorted(set(got) ^ set(want)) or missing}")
            if trace:
                context = json.loads(table[0])["context"]
                layers = ("words", "lie", "rules", "gsb", "quotient", "expr", "cli")
                total = sum(res["metrics"][f"{x}.self_s"]["value"] for x in layers)
                total += res["metrics"]["trace.unattributed_s"]["value"]
                if abs(total - context["traced_wall_s"]) > 1e-6:
                    problems.append(f"{w}: layer self times add up to {total}, "
                                    f"not the traced wall time {context['traced_wall_s']}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} trace {trace}: {res['failed']} failed jobs "
                                f"({proc.stderr.strip()[-300:]})")
            print(f"{w} trace {trace}: {len(got)} metrics, {res['attempted']} jobs checked")

    bare = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if os.path.isfile(os.path.join(HERE, name)):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
        proc = _run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                    "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without sources the benchmark did not fail cleanly")
        else:
            print(f"without sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
