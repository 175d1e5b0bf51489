"""Smoke check of the benchmark.

Runs every workload named in BENCHMARK.json once at a fixed seed for a
short window, with tracing off and on, and asserts that

  * the run succeeds with no failed op (fail_ratio = 0),
  * every metric BENCHMARK.json names for that mode is printed, as a
    number with its unit, and nothing else,
  * a run whose oracle holds a deliberately corrupted reference (a
    flipped expected digest) counts that op as failed and exits
    nonzero.

Usage, from the root of a checkout:  python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
SECONDS = 1


def run(workload, trace, *extra):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload}: no result line")
    return p.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, r = run(name, trace)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            numbers = [k for k, v in r["metrics"].items()
                       if isinstance(v["value"], (int, float))
                       and not isinstance(v["value"], bool)]
            expect(rc == 0 and r["correct"], f"{name} trace={trace}: run succeeds")
            expect(r["attempted"] >= 1 and r["failed"] == 0,
                   f"{name} trace={trace}: fail_ratio = 0 "
                   f"({r['failed']}/{r['attempted']})")
            expect(got == want, f"{name} trace={trace}: prints every {section} metric "
                   f"(missing {sorted(set(want) - set(got))}, "
                   f"extra {sorted(set(got) - set(want))})")
            expect(len(numbers) == len(got), f"{name} trace={trace}: every value is a number "
                   f"(not: {sorted(set(got) - set(numbers))})")
            if not trace:
                expect(all(r["metrics"][k]["value"] > 0 for k in numbers),
                       f"{name}: no end-to-end metric reads 0")
            if trace:
                expect(r["metrics"]["fail_ratio"]["value"] == 0,
                       f"{name}: per-layer fail_ratio = 0")
        rc, r = run(name, 0, "--corrupt-reference")
        expect(rc != 0 and not r["correct"] and r["failed"] >= 1,
               f"{name}: corrupted reference counted as a failure "
               f"(exit {rc}, failed {r['failed']})")

    if problems:
        raise SystemExit(f"smoke check failed: {len(problems)} problem(s)")
    print("smoke check passed")


if __name__ == "__main__":
    main()
