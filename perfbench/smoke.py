"""Smoke test of the benchmark: every workload at minimal length.

Run from the repository root:

    python3 perfbench/smoke.py [--seed N]

For each workload it runs run.py once with ``--trace 0`` and twice with
``--trace 1``, all with the same seed and one second of measuring, and
checks that

- each run exits 0 and reports correct outputs;
- every end-to-end metric of BENCHMARK.json, and error_rate, is printed with
  its unit, and the final JSON line carries exactly the end-to-end metrics;
- every per-layer metric of BENCHMARK.json is printed with its unit, and the
  final JSON line of a traced run carries exactly the per-layer metrics;
- every count (unit count or bytes), every ratio of counts and the digest
  repeat exactly between the two traced runs.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "bytes", "ratio")


def run(workload: str, seed: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--min-ops", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    lines = proc.stdout.splitlines()
    printed = {}
    digests = []
    for line in lines:
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) >= 4:
            printed[parts[1]] = (parts[2], parts[3])
        elif parts[:1] == ["digest"]:
            digests.append(parts[-1])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, printed, digests, result, proc.stderr


def check(ok: bool, what: str, failures: list):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    p = argparse.ArgumentParser(description="benchmark smoke test")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    for wl in (w["name"] for w in spec["workloads"]):
        rc, printed, _, result, err = run(wl, args.seed, 0)
        check(rc == 0 and result is not None and result["correct"],
              f"{wl} --trace 0 exits 0 with correct outputs {err[-300:]}", failures)
        want = {**e2e, "error_rate": "ratio"}
        check(all(printed.get(k, (None, None))[1] == u for k, u in want.items()),
              f"{wl} --trace 0 prints every end-to-end metric with its unit", failures)
        check(result is not None and {k: v["unit"] for k, v in result["metrics"].items()} == e2e,
              f"{wl} --trace 0 result carries exactly the end-to-end metrics", failures)

        traced = [run(wl, args.seed, 1) for _ in range(2)]
        for i, (rc, printed, digests, result, err) in enumerate(traced):
            check(rc == 0 and result is not None and result["correct"],
                  f"{wl} --trace 1 run {i} exits 0 with correct outputs {err[-300:]}", failures)
            check(all(printed.get(k, (None, None))[1] == u for k, u in layer.items()),
                  f"{wl} --trace 1 run {i} prints every per-layer metric with its unit", failures)
            check(result is not None
                  and {k: v["unit"] for k, v in result["metrics"].items()} == layer,
                  f"{wl} --trace 1 run {i} result carries exactly the per-layer metrics",
                  failures)
        (_, first, d1, _, _), (_, second, d2, _, _) = traced
        exact = [k for k, (_, unit) in first.items() if unit in EXACT_UNITS]
        differ = [k for k in exact if first[k] != second.get(k)]
        check(bool(exact) and not differ,
              f"{wl} {len(exact)} counts and ratios repeat exactly {differ}", failures)
        check(bool(d1) and d1 == d2, f"{wl} digests repeat exactly", failures)

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
