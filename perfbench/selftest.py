"""Self-test of the benchmark itself (not of routhkit); about a minute.

    python3 perfbench/selftest.py

Checks that:
  1. a smoke run of every workload, untraced and traced, passes its checks
     and prints every metric of spec.py with its unit;
  2. every count of the traced run repeats exactly on a second run of the
     same seed;
  3. a second seed changes the synthetic-momentum inputs and leaves the
     rigid-body counts unchanged;
  4. BENCHMARK.json is what manifest.py writes from spec.py;
  5. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import manifest
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "bytes")
failures = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stdout[-2000:], proc.stderr[-4000:], file=sys.stderr)
        return {"correct": False, "metrics": {}}


def counts(res):
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in COUNT_UNITS}


def main() -> int:
    names = [w["name"] for w in spec.WORKLOADS]
    traced = {}
    for name in names:
        for trace, wanted in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            res = result(name, 1, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(res["correct"], f"{name} trace={trace}: smoke run passes its checks")
            check(got == {m["name"]: m["unit"] for m in wanted},
                  f"{name} trace={trace}: every metric printed with its unit")
            if trace:
                traced[name] = res

    for name in names:
        again = result(name, 1, 1)
        check(counts(again) == counts(traced[name]) and counts(again),
              f"{name}: counts repeat exactly on a second run of seed 1")
    for name in ("rb-verify", "rb-kolosov"):
        check(counts(result(name, 2, 1)) == counts(traced[name]),
              f"{name}: seed 2 leaves the rigid-body counts unchanged")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory() as tmp:
        a = WORKLOADS["synthetic-momentum"].setup(1, tmp, True)
        b = WORKLOADS["synthetic-momentum"].setup(2, tmp, True)
    q = a["r0"].q
    check(not (a["r0"].to_vector() == b["r0"].to_vector()).all()
          and not (a["system"].mass_matrix(q) == b["system"].mass_matrix(q)).all(),
          "synthetic-momentum: seed 2 changes the system and initial state")

    with open(manifest.PATH) as handle:
        check(handle.read() == manifest.render(), "BENCHMARK.json matches spec.py")

    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out)
    try:
        shutil.copy(manifest.PATH, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("rb-verify", 1, 0, cwd=bare)
        printed = any(line.startswith("{") for line in proc.stdout.splitlines())
        check(proc.returncode != 0 and not printed,
              "without src/ the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
