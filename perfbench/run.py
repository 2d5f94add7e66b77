#!/usr/bin/env python3
"""Build and run the Griffin host-side benchmark (see README.md).

    python3 perfbench/run.py --workload sweep_b --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a Griffin checkout.  The first run configures and
builds the library and both benchmark programs into $CARGO_TARGET_DIR (default
.bench_build); later runs only check the build is current.  Each
workload runs in a fresh process, so peak RSS is per workload.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from the traced program.  The last line of stdout is the result object.
A traced run also stores its exact work counters under the build
directory, keyed by the traced binary's hash, workload and seed: a later
traced run of the same binary and seed whose counters differ is a
failure (the counters must repeat exactly on one commit).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sweep_b", "sweep_ab", "sweep_mixed", "points"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "perfbench_traced", "-j", jobs],
                   stdout=sys.stderr, check=True)


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def check_counters(build_dir, binary, workload, seed, lines):
    """Compare a traced run's counters line with the stored one."""
    counters = [l for l in lines if l.startswith("counters: ")]
    if not counters:
        return True
    state_dir = os.path.join(build_dir, "perfbench_counters")
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, "%s-%s-%d.txt" %
                        (file_hash(binary), workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            stored = f.read()
        if stored != counters[-1]:
            print("drift: stored " + stored)
            return False
        return True
    with open(path, "w") as f:
        f.write(counters[-1])
    return True


def run_workload(build_dir, workload, seed, seconds, trace):
    binary = os.path.join(build_dir,
                          "perfbench_traced" if trace else "perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--reference",
           os.path.join(HERE, "reference")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if trace and not check_counters(build_dir, binary, workload, seed,
                                    lines[:-1]):
        result["correct"] = False
        result["failed"] += 1
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        build(build_dir)
        if args.workload != "all":
            result = run_workload(build_dir, args.workload, args.seed,
                                  args.seconds, args.trace)
            print(json.dumps(result))
            return 0
        ok = True
        for workload in WORKLOADS:
            result = run_workload(build_dir, workload, args.seed,
                                  args.seconds, args.trace)
            ok = ok and result["correct"]
            print("result %s: %s" % (workload, json.dumps(result)))
        return 0 if ok else 1
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as err:
        log("perfbench: %s" % err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
