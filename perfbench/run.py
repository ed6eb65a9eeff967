#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --sweep [--seed <n>]

Run from the root of a checkout.  The measuring program is compiled from the
checkout's src/ with perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default
.bench_build), then run once for the named workload in its own process.  The
last line of standard output is the result JSON, checked against and ordered
by BENCHMARK.json before it is printed.  Traced runs write their spans as Chrome
trace-event JSON under the build directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-inter", "build-fleet-lossy", "churn-waypoint")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def library_sources_present():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src):
        return False
    return any(name.endswith(".cpp")
               for _, _, files in os.walk(src) for name in files)


def build(build_dir):
    """Configure once, then build (a no-op when nothing changed).

    Compiler output goes to stderr, so the result stays the last line of
    standard output.
    """
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unavailable"


def normalize(line, trace):
    """The result line with its metrics in BENCHMARK.json's order.

    A traced run reports only the layers its workload exercises; the others
    read 0.  Raises ValueError when the result does not match the spec.
    """
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    for name, metric in got.items():
        if units.get(name) != metric["unit"]:
            raise ValueError(f"metric {name} [{metric['unit']}] not in spec")
    missing = [m["name"] for m in spec if m["name"] not in got]
    if missing and not trace:
        raise ValueError(f"missing metrics {missing}")
    result["metrics"] = {
        m["name"]: got.get(m["name"], {"value": 0.0, "unit": m["unit"]})
        for m in spec}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="print the serve-inter scaling sweep (not gated)")
    args = parser.parse_args()
    if not args.sweep and args.workload is None:
        parser.error("--workload is required unless --sweep is given")

    if not library_sources_present():
        return fail("no library sources under src/; run from a full checkout")
    build_dir = os.path.join(build_root(), "perfbench")
    if not build(build_dir):
        return fail("build failed")
    binary = os.path.join(build_dir, "wcds_perfbench")

    if args.sweep:
        return subprocess.run([binary, "--sweep", "--seed", str(args.seed)],
                              timeout=900).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_root(), "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SRC_DIGEST=source_digest())
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = normalize(lines[-1], args.trace == 1)
    except ValueError as error:
        # A malformed result is never printed as the last line.
        return fail(f"bad result line: {error}")
    # A failed output check prints its result (correct: false) and exits 1.
    print(result, flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
