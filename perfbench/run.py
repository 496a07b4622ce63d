#!/usr/bin/env python3
"""Builds and runs the Delos benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

A measurement run builds perfbench/ (CMake, over the repository's src/)
into .bench_build/ at the repository root on first use, runs one workload
and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer one (--trace 1). It exits non-zero, without that line, when the
build fails, the run is not a measurement, or the metrics do not match
BENCHMARK.json.

--selftest runs the checker self-test (every checker must reject a
known-bad result), a one-second smoke run of every workload in both modes,
and a probe that counts the reads a known snapshot race fails when reads
and writes share keys.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def source_stamp():
    """The commit, or (outside git) a hash of the sources the binary builds."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def build():
    """Configures (once) and builds delos_bench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"no Delos sources at {ROOT / 'src'}; run from a full checkout")
    out = build_root() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(out / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail(2, f"cmake configure failed; see {log_path}")
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        command = ["cmake", "--build", str(out), "--target", "delos_bench", "-j", jobs]
        if subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail(2, f"build failed; see {log_path}")
    return out / "delos_bench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines, parsed result or None)."""
    work = build_root() / "work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(work), "--commit", source_stamp(), *extra]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        shutil.rmtree(work, ignore_errors=True)
        sys.stderr.write(timeout.stderr.decode() if isinstance(timeout.stderr, bytes)
                         else (timeout.stderr or ""))
        return 124, [], None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def validate(result, trace):
    """Returns why `result` breaks the output contract, or None."""
    if result is None:
        return "no result line"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}"
    if result["attempted"] < 1:
        return "no ops attempted"
    return None


def measure(args):
    binary = build()
    code, lines, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                       args.trace)
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(code, f"{args.workload} exited with code {code}; not a measurement")
    problem = validate(result, args.trace)
    if problem:
        print("\n".join(lines), file=sys.stderr)
        fail(4, problem)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def selftest():
    binary = build()
    failures = []
    checker = subprocess.run([str(binary), "--selftest"], capture_output=True, text=True)
    print(checker.stdout.strip())
    sys.stderr.write(checker.stderr)
    if checker.returncode != 0:
        failures.append("checker self-test")
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for trace in (0, 1):
        for workload in workloads:
            code, _, result = run_workload(binary, workload, 7, 1, trace)
            problem = f"exit code {code}" if code != 0 else validate(result, trace)
            if problem is None and not result["correct"]:
                problem = f"{result['failed']} of {result['attempted']} ops failed"
            print(f"smoke {workload} trace={trace}: {problem or 'ok'}")
            if problem:
                failures.append(f"smoke {workload} trace={trace}")
    # The race the split key spaces avoid: report it, but it is known.
    code, _, result = run_workload(binary, "zelos_saturate", 7, 2, 0, ("--shared-keys", "1"))
    if code == 0 and result is not None:
        print(f"known snapshot race with shared keys: {result['failed']} of "
              f"{result['attempted']} ops failed")
    if failures:
        fail(3, "self-test failed: " + ", ".join(failures))
    print("perfbench self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    elif args.workload:
        measure(args)
    else:
        parser.error("--workload or --selftest is required")


if __name__ == "__main__":
    main()
