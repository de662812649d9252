#!/usr/bin/env python3
"""Benchmark entry point: build the program from this checkout, run one
workload, check the result against BENCHMARK.json and print it.

    python3 perfbench/run.py --workload tcp_small_read --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; the first run configures and
builds, later runs only check that the build is current. The last line of
standard output is the result JSON; every line before it is for people.
With --trace 1 the spans of the run are written to
<build>/perfbench/traces/<workload>.jsonl.
"""

import argparse
import ctypes
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170
TARGETS = ["perfbench_harness", "perfbench_selftest", "hotmand"]


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "perfbench"


def hotmand(bdir):
    return bdir / "hotman" / "tools" / "hotmand"


def check_sources():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no program sources at {ROOT} (need CMakeLists.txt and src/ "
             "next to perfbench/)", 2)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json at {ROOT}", 2)


def build(bdir):
    """Configures on first use, then brings the targets up to date."""
    log = sys.stderr
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(bdir), "-j", jobs, "--target"] + TARGETS
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")


def die_with_parent():
    """Runs in the child before exec: SIGKILL it if this runner dies."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(cmd):
    """Runs `cmd`, forwarding SIGINT/SIGTERM to it; returns (code, stdout)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             preexec_fn=die_with_parent)

    def forward(sig, _frame):
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + sig)

    old = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = child.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    return child.returncode, out


def expected(section):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench[section]}


def check_result(line, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("harness printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    want = expected("per_layer" if trace else "end_to_end")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def selftest(bdir):
    """Harness unit tests, then metric names against BENCHMARK.json."""
    cmd = [str(bdir / "perfbench_selftest"), "--hotmand", str(hotmand(bdir))]
    if subprocess.run(cmd, preexec_fn=die_with_parent).returncode != 0:
        fail("perfbench_selftest failed")
    listing = subprocess.run([str(bdir / "perfbench_harness"), "--list-metrics"],
                             capture_output=True, text=True, check=True).stdout
    harness = {"workload": set(), "end_to_end": {}, "per_layer": {}}
    for line in listing.splitlines():
        kind, name, *unit = line.split()
        if kind == "workload":
            harness[kind].add(name)
        else:
            harness[kind][name] = unit[0]
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "spec.json") as f:
        spec = json.load(f)
    problems = []
    if harness["workload"] != {w["name"] for w in bench["workloads"]}:
        problems.append("workloads differ between harness and BENCHMARK.json")
    if harness["workload"] != set(spec["workloads"]):
        problems.append("workloads differ between harness and spec.json")
    for section in ("end_to_end", "per_layer"):
        if harness[section] != expected(section):
            problems.append(f"{section} differs between harness and BENCHMARK.json")
        if set(harness[section]) != set(spec[section]):
            problems.append(f"{section} differs between harness and spec.json")
    for name, entry in spec["per_layer"].items():
        for move in entry.get("moves", []):
            if move["metric"] not in harness["end_to_end"]:
                problems.append(f"{name} predicts unknown metric {move['metric']}")
            if move["workload"] not in harness["workload"]:
                problems.append(f"{name} predicts unknown workload {move['workload']}")
    for p in problems:
        print(f"perfbench selftest: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("perfbench selftest: metric names match BENCHMARK.json and spec.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    check_sources()
    bdir = build_dir()
    build(bdir)
    if args.selftest:
        selftest(bdir)
        return
    if not args.workload:
        fail("--workload is required", 2)

    cmd = [str(bdir / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--hotmand", str(hotmand(bdir)),
           "--git-sha", git_sha()]
    if args.trace:
        (bdir / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(bdir / "traces" / f"{args.workload}.jsonl")]
    code, out = run_child(cmd)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"harness exited with code {code}")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
