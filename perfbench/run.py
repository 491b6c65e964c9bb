#!/usr/bin/env python3
"""Builds the benchmark and the daemon from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n> --seconds <s> --trace <0|1>]

Run from the repository root. `--workload all` runs every workload of
BENCHMARK.json in turn and prints each one's metrics by name and unit,
with its attempted and failed operation counts. Cargo builds into $CARGO_TARGET_DIR
(default .bench_build). The benchmark's result is the last line of stdout;
build output and progress go to stderr. Exits non-zero, printing no
result, when the build or the run fails.
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build(env):
    """Builds the benchmark package and the daemon binary (release)."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "beamdyn-daemon"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def run(bench, argv, env):
    """Runs the benchmark binary once; returns its stdout, or exits."""
    # Its own process group, so a timeout also stops any daemon it spawned.
    proc = subprocess.Popen([bench] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: run failed with exit code {proc.returncode}")
    return out


def run_all(bench, argv, env):
    """Runs every workload and prints a table of its metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    i = argv.index("--workload")
    for name in names:
        out = run(bench, argv[:i + 1] + [name] + argv[i + 2:], env)
        result = json.loads(out.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} ops={result['attempted']} "
              f"ops_failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<28} {m['value']:>16.6g} {m['unit']}")


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    env["BEAMDYN_DAEMON_BIN"] = os.path.join(target, "release", "beamdyn-daemon")
    # Workloads name their backends; the environment must not pick one.
    env.pop("BEAMDYN_BACKEND", None)
    build(env)
    bench = os.path.join(target, "release", "beamdyn-perfbench")
    argv = sys.argv[1:]
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        run_all(bench, argv, env)
    else:
        sys.stdout.write(run(bench, argv, env))


if __name__ == "__main__":
    main()
