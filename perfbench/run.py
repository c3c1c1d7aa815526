#!/usr/bin/env python3
"""Build and run the forumcast serving-path benchmark.

    python3 perfbench/run.py --workload score_light --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/ (the driver plus the forumcast CLI, from the
sources in this checkout) into .bench_build/, runs one workload, checks the
driver's result against BENCHMARK.json and prints it as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1 every
per-layer metric (and writes a Chrome trace under .bench_work/traces/).

--self-test checks that layers.json (what each metric measures, and which
end-to-end metric on which workload each per-layer metric should move) names
exactly the metrics of BENCHMARK.json, then runs every workload in short mode
(tiny forum, short phases): every metric must be emitted with its unit and a
measured value in both modes, and a perturbed probe expectation must trip
the correctness gate.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; serialised by a lock."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise RuntimeError(f"build step failed: {' '.join(step)}")


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "none"


def load_json(*parts):
    with open(os.path.join(ROOT, *parts)) as f:
        return json.load(f)


def expected_metrics(trace):
    spec = load_json("BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(workload, seed, seconds, trace, extra=(), expect_correct=True):
    """Runs one workload; returns (stdout lines, parsed result)."""
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--work", work, "--cli", os.path.join(BUILD, "forumcast"),
               "--git-describe", git_describe(), *extra]
    if trace:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"driver printed nothing (exit {done.returncode}); see {work}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"malformed result line: {lines[-1]}")
    if result["correct"] or not expect_correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        log(f"run not correct; files kept in {work}")
    return lines, result


def check_metrics(result, trace):
    """The driver must emit exactly the metrics BENCHMARK.json names for this
    mode, with their units; returns the problems found. A value is null only
    when its source was missing, which the driver already counts as a failed
    operation, so null values are a problem only in a run marked correct."""
    want = expected_metrics(trace)
    got = result["metrics"]
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"unexpected {n}" for n in got if n not in want]
    problems += [f"{n} has unit {got[n]['unit']}, expected {u}" for n, u in want.items()
                 if n in got and got[n]["unit"] != u]
    if result["correct"]:
        problems += [f"{n} is not a number" for n in want
                     if n in got and not isinstance(got[n]["value"], (int, float))]
    return problems


def check_catalogue():
    """layers.json must describe exactly BENCHMARK.json's metrics and map each
    per-layer metric only to end-to-end metrics and workloads it lists."""
    spec = load_json("BENCHMARK.json")
    layers = load_json("perfbench", "layers.json")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = [f"layers.json: {n} is not described" for n in sorted(end_to_end - set(layers["end_to_end"]))]
    problems += [f"layers.json: {n} is not in BENCHMARK.json" for n in sorted(set(layers["end_to_end"]) - end_to_end)]
    problems += [f"layers.json: {n} is not described" for n in sorted(per_layer - set(layers["per_layer"]))]
    problems += [f"layers.json: {n} is not in BENCHMARK.json" for n in sorted(set(layers["per_layer"]) - per_layer)]
    for name, entry in layers["per_layer"].items():
        if not entry["moves"] and not entry.get("note"):
            problems.append(f"layers.json: {name} moves nothing and says not why")
        for move in entry["moves"]:
            if move["metric"] not in end_to_end:
                problems.append(f"layers.json: {name} moves unknown {move['metric']}")
            problems += [f"layers.json: {name} moves {move['metric']} on unknown workload {w}"
                         for w in move["workloads"] if w not in workloads]
    return problems


def self_test():
    workloads = [w["name"] for w in load_json("BENCHMARK.json")["workloads"]]
    failures = check_catalogue()
    for problem in failures:
        log(f"self-test catalogue: {problem}")
    for workload in workloads:
        for trace in (0, 1):
            _, result = run_driver(workload, 7, 2, trace, ["--small", "1"])
            problems = check_metrics(result, trace)
            if not result["correct"]:
                problems.append("gate failed on an unperturbed run")
            for p in problems:
                failures.append(f"{workload} trace={trace}: {p}")
            log(f"self-test {workload} trace={trace}: {'ok' if not problems else problems}")
    _, result = run_driver(workloads[0], 7, 2, 0, ["--small", "1", "--perturb-probe", "1"],
                           expect_correct=False)
    tripped = not result["correct"] and result["failed"] > 0
    log(f"self-test perturbed probe: {'tripped the gate' if tripped else 'NOT detected'}")
    if not tripped:
        failures.append("a perturbed probe expectation did not trip the gate")
    print(json.dumps({"self_test": "pass" if not failures else "fail", "failures": failures}))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        seconds = args.seconds
        if seconds is None:
            seconds = load_json("BENCHMARK.json")["run_seconds"]
        lines, result = run_driver(args.workload, args.seed, seconds, args.trace)
        problems = check_metrics(result, args.trace)
        if problems:
            raise RuntimeError("; ".join(problems))
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        log(f"error: {error}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
