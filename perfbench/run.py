#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/ (which compiles the sgm
library from ../src) into $CARGO_TARGET_DIR, or .bench_build when unset,
runs one workload in its own process and prints the run's result JSON as the
last line of standard output: exactly the metrics BENCHMARK.json declares
for the mode (end_to_end untraced, per_layer traced), in its order and with
its units. A traced run reports 0 for the layers its workload does not run.
Run records and traces land in <build dir>/runs/. A traced run's Chrome
trace must parse as JSON with at least one event, or the run is reported
incorrect.

Exits non-zero, printing no result, when the build or the run fails, or
when the workload's metrics do not match BENCHMARK.json.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    res = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "perfbench_selftest", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def shape_metrics(metrics, trace):
    """The workload's metrics as BENCHMARK.json lists them for the mode, or
    an error message. Units must match; an untraced run must produce every
    end-to-end metric; a traced run gets 0 for a layer it does not run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    extra = sorted(set(metrics) - names)
    if extra:
        return None, f"metrics not in BENCHMARK.json: {extra}"
    shaped = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                return None, f"workload did not produce {m['name']}"
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            return None, (f"{m['name']} is in {got['unit']}, BENCHMARK.json "
                          f"says {m['unit']}")
        shaped[m["name"]] = got
    return shaped, ""


def trace_ok(record):
    path = record.get("facts", {}).get("trace_path")
    if not path:
        return False, "no trace written"
    try:
        with open(path) as fh:
            events = json.load(fh).get("traceEvents", [])
    except (OSError, ValueError) as err:
        return False, f"trace {path} does not parse: {err}"
    if not events:
        return False, f"trace {path} has no events"
    return True, ""


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    if not build(build_dir):
        log("build failed")
        return 1
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    if argv == ["--self-test"]:
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest"), out_dir]).returncode

    cmd = [os.path.join(build_dir, "perfbench"), *argv,
           "--out-dir", out_dir, "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"run failed with exit code {proc.returncode}")
        return proc.returncode or 1

    result = json.loads(lines[-1])
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    result["metrics"], why = shape_metrics(result["metrics"], traced)
    if result["metrics"] is None:
        log(why)
        return 1
    record = {}
    for line in lines[:-1]:
        if line.startswith("perfbench record: "):
            record = json.loads(line[len("perfbench record: "):])
        print(line)
    if traced:
        ok, why = trace_ok(record)
        if not ok:
            log(why)
            result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
