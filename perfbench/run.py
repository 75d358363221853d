#!/usr/bin/env python3
"""perfbench — the repository benchmark (see perfbench/README.md).

Run one workload:

    python3 perfbench/run.py --workload static-8k --seed 1 --seconds 20 --trace 0

from the root of a source tree. The script builds perfbench/ (a CMake
package that compiles ../src and ../tools/udwnd.cpp) in Release into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in its own
process, checks its outputs, and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics. The line before it carries provenance and detail.

Other modes:
    --smoke    every workload at tiny sizes, untraced and traced; validates
               the output schema of each run.
    --record   re-derive the outcome digests in perfbench/expected.json for
               every instance, of --workload or of all (run only when the
               simulated behaviour is meant to change).

Standard library only.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["static-8k", "mobile-8k", "far-64k", "svc-mix"]
# Workloads whose outcome digest is pinned in expected.json. far-64k runs the
# ε-certified far-field approximation, whose decisions are not the exact
# model's; it is checked for self-determinism and its flips are reported.
DIGESTED = ["static-8k", "mobile-8k", "svc-mix"]
# --seed selects one of INSTANCES recorded inputs per workload (seed mod
# INSTANCES), so every run's outputs can be compared with a recorded digest.
INSTANCES = 32
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build perfbench + udwnd in Release."""
    for need in ("src/CMakeLists.txt", "tools/udwnd.cpp", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("%s not found: run from the root of a complete source tree" % need)
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed", 1)
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench", "udwnd"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed", 1)
    return out


def cache_value(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark compiles (the checkout it runs
    in is not a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    files.append(os.path.join(ROOT, "tools", "udwnd.cpp"))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def provenance(out, load_at_start):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    cpu_model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu_model == "unknown":
                    cpu_model = line.split(":", 1)[1].strip()
                if line.startswith("flags") and not flags:
                    flags = line.split(":", 1)[1].split()
    except OSError:
        pass
    wanted = ["sse2", "sse4_2", "avx", "avx2", "fma", "avx512f"]
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    version = "unknown"
    if compiler != "unknown":
        r = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        if r.returncode == 0 and r.stdout:
            version = r.stdout.splitlines()[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cpu_flags": ",".join(f for f in wanted if f in flags) or "none",
        "machine": platform.machine(),
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "commit": commit,
        "source_digest": source_digest(),
        "loadavg_at_start": list(load_at_start),
    }


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_expected():
    try:
        with open(os.path.join(HERE, "expected.json")) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def run_binary(out, workload, instance, seconds, trace, smoke):
    """Run one workload process; returns its parsed result object."""
    run_dir = os.path.join(build_dir(), "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(instance), "--seconds", repr(float(seconds)),
           "--trace", "1" if trace else "0",
           "--out", os.path.relpath(run_dir, ROOT),
           "--udwnd", os.path.join(out, "udwnd")]
    if smoke:
        cmd.append("--smoke")
    # Own process group: on a timeout the workload and the udwnd it spawned
    # are killed together, and both are waited for.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("%s exited with code %d" % (workload, proc.returncode), 1)
    return json.loads(lines[-1])


def finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check(raw, declared, trace, workload, instance, expected, smoke):
    """Validate the binary's result against BENCHMARK.json and the recorded
    digests. Returns (result, detail, errors)."""
    errors = list(raw.get("errors", []))
    correct = bool(raw.get("correct"))
    metrics = {}
    units = {m["name"]: m["unit"] for m in declared}
    got = raw.get("metrics", {})
    not_exercised = []
    for name, unit in units.items():
        m = got.get(name)
        if m is None and trace:
            # The workload does not run (or the benchmark cannot observe)
            # this layer: it did no work there.
            not_exercised.append(name)
            m = {"value": 0, "unit": unit}
        if m is None or not finite(m.get("value")) or m.get("unit") != unit:
            errors.append("metric %s missing or malformed: %r" % (name, m))
            correct = False
            continue
        metrics[name] = {"value": m["value"], "unit": unit}
    for name in got:
        if name not in units:
            errors.append("undeclared metric %s" % name)
            correct = False
    detail = raw.get("detail", {})
    if not_exercised:
        detail["not_exercised"] = not_exercised
    if not smoke and workload in DIGESTED:
        want = expected.get(workload, {}).get(str(instance))
        have = detail.get("digest")
        detail["digest_expected"] = want
        if want is None:
            errors.append("no recorded digest for %s instance %d" % (workload, instance))
            correct = False
        elif have != want:
            errors.append("outcome digest %s != recorded %s" % (have, want))
            correct = False
    attempted, failed = raw.get("attempted"), raw.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int)
            and failed >= 0):
        errors.append("bad attempted/failed: %r/%r" % (attempted, failed))
        correct = False
        attempted, failed = max(1, int(attempted or 0)), int(failed or 0)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail, errors


def table(workload, result):
    rows = ["%-34s %16s %s" % (n, "%.6g" % m["value"], m["unit"])
            for n, m in result["metrics"].items()]
    return "\n".join(["# %s: correct=%s attempted=%d failed=%d" % (
        workload, result["correct"], result["attempted"], result["failed"])] + rows)


def one_run(args):
    bench = load_benchmark()
    out = build()
    load_at_start = os.getloadavg()
    instance = args.seed % INSTANCES
    raw = run_binary(out, args.workload, instance, args.seconds, args.trace, False)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    result, detail, errors = check(raw, declared, args.trace, args.workload,
                                   instance, load_expected(), False)
    print(table(args.workload, result))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "instance": instance, "trace": args.trace,
                      "provenance": provenance(out, load_at_start),
                      "detail": detail, "errors": errors}))
    for e in errors:
        log("perfbench: " + e)
    print(json.dumps(result), flush=True)


def smoke(args):
    bench = load_benchmark()
    out = build()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            raw = run_binary(out, workload, 1, 1.0, trace, True)
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            result, detail, errors = check(raw, declared, trace, workload, 1, {}, True)
            keys_ok = set(result) == {"correct", "attempted", "failed", "metrics"}
            good = keys_ok and result["correct"] and not errors
            ok = ok and good
            print(table("%s trace=%d" % (workload, trace), result))
            for e in errors:
                print("  error: " + e)
            print("  -> %s" % ("ok" if good else "FAIL"), flush=True)
    print("smoke: %s" % ("ok" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


def record(args):
    out = build()
    expected = load_expected()
    workloads = [args.workload] if args.workload else DIGESTED
    for workload in workloads:
        if workload not in DIGESTED:
            die("%s has no recorded digest" % workload)
        digests = {}
        for instance in range(INSTANCES):
            # One second: the shortest run in which every phase completes.
            raw = run_binary(out, workload, instance, 1.0, 0, False)
            if not raw.get("correct"):
                die("%s instance %d failed its own checks: %s"
                    % (workload, instance, raw.get("errors")), 1)
            digests[str(instance)] = raw["detail"]["digest"]
            log("%s instance %d: %s" % (workload, instance, digests[str(instance)]))
        expected[workload] = digests
        with open(os.path.join(HERE, "expected.json"), "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in (0, 60]")
    if args.smoke:
        smoke(args)
    elif args.record:
        record(args)
    elif args.workload is None:
        p.error("--workload is required")
    else:
        one_run(args)


if __name__ == "__main__":
    main()
