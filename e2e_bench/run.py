#!/usr/bin/env python3
"""End-to-end benchmark runner: builds treeaa_bench and runs its workloads.

Usage (from the repository root):

  python3 e2e_bench/run.py --workload tree_serial --seed 1 --seconds 15 --trace 0
      One workload in its own child process. The last line of standard
      output is one JSON object: {"correct", "attempted", "failed",
      "metrics"} with every end-to-end metric of BENCHMARK.json (--trace 0)
      or every per-layer metric (--trace 1; the span file lands in
      <build dir>/spans/). Exit status 0 when every check passed.

  python3 e2e_bench/run.py [--seed N] [--seconds S] [--trace 0|1]
      All workloads, each in its own child process, plus the cross-workload
      check that tree_serial and tree_lanes4 produce identical outputs.

  python3 e2e_bench/run.py --smoke
      All workloads with 1 s windows, untraced and traced; fails unless each
      run passes its checks and prints exactly the metrics BENCHMARK.json
      lists.

The binary is built from the sources one level up into the directory named
by CARGO_TARGET_DIR (default .bench_build), relative to the repository root.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tree_serial", "tree_lanes4", "realaa_wide", "net_deploy",
             "serve_open"]
# A run must finish within this many seconds once the binary is built; the
# first run in a checkout also builds, and may take up to BUILD_LIMIT_S more.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 720


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


_children = []


def _stop_children(signum, frame):
    for proc in _children:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def run_child(cmd, deadline, **kwargs):
    """Runs cmd in its own process group; on timeout, or when this script is
    interrupted, kills the whole group (a build's compilers included) and
    waits for it. Returns (exit code, captured stdout or None).
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    _children.append(proc)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("timed out: " + " ".join(cmd))
    finally:
        _children.remove(proc)
    return proc.returncode, out


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(deadline):
    """Configures (once) and builds treeaa_bench; returns its path."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = os.path.exists(os.path.join(out, "CMakeCache.txt")) and any(
        os.path.exists(os.path.join(out, f))
        for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "treeaa_bench",
                  "-j", jobs])
    binary = os.path.join(out, "treeaa_bench")
    # A link cut short leaves a binary make believes is up to date.
    if os.path.exists(binary) and not os.access(binary, os.X_OK):
        os.remove(binary)
    for step in steps:
        code, _ = run_child(step, deadline, env=env, stdout=sys.stderr,
                            stderr=sys.stderr)
        if code != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return binary


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_workload(binary, workload, seed, seconds, traced, deadline=None):
    """Runs one workload in a child process; returns its JSON document."""
    if deadline is None:
        deadline = time.monotonic() + seconds + RUN_LIMIT_S
    out = build_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           repr(float(seconds)),
           # Relative to the root: AF_UNIX paths are limited to 107 bytes.
           "--socket", os.path.relpath(
               os.path.join(out, "serve-%d.sock" % os.getpid()), ROOT)]
    if traced:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--traced", "--span-out",
                os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    code, stdout = run_child(cmd, deadline, stdout=subprocess.PIPE,
                             text=True)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if code not in (0, 1) or not lines[-1].startswith("{"):
        raise RuntimeError("%s exited %d without a result" % (workload, code))
    return json.loads(lines[-1])


def result_line(doc, names):
    """The contract's last line: the named metrics of one child document."""
    missing = [n for n in names if n not in doc["metrics"]]
    if missing:
        raise RuntimeError("%s did not report %s" %
                           (doc["workload"], ", ".join(missing)))
    metrics = {n: {"value": doc["metrics"][n]["value"],
                   "unit": doc["metrics"][n]["unit"]} for n in names}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def run_all(binary, seed, seconds, traced, names):
    docs = {}
    for workload in WORKLOADS:
        docs[workload] = run_workload(binary, workload, seed, seconds, traced)
    ok = all(d["correct"] for d in docs.values())
    if docs["tree_serial"]["outputs_hash"] != \
            docs["tree_lanes4"]["outputs_hash"]:
        log("FAILED: tree_lanes4 outputs differ from tree_serial's")
        ok = False
    print("%-26s" % "metric" + "".join("%14s" % w for w in WORKLOADS))
    for name in names:
        print("%-26s" % name + "".join(
            "%14.6g" % docs[w]["metrics"][name]["value"] for w in WORKLOADS))
    attempted = sum(d["attempted"] for d in docs.values())
    failed = sum(d["failed"] for d in docs.values())
    metrics = {"%s/%s" % (w, n): {"value": docs[w]["metrics"][n]["value"],
                                  "unit": docs[w]["metrics"][n]["unit"]}
               for w in WORKLOADS for n in names}
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def smoke(binary, end_to_end, per_layer):
    """Every workload, untraced and traced, with 1 s windows."""
    ok = True
    known = set(end_to_end) | set(per_layer)
    for traced, names in ((False, end_to_end), (True, per_layer)):
        for workload in WORKLOADS:
            doc = run_workload(binary, workload, 1, 1.0, traced)
            unknown = sorted(set(doc["metrics"]) - known)
            result_line(doc, names)  # raises if a listed metric is missing
            spans_ok = True
            if traced:
                path = os.path.join(build_dir(), "spans",
                                    "%s-seed1.json" % workload)
                with open(path) as f:
                    spans_ok = bool(json.load(f).get("traceEvents"))
            if not doc["correct"] or unknown or not spans_ok:
                log("FAILED: %s%s: correct=%s unknown metrics=%s spans=%s" %
                    (workload, " (traced)" if traced else "", doc["correct"],
                     unknown, spans_ok))
                ok = False
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _stop_children)
    start = time.monotonic()
    try:
        end_to_end, per_layer = load_spec()
        binary = build(start + BUILD_LIMIT_S)
        if args.smoke:
            return smoke(binary, end_to_end, per_layer)
        names = per_layer if args.trace else end_to_end
        if args.workload is None:
            return run_all(binary, args.seed, args.seconds, args.trace == 1,
                           names)
        # An up-to-date build takes about a second, so this keeps a run
        # within its time limit; after a real build it extends past it.
        deadline = time.monotonic() + RUN_LIMIT_S - min(
            5.0, time.monotonic() - start)
        doc = run_workload(binary, args.workload, args.seed, args.seconds,
                           args.trace == 1, deadline)
        line = result_line(doc, names)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run.py:", e)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
