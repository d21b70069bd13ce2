#!/usr/bin/env python3
"""Run one workload of the checker benchmark and print its metrics.

    python3 cxlbench/run.py --workload nosym3|sym3|served --seed N \\
        --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository.  The first call
builds the cxlbench binary (cxlbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/cxlbench, default .bench_build/cxlbench, under the
checkout root.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of the traced replay with
--trace 1.  The line before it is the full row (host, build, command
line, seed, sample counts); rows are also appended to results.jsonl and
traced spans written to trace-<workload>-seed<N>.json in the build
directory.  Exits non-zero, printing no result, when the build fails
or the traced replay disagrees with the engine.
"""

import argparse
import datetime
import glob
import hashlib
import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

RUN_TIMEOUT_S = 170


def log(msg):
    print("cxlbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "cxlbench"


def build(out):
    """Configure once, then build incrementally (a no-op when nothing
    changed).  Build output goes to stderr."""
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "cxlbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise SystemExit("cxlbench: build step failed: " + " ".join(cmd))
    return out / "cxlbench"


def source_digest():
    """sha256 over the sources the binary compiles: names a build even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "cxlbench")
                   for p in (ROOT / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler(out):
    for path in glob.glob(str(out / "CMakeFiles" / "*" /
                               "CMakeCXXCompiler.cmake")):
        text = Path(path).read_text()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and ver:
            return "%s %s" % (ident.group(1), ver.group(1))
    return "unknown"


def build_type(out):
    try:
        text = (out / "CMakeCache.txt").read_text()
    except OSError:
        return "unknown"
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.M)
    return m.group(1) if m else "unknown"


def host_row(out, args):
    return {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(out),
        "build_type": build_type(out),
        "command": " ".join(shlex.quote(a) for a in [sys.executable]
                            + sys.argv),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.datetime.now(datetime.timezone.utc)
                       .strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def spans_of(raw):
    """The traced spans worth keeping: per-level layer times of the
    replay, or one span per served request."""
    if raw["workload"] == "served":
        return {"requests": [
            {"latency_s": l, "payload_seconds": s, "cached": bool(c),
             "ok": bool(k)}
            for l, s, c, k in zip(raw["latency_s"], raw["payload_seconds"],
                                  raw["cached"], raw["ok"])],
            "passes": raw["passes"]}
    return {"levels": raw["replay"]["levels"],
            "engine": raw["runs"][0]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "api" / "check.hh").is_file():
        log("no checker sources under %s/src; run from a full checkout"
            % ROOT)
        return 2

    out = build_dir()
    exe = build(out)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # The served workload's socket lives in this temporary directory.
    workdir = tempfile.mkdtemp(prefix="run-", dir=out)
    started = time.monotonic()
    try:
        res = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res.returncode != 0:
        log("cxlbench exited %d (3 = traced replay diverged from the engine)"
            % res.returncode)
        return res.returncode
    raw = json.loads(res.stdout.strip().splitlines()[-1])

    metrics, attempted, failed, problems = benchlib.summarize(
        args.workload, raw, bool(args.trace))
    correct = failed == 0 and not problems

    row = host_row(out, args)
    row.update({"correct": correct, "attempted": attempted,
                "failed": failed, "failed_share": failed / attempted,
                "problems": problems, "metrics": metrics,
                "elapsed_s": time.monotonic() - started})
    if args.workload == "served":
        row["served"] = {k: raw[k] for k in
                         ("requests_per_pass", "unique_cases",
                          "generator_draws", "classes", "clients",
                          "workers")}
        row["latency_samples"] = len(raw["latency_s"])
    walls = benchlib.unit_walls(raw)
    row["unit_walls"] = {"n": len(walls),
                         "quartiles_s": benchlib.quartiles(walls)}
    with open(out / "results.jsonl", "a") as f:
        f.write(json.dumps(row) + "\n")
    if args.trace:
        trace_file = out / ("trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        trace_file.write_text(json.dumps({"row": row,
                                          "spans": spans_of(raw)}))
    for p in problems:
        log("FAILED " + p)

    print(json.dumps(row))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
