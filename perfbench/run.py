#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload; print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (a CMake package of its own) in Release under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later runs rebuild only what changed. The benchmark binary generates the
workload from the seed, measures for the given seconds, and checks every
output against the rebuild oracle.

Standard output ends with one JSON line holding exactly `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it holds
the detail (tail percentile and samples per round, rounds,
failed_ops_frac, sizes), the line before that the run context. The full
record (context, detail, both metric sets) is appended to
<build>/results/runs.jsonl, which compare.py reads.
A traced run also writes its spans to <build>/spans/ and prints the
per-layer summary of trace_summary.py on standard error.

Exit codes: 0 ok, 1 a wrong output or failed operation (the result line is
still printed), 2 the benchmark could not be built or run (no result).
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest-hypersparse", "ingest-durable", "serve-mixed",
             "construct-oneshot")
BUILD_JOBS = 4


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        log(f"{what} failed (exit {proc.returncode})")
        sys.exit(2)


def build(bdir):
    run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"], "configure")
    cache = (bdir / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        log(f"refusing to run: {bdir} is not a Release build")
        sys.exit(2)
    run_quiet(["cmake", "--build", str(bdir), "--parallel", str(BUILD_JOBS)],
              "build")
    exe = bdir / "i2a_perfbench"
    if not exe.exists():
        log(f"build produced no {exe}")
        sys.exit(2)
    return exe


def source_digest():
    """sha256 over the library headers and the benchmark sources: the
    code identity when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "include", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_info():
    model, mhz = None, None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, val = line.partition(":")
            key = key.strip()
            if key == "model name" and model is None:
                model = val.strip()
            elif key == "cpu MHz" and mhz is None:
                mhz = float(val)
    except OSError:
        pass
    return model, mhz


def filesystem_of(path):
    """fstype of the mount holding `path` (longest matching mount point)."""
    best, fstype = "", None
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            if len(fields) >= 3:
                mnt = fields[1]
                inside = str(path) == mnt or str(path).startswith(
                    mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, fields[2]
    except OSError:
        pass
    return fstype


def context(args, bdir, scratch, record):
    model, mhz = cpu_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "compiler": record.get("build", {}).get("compiler"),
        "cxx_flags": record.get("build", {}).get("cxx_flags"),
        "build_type": record.get("build", {}).get("build_type"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_mhz": mhz,
        "wal_dir_fs": filesystem_of(scratch.parent),
        "threads": {k: v for k, v in record.get("detail", {}).items()
                    if k.startswith("threads.")},
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A SIGTERM unwinds like an error, so the benchmark process is killed
    # and waited for, and the scratch directory removed, on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    bdir = build_dir()
    exe = build(bdir)
    scratch = bdir / "scratch" / f"{args.workload}-{os.getpid()}"
    spans = bdir / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    # Set-up, the round that crosses the deadline and the checks come on
    # top of the measured seconds; the limit only catches a hang.
    limit = max(60.0, 2 * args.seconds + 60.0)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"benchmark exceeded {limit:.0f} s and was stopped")
        sys.exit(2)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"benchmark printed no result (exit {proc.returncode})")
        sys.exit(2)
    ctx = context(args, bdir, scratch, record)
    record["context"] = ctx
    results = bdir / "results" / "runs.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a") as f:
        f.write(json.dumps(record) + "\n")
    if args.trace:
        sys.dont_write_bytecode = True
        import trace_summary
        trace_summary.report(spans, record, sys.stderr)
    for note in record.get("notes", []):
        log(f"FAILED: {note}")

    print("context: " + json.dumps(ctx))
    print("detail: " + json.dumps(record["detail"]))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if record["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
