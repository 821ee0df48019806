#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lds_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds the perfbench command into
.bench_build/ (Go caches included), then starts it in a fresh process per
repetition, so every repetition pays a cold workload build, until --seconds
have passed. With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json as medians over the repetitions; with --trace 1 it runs the
traced pass and reports the per-layer metrics. The last line of standard
output is the JSON result; the lines before it describe the host, the
result digest and every metric with its unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
CHILD_TIMEOUT_S = 150
MIN_REPS = {0: 3, 1: 1}

# The paper's reference for each end-to-end ratio, per workload.
PAPER = {
    "lds_sweep": "paper: +22.5% IPC at 0.75x bandwidth (Fig. 7)",
    "stream_sweep": "paper: +0.3% IPC at 0.999x bandwidth (Sec. 6.7)",
    "mix4_shared": "paper: +9.5% weighted speedup at 0.85x bus traffic (Fig. 15)",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    """Keep every file the Go toolchain writes inside the build directory."""
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=mod"
    env["GOENV"] = "off"
    env["GOPROXY"] = "off"
    return env


def build():
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")
    r = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                       capture_output=True, text=True, timeout=850)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout + r.stderr)


def run_once(workload, seed, trace):
    args = [BINARY, "-workload", workload, "-seed", str(seed)]
    if trace:
        args.append("-trace")
    r = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(args), r.returncode, r.stderr))
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail("unreadable report from %s: %s" % (" ".join(args), e))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("reading BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % a.workload)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    build()
    # One discarded repetition first: the first process after a build or a
    # pause pays for loading the binary and warming the page cache.
    run_once(a.workload, a.seed, a.trace)
    reps, start = [], time.monotonic()
    while len(reps) < MIN_REPS[a.trace] or time.monotonic() - start < a.seconds:
        reps.append(run_once(a.workload, a.seed, a.trace))

    errors = [e for r in reps for e in r["errors"]]
    first = reps[0]
    # Same seed, same simulated output: every repetition must agree on the
    # digest and on every count.
    if any(r["digest"] != first["digest"] for r in reps):
        errors.append("result digests differ between repetitions")
    values = {}
    if a.trace:
        for name in first.get("counts", {}):
            if any(r.get("counts", {}).get(name) != first["counts"][name] for r in reps):
                errors.append("count %s differs between repetitions" % name)
        for m in wanted:
            samples = [r.get("layers", {}).get(m["name"], r.get("counts", {}).get(m["name"])) for r in reps]
            if None in samples:
                errors.append("metric %s missing from a report" % m["name"])
                continue
            values[m["name"]] = statistics.median(samples)
    else:
        for key in ("ipc_ratio", "bpki_ratio"):
            if any(r[key] != first[key] for r in reps):
                errors.append("%s differs between repetitions" % key)
        samples = {
            "setup_s": [r["setup_s"] for r in reps],
            "wall_s": [r["wall_s"] for r in reps],
            "sim_maccess_per_s": [r["maccess"] / r["sim_s"] if r["sim_s"] > 0 else 0 for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            "ipc_ratio": [r["ipc_ratio"] for r in reps],
            "bpki_ratio": [r["bpki_ratio"] for r in reps],
        }
        for m in wanted:
            values[m["name"]] = statistics.median(samples[m["name"]])

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print("host %s" % json.dumps(first["host"], sort_keys=True))
    print("workload %s seed %d reps %d digest %s" % (a.workload, a.seed, len(reps), first["digest"]))
    for e in errors:
        print("check failed: %s" % e)
    print("failed_frac %.6f (%d of %d jobs)" % (failed / max(attempted, 1), failed, attempted))
    for m in wanted:
        if m["name"] in values:
            print("%-28s %-14.6g %-10s %s better" % (m["name"], values[m["name"]], m["unit"], m["better"]))
    if not a.trace:
        print("ipc_gain_pct %+.3f, bpki_ratio %.4f; %s" % (
            (values["ipc_ratio"] - 1) * 100, values["bpki_ratio"], PAPER[a.workload]))

    print(json.dumps({
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))


if __name__ == "__main__":
    main()
