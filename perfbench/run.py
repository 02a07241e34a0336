#!/usr/bin/env python3
"""The repository benchmark.

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (its own Cargo workspace next to this
file), runs the workload in a process of its own, prints a readable
report (host fingerprint, every metric with its sample count and
quartiles) and, as the last line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. `--workload all` runs every workload untraced and
prints one table. `--record FILE` appends the run (fingerprint
included) to FILE as one JSON line, and

    python3 perfbench/run.py compare A.ndjson B.ndjson

compares two such files metric by metric. Host-time metrics are
compared only between runs with the same host fingerprint; counts
always compare.

Exit codes: 0 success, 1 an output differed from its reference or the
run failed, 2 bad arguments.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Units whose values do not depend on host speed; everything else is a
# host-time (or host-memory) reading.
HOST_INDEPENDENT_UNITS = {"count", "1/ref", "ratio"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def source_digest():
    """SHA-256 over every source the benchmark binary is built from."""
    h = hashlib.sha256()
    paths = [p for p in [os.path.join(ROOT, "Cargo.toml")] if os.path.exists(p)]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build():
    """Build the benchmark binary and return its path. Cargo is skipped
    when the sources are unchanged since the last build: outside a git
    checkout, sp-serve's build script (which watches `.git/HEAD`) would
    otherwise rebuild the whole chain on every run."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    binary = os.path.join(target, "release", "perfbench")
    stamp = os.path.join(target, "perfbench.sources")
    digest = source_digest()
    try:
        with open(stamp) as f:
            if f.read() == digest and os.path.exists(binary):
                return binary
    except OSError:
        pass
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("build failed")
    with open(stamp, "w") as f:
        f.write(digest)
    return binary


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; return (exit code, record)."""
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    # Logging stays at its default level, so the daemon's access-log
    # lines stay off the timed path.
    env = {k: v for k, v in os.environ.items() if k not in ("SP_LOG", "SP_LOG_FORMAT")}
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run {binary}: {e}")
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {p.returncode}")
    try:
        return p.returncode, json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result")


def command_output(cmd):
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    commit = command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)"
    return {
        "nproc": nproc,
        "cpu": model,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": commit,
    }


def spread(samples):
    """(n, q1, median, q3) of samples, quartiles as statistics.quantiles gives them."""
    n = len(samples)
    if n == 0:
        return 0, 0.0, 0.0, 0.0
    if n == 1:
        return 1, samples[0], samples[0], samples[0]
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return n, q1, med, q3


def summarize(record, metrics, trace):
    """Each metric of BENCHMARK.json with its unit, value and within-run
    spread. A per-layer metric of a layer the workload does not run
    reads 0; a missing end-to-end metric is an error."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        m = record["metrics"].get(name)
        if m is None and trace:
            m = {"value": 0.0, "unit": spec["unit"], "samples": []}
        if m is None:
            fail(f"{record['workload']} did not report {name}")
        n, q1, med, q3 = spread(m["samples"])
        out[name] = {"value": m["value"], "unit": m["unit"], "n": n,
                     "q1": q1, "median": med, "q3": q3}
    return out


def print_report(record, fp, summary):
    print(f"host: nproc={fp['nproc']} cpu={fp['cpu']!r} kernel={fp['kernel']} "
          f"rustc={fp['rustc']!r} commit={fp['commit']}")
    print(f"workload {record['workload']} seed {int(record['seed'])} "
          f"trace {int(record['trace'])}: attempted {int(record['attempted'])}, "
          f"failed {int(record['failed'])}")
    for f in record.get("failures", []):
        print(f"  FAILED: {f}")
    print(f"  {'metric':38s} {'value':>14s} {'unit':8s} {'n':>6s} {'q1':>12s} "
          f"{'median':>12s} {'q3':>12s}")
    for name, m in summary.items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']:8s} {m['n']:6d} "
              f"{m['q1']:12.6g} {m['median']:12.6g} {m['q3']:12.6g}")
    for name, v in record.get("notes", {}).items():
        print(f"  note {name} = {v:g}")
    layers = record.get("layers", {})
    if layers:
        print(f"  {'span':24s} {'count':>8s} {'total_ms':>12s} {'self_ms':>12s}")
        for name, l in layers.items():
            print(f"  {name:24s} {int(l['count']):8d} {l['total_ms']:12.3f} {l['self_ms']:12.3f}")
    for name, d in record.get("digests", {}).items():
        print(f"  digest {name} = {d}")


def run_one(args, spec, binary):
    key = "per_layer" if args.trace else "end_to_end"
    code, record = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    fp = fingerprint()
    summary = summarize(record, spec[key], args.trace)
    print_report(record, fp, summary)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"fingerprint": fp, "workload": args.workload,
                                "seed": args.seed, "trace": args.trace,
                                "attempted": record["attempted"],
                                "failed": record["failed"], "metrics": summary}) + "\n")
    failed = int(record["failed"])
    correct = code == 0 and failed == 0
    result = {
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in summary.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec, binary):
    fp = fingerprint()
    results = {}
    worst = 0
    for w in spec["workloads"]:
        code, record = run_workload(binary, w["name"], args.seed, args.seconds, 0)
        summary = summarize(record, spec["end_to_end"], 0)
        print_report(record, fp, summary)
        ok = code == 0 and int(record["failed"]) == 0
        worst = max(worst, 0 if ok else 1)
        results[w["name"]] = {
            "correct": ok,
            "error_rate": int(record["failed"]) / max(1, int(record["attempted"])),
            "metrics": {n: {"value": m["value"], "unit": m["unit"], "n": m["n"]}
                        for n, m in summary.items()},
        }
    print(json.dumps(results))
    return worst


def compare(a_path, b_path, spec):
    """Compare two --record files metric by metric (medians over runs)."""
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    a, b = load(a_path), load(b_path)
    host = lambda r: {k: v for k, v in r["fingerprint"].items() if k != "commit"}
    same_host = all(host(r) == host(a[0]) for r in a + b)
    if not same_host:
        print("host fingerprints differ: host-time metrics are refused, counts compare")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    groups = {}
    for side, recs in (("a", a), ("b", b)):
        for r in recs:
            for name, m in r["metrics"].items():
                g = groups.setdefault((r["workload"], name), {"unit": m["unit"], "a": [], "b": []})
                g[side].append(m["value"])
    print(f"{'workload':14s} {'metric':38s} {'unit':8s} {'a median':>12s} {'b median':>12s} "
          f"{'change':>8s}  verdict")
    for (w, name), g in sorted(groups.items()):
        if not g["a"] or not g["b"]:
            continue
        ma, mb = statistics.median(g["a"]), statistics.median(g["b"])
        change = (mb - ma) / ma if ma else 0.0
        if g["unit"] not in HOST_INDEPENDENT_UNITS and not same_host:
            verdict = "refused (different hosts)"
        elif g["unit"] in HOST_INDEPENDENT_UNITS:
            verdict = "same" if ma == mb else "count changed"
        elif bounds.get(name) is not None:
            better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
            worse = change > bounds[name] if better == "lower" else -change > bounds[name]
            verdict = "worse than bound" if worse else "within bound"
        else:
            verdict = ""
        print(f"{w:14s} {name:38s} {g['unit']:8s} {ma:12.6g} {mb:12.6g} {change:+8.3f}  {verdict}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            print("usage: run.py compare A.ndjson B.ndjson", file=sys.stderr)
            return 2
        return compare(sys.argv[2], sys.argv[3], load_spec())
    ap = argparse.ArgumentParser(description="Run the repository benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None)
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        print(f"run.py: unknown workload {args.workload}; expected one of "
              f"{', '.join(workloads)} or all", file=sys.stderr)
        return 2
    binary = build()
    if args.workload == "all":
        return run_all(args, spec, binary)
    return run_one(args, spec, binary)


if __name__ == "__main__":
    sys.exit(main())
