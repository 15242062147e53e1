#!/usr/bin/env python3
"""End-to-end benchmark of `fq serve` — build, run, repeat, compare.

Run one workload (the last stdout line is the JSON result):

    python3 fqbench/run.py --workload trace_read --seed 1 --seconds 15 --trace 0

Run a workload on N seeds and print each metric's median and quartile
spread against its bound from BENCHMARK.json:

    python3 fqbench/run.py repeat --workload trace_read --runs 10 --out a.json

Compare two repeat summaries (refused when their core counts differ):

    python3 fqbench/run.py compare a.json b.json

The program and the load generator are built from source into
$CARGO_TARGET_DIR (default `.bench_build`); generated inputs are cached
per seed under `.fqbench/`. Both lie inside the checkout.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "fqbench"
WORK = ROOT / ".fqbench"
# The load generator exits well inside the 180 s a run may take.
RUN_TIMEOUT_S = 175


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Build `fq` and the load generator; False when either fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "fq"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        # Cargo's output goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def source_hash():
    """A digest of the program's sources, standing in for a commit id."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "third_party"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host(seed):
    def out(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            return None

    return {
        "nproc": os.cpu_count(),
        "commit": out(["git", "rev-parse", "HEAD"]) or "none",
        "source": source_hash(),
        "rustc": out(["rustc", "--version"]) or "unknown",
        "seed": seed,
    }


def run_once(workload, seed, seconds, trace, echo=True):
    """One run of the load generator; returns its result or None."""
    cmd = [
        str(target_dir() / "release" / "fqbench"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--fq", str(target_dir() / "release" / "fq"),
        "--work", str(WORK),
    ]
    # A session of its own, so a timeout also stops the `fq serve`
    # children the load generator started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"fqbench timed out after {RUN_TIMEOUT_S} s\n")
        return None
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"fqbench exited with {proc.returncode}\n")
        return None
    return lines[-1]


def main_run(args):
    if not build():
        return 1
    print("host: " + json.dumps(host(args.seed)))
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(result)
    return 0


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def spread(values):
    """Median, quartiles, and the quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med or 1.0)


def main_repeat(args):
    spec, by_name = bounds()
    if not build():
        return 1
    seconds = args.seconds or spec["run_seconds"]
    summary = {"host": host(None), "workload": args.workload, "trace": args.trace,
               "seconds": seconds, "seeds": [], "metrics": {}, "failed": 0}
    print("host: " + json.dumps(summary["host"]))
    for i in range(args.runs):
        seed = args.first_seed + i
        line = run_once(args.workload, seed, seconds, args.trace, echo=False)
        if line is None:
            return 1
        result = json.loads(line)
        summary["seeds"].append(seed)
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"].setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, values in summary["metrics"].items():
        med, q1, q3, sp = spread(values)
        bound = by_name.get(name, {}).get("bound")
        mark = ""
        if bound is not None:
            mark = "WIDE" if sp > bound else ("ok" if sp < bound / 3 else "near")
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:38} {med:12.4f} {q1:12.4f} {q3:12.4f} {sp:8.4f} {shown:>6} {mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0 if summary["failed"] == 0 else 1


def main_compare(args):
    _, by_name = bounds()
    a, b = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    if a["host"]["nproc"] != b["host"]["nproc"]:
        print(f"refusing to compare: {a['host']['nproc']} cores against {b['host']['nproc']}")
        return 2
    if (a["workload"], a["trace"], a["seconds"]) != (b["workload"], b["trace"], b["seconds"]):
        print("refusing to compare runs of different workloads, modes or lengths")
        return 2
    worse = 0
    print(f"{'metric':38} {'first':>12} {'second':>12} {'change':>8} {'bound':>6}")
    for name in a["metrics"]:
        if name not in b["metrics"]:
            continue
        m1, m2 = statistics.median(a["metrics"][name]), statistics.median(b["metrics"][name])
        change = (m2 - m1) / abs(m1) if m1 else 0.0
        spec = by_name.get(name, {})
        bound, better = spec.get("bound"), spec.get("better")
        regressed = bound is not None and (
            change > bound if better == "lower" else -change > bound)
        worse += regressed
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:38} {m1:12.4f} {m2:12.4f} {change:+8.4f} {shown:>6}"
              f"{' WORSE' if regressed else ''}")
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] in ("repeat", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "repeat":
            p.add_argument("--workload", required=True)
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--first-seed", type=int, default=1)
            p.add_argument("--seconds", type=int)
            p.add_argument("--trace", type=int, default=0, choices=(0, 1))
            p.add_argument("--out")
            return main_repeat(p.parse_args(argv[1:]))
        p.add_argument("first")
        p.add_argument("second")
        return main_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return main_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
