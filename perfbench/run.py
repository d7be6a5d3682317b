#!/usr/bin/env python3
"""Build and run the XRD round benchmark from the root of a checkout.

    python3 perfbench/run.py --workload steady|fanout|churn --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

A run builds the `xrd-netd` daemon from the repository's own workspace
and the benchmark binary from `perfbench/` (release profile, offline,
into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs it.
Its standard output is passed through; the last line is the result
object.  Everything the run writes stays under `.bench_build/`.

`--self-check` runs every workload at toy size for two rounds, traced
and untraced, and checks that each metric BENCHMARK.json names is
printed with its unit and that no mailbox entry failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
# The benchmark binary's wall-clock ceiling (set-up, warm-up, measured rounds
# and teardown); the build before it is not counted.
RUN_TIMEOUT_S = 170
WORKLOADS = ("steady", "fanout", "churn")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build the daemon and the benchmark binary; return their paths."""
    for need in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "xrd-net", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of an XRD checkout")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    manifests = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "xrd-net", "--bin", "xrd-netd"],
        ["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for extra in manifests:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "xrd-netd"), os.path.join(release, "xrd-perfbench")


def commit_id():
    """The git commit if there is one, else a digest of the sources."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep) for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_bench(bench, netd, argv):
    """Run the benchmark binary in its own process group, so a timeout can
    stop it and every daemon it spawned; return (exit code, stdout)."""
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [bench, "--netd", netd, "--out", OUT, "--commit", commit_id(),
           "--clk-tck", str(os.sysconf("SC_CLK_TCK"))] + argv
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s; stopped", file=sys.stderr)
        return 124, ""
    finally:
        # Daemons left behind by a crashed run share its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(tmp, ignore_errors=True)
    return proc.returncode, out


def self_check(bench, netd):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_bench(bench, netd, [
                "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", trace, "--rounds", "2", "--toy"])
            label = f"{workload} trace={trace}"
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            printed = {tuple(l.split()[1::2]) for l in lines if l.startswith("metric ")}
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or (m["name"], m["unit"]) not in printed:
                    problems.append(f"{label}: {m['name']} not printed with unit {m['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} entries failed")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} entries checked, {result['failed']} failed")
    for p in problems:
        print("self-check:", p)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    netd, bench = build()
    if args.self_check:
        sys.exit(self_check(bench, netd))
    code, out = run_bench(bench, netd, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
