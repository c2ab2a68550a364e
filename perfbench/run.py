#!/usr/bin/env python3
"""Serving benchmark for `pipesched serve --listen`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pipesched source tree. The first run builds the
library and CLI (tests, benches and examples off) and then this directory's
load generator against them, all under .bench_build/ (or $CARGO_TARGET_DIR
when set), and runs the load generator's self-test once per build.

Each run spawns `pipesched serve --listen 127.0.0.1:0 --threads 2 --trace off`,
sets it up five times (spawn, /healthz, fixed priming; setup_s is the
median), drives the workload's fixed-size request stream from one
single-threaded C++ client, checks every answer against an in-process replay
and the server's /stats counters against the workload's intent, and drains
the server with SIGTERM. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones from a serial traced replay of the same
stream. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run's metadata (host, compiler, build type, source revision, the exact
serve argv), the raw report, the /stats snapshot, the server log and, for
traced runs, the spans are kept under <build>/results/.
"""

import argparse
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
RUN_TIMEOUT_S = 175
WORKLOADS = ("cold_paper", "sweep_refine")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stderr.write(Path(log).read_text()[-4000:])
        fail(f"command failed: {' '.join(str(c) for c in cmd)}")


def cmake_build(source, build, log, targets, defines):
    if not (build / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", source, "-B", build, *generator,
                    "-DCMAKE_BUILD_TYPE=Release", *[f"-D{d}" for d in defines]], log)
    jobs = str(os.cpu_count() or 2)
    run_logged(["cmake", "--build", build, "--target", *targets, "-j", jobs], log)


def build(out):
    log = out / "build.log"
    lib_build = out / "pipesched"
    cmake_build(ROOT, lib_build, log, ["pipesched", "pipesched_cli"],
                ["PIPESCHED_BUILD_TESTS=OFF", "PIPESCHED_BUILD_BENCH=OFF",
                 "PIPESCHED_BUILD_EXAMPLES=OFF"])
    library = lib_build / "src" / "libpipesched.a"
    cli = lib_build / "tools" / "pipesched"
    bench_build = out / "perfbench"
    cmake_build(HERE, bench_build, log, ["perfbench_loadgen", "perfbench_selftest"],
                [f"PIPESCHED_SOURCE_DIR={ROOT}", f"PIPESCHED_LIBRARY={library}"])
    loadgen = bench_build / "perfbench_loadgen"
    selftest = bench_build / "perfbench_selftest"
    stamp = bench_build / "selftest.passed"
    if not stamp.exists() or stamp.stat().st_mtime < selftest.stat().st_mtime:
        done = subprocess.run([selftest], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("self-test failed")
        stamp.write_text(done.stdout)
    return cli, loadgen, lib_build


def cache_value(build, key):
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    """sha256 over the sources the benchmark builds from, in path order."""
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("cmake", "include", "src", "tools", HERE.name):
        paths += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in paths:
        if path.suffix in (".pyc",) or not path.exists():
            continue
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(lib_build, serve_argv):
    compiler = cache_value(lib_build, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        done = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = done.stdout.splitlines()[0] if done.stdout else ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": f"{compiler} ({version})",
        "build_type": cache_value(lib_build, "CMAKE_BUILD_TYPE"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "serve_argv": [Path(serve_argv[0]).name] + serve_argv[1:] if serve_argv else [],
    }


def run_loadgen(cmd):
    """Runs the load generator in its own process group, so a timeout also
    takes down the server it spawned."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"load generator printed no report (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload}", 2)
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail(f"no pipesched sources at {ROOT}", 2)

    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cli, loadgen, lib_build = build(out)

    report = run_loadgen([loadgen, "--cli", cli, "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--out-dir", results])

    # Every metric BENCHMARK.json names for this mode, with its unit.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = report.get("metrics", {})
    problems = list(report.get("checks_failed", []))
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} in {got['unit']}, not {metric['unit']}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")

    result = {
        "correct": bool(report.get("correct")) and not problems,
        "attempted": int(report.get("attempted", 0)),
        "failed": int(report.get("failed", 0)),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted if m["name"] in metrics},
    }
    meta = metadata(lib_build, report.get("serve_argv", []))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps(
        {"metadata": meta, "args": vars(args), "problems": problems,
         "report": report, "result": result}, indent=2) + "\n")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("run metadata: " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
