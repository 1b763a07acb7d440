#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the benchmark program from source into $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build. Each run then
self-tests the statistics helpers, runs the workload, checks that the
metrics it printed are exactly the ones BENCHMARK.json lists (names and
units), writes a result record with provenance under <build>/results/, and
prints as its last line the JSON result: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROGRAM = "anole_perfbench"
# The program must finish well inside the 180-second limit of one run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, log_path, timeout):
    with open(log_path, "a") as log:
        result = subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                                timeout=timeout, check=False)
    if result.returncode != 0:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-30:]
        fail(f"{' '.join(command)} failed:\n" + "\n".join(tail))


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    if not (build_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(build_dir), "-j", jobs], log,
               BUILD_TIMEOUT_S)
    program = build_dir / PROGRAM
    if not program.exists():
        fail(f"build produced no {program}")
    return program


def source_digest():
    """SHA-256 over every file the program is built from."""
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    files.append(ROOT / "bench" / "common.hpp")
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.exists():
        fail(f"{manifest_path} is missing")
    manifest = json.loads(manifest_path.read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (have {', '.join(workloads)})")
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")
    if not (ROOT / "src").is_dir() or not (ROOT / "bench" / "common.hpp").exists():
        fail(f"library sources not found under {ROOT}; run from a full checkout")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    program = build(build_dir)

    self_test = subprocess.run([str(program), "--self-test"], capture_output=True,
                               text=True, timeout=60, check=False)
    print(self_test.stdout.strip(), file=sys.stderr)
    if self_test.returncode != 0:
        fail("statistics self-test failed:\n" + self_test.stderr)

    command = [str(program), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               args.trace]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == "1":
        (build_dir / "traces").mkdir(exist_ok=True)
        command += ["--spans", str(build_dir / "traces" / f"{tag}.spans.csv")]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=RUN_TIMEOUT_S, check=False)
    lines = result.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{PROGRAM} printed nothing (exit code {result.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        outcome = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a JSON result (exit code {result.returncode})")

    # The metric set is BENCHMARK.json's, by name and unit.
    listed = manifest["per_layer" if args.trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {name: m["unit"] for name, m in outcome["metrics"].items()}
    mismatch = sorted(set(expected.items()) ^ set(printed.items()))
    if mismatch:
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(f"{name} [{unit}]" for name, unit in mismatch))

    provenance = {}
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    provenance["commit"] = commit()
    provenance["source_sha256"] = source_digest()
    record = {"provenance": provenance, "correct": outcome["correct"],
              "attempted": outcome["attempted"], "failed": outcome["failed"],
              "metrics": outcome["metrics"]}
    (build_dir / "results").mkdir(exist_ok=True)
    (build_dir / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": outcome["correct"] and result.returncode == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in outcome["metrics"].items()},
    }))
    sys.exit(0 if result.returncode == 0 and outcome["correct"] else 1)


if __name__ == "__main__":
    main()
