#!/usr/bin/env python3
"""Pipeline benchmark of SparkER: builds the program, runs one workload in a
fresh JVM and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload blast_demo --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --all      # every workload, untraced, as a table
    python3 perfbench/run.py --smoke    # tiny inputs, both modes, checks every metric

Run it from the repository root. The workloads, Spark settings, recorded
output digests and the meaning of every metric are in perfbench/spec.json
and perfbench/README.md. The exit code is not 0 when the build fails, a
run fails the correctness gate, or (in --all and --smoke) any workload does.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = Path.cwd()
BENCH = Path("perfbench")
SPEC = BENCH / "spec.json"
TIMEOUT_S = 170

ADD_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def run_jvm(classes, workload, seed, seconds, trace, smoke):
    """Run one workload in its own JVM; return (exit code, result dict or None)."""
    spec = json.loads((ROOT / SPEC).read_text())
    # Spark's block and shuffle files and the JVM's temporary files stay
    # inside the checkout.
    scratch = ROOT / build.BUILD_DIR / "run"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(scratch / "spark-local"))
    cmd = ["java", f"-Xmx{spec['spark']['jvm_heap']}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={scratch / 'tmp'}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in ADD_OPENS]
    cmd += ["-cp", os.pathsep.join([str(classes), str(build.spark_jars() / "*")]),
            "perfbench.Main", "--spec", str(SPEC), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = out.strip().splitlines()
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    return proc.returncode, result


def expected_metrics(trace):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}


def problems(result, trace):
    """Ways `result` falls short of the contract in BENCHMARK.json."""
    if result is None:
        return ["no result"]
    found = [] if result.get("correct") and result.get("failed") == 0 else ["correctness gate failed"]
    metrics = result.get("metrics", {})
    for name, unit in expected_metrics(trace).items():
        m = metrics.get(name)
        if m is None:
            found.append(f"{name} missing")
        elif m.get("unit") != unit:
            found.append(f"{name} has unit {m.get('unit')}, expected {unit}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            found.append(f"{name} is not a finite number")
    extra = set(metrics) - set(expected_metrics(trace))
    if extra:
        found.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return found


def workloads():
    return list(json.loads((ROOT / SPEC).read_text())["workloads"])


def run_all(classes, seconds):
    failed = False
    for w in workloads():
        code, result = run_jvm(classes, w, None, seconds, 0, False)
        faults = problems(result, 0)
        failed |= code != 0 or bool(faults)
        print(f"{w}: {'ok' if code == 0 and not faults else 'FAILED ' + '; '.join(faults)}")
        for name, m in (result or {}).get("metrics", {}).items():
            print(f"  {name:<12} {m['value']:>14.6f} {m['unit']}")
    return 1 if failed else 0


def run_smoke(classes):
    failed = False
    for w in workloads():
        for trace in (0, 1):
            code, result = run_jvm(classes, w, None, 1, trace, True)
            faults = problems(result, trace)
            failed |= code != 0 or bool(faults)
            print(f"smoke {w} trace={trace}: {'ok' if code == 0 and not faults else 'FAILED ' + '; '.join(faults)}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, help="input seed; default: the workload's own (spec.json)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, both modes, every metric checked")
    args = ap.parse_args()

    classes = build.build(ROOT)
    if args.smoke:
        return run_smoke(classes)
    if args.all:
        return run_all(classes, args.seconds)
    if args.workload is None:
        ap.error("--workload, --all or --smoke is required")
    code, result = run_jvm(classes, args.workload, args.seed, args.seconds, args.trace, False)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
