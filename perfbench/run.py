#!/usr/bin/env python3
"""Build and run the repo benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload serve-steady --seed 42 --seconds 30 --trace 0

Builds perfbench.exe with dune from the checkout this file lives in,
runs one workload, echoes its output, and prints as the last line one
JSON object with the keys correct, attempted, failed and metrics.  The
metrics are the end_to_end list of BENCHMARK.json with --trace 0 and
its per_layer list with --trace 1; the harness must report exactly
those names, and each gets its unit from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0,
                    help="requests per serve-* rep (history cross-check only)")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")

    # No shared dune cache and no system temp dir: the benchmark reads
    # and writes only inside the checkout.
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        die("build failed", build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.requests > 0:
        cmd += ["--requests", str(args.requests)]
    result = None
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.startswith("result: "):
                result = json.loads(line[len("result: "):])
    sys.stdout.flush()
    if result is None:
        die(f"harness exited with code {proc.returncode} and no result",
            proc.returncode or 1)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    if set(got) != set(names):
        die("harness metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
