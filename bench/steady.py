"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (distance between first and third quartile as a share of
the median) against its bound in BENCHMARK.json.

    python3 bench/steady.py --workload baseline_iid --seeds 1 2 3 4 5

Invocations run one after another; raw result lines are appended to
.bench_out/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = ROOT / ".bench_out" / f"steady-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(line) if line.startswith("{") else {}
        result["seed"] = seed
        result["exit"] = proc.returncode
        with open(log, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
        print(f"seed {seed}: exit {proc.returncode} correct {result.get('correct')} {values}",
              flush=True)
        results.append(result)
    if len(results) < 2:
        return 0
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results if r.get("metrics")]
        print(f"{metric['name']:>14}: median {statistics.median(values):.4f} "
              f"spread {spread(values):.4f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
