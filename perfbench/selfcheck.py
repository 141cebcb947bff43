"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py [--workload NAME] [--seed N] [--second-seed M]

Runs the traced benchmark twice on one seed and once on a second seed.  The
two runs on one seed must generate byte-identical inputs and repeat every
exact count: `evaluator.selection_cmp.*`, `rewrite.lowered_nodes.*` and the
probe outcomes.  The second seed shows what a claim made on the first would
be checked against.  Exits 1 if anything differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_PREFIXES = ("evaluator.selection_cmp.", "rewrite.lowered_nodes.")


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed on seed {seed}:\n{proc.stderr}")
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)
    exact = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.startswith(EXACT_PREFIXES)
    }
    return {
        "inputs_sha256": report["inputs_sha256"],
        "probes": report["probes"],
        "exact": exact,
        "correct": result["correct"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="determinism self-check")
    ap.add_argument("--workload", default="grid-day")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int, default=2)
    args = ap.parse_args()
    first = traced_run(args.workload, args.seed)
    again = traced_run(args.workload, args.seed)
    other = traced_run(args.workload, args.second_seed)
    same = {key: first[key] == again[key] for key in ("inputs_sha256", "probes", "exact")}
    verdict = {
        "workload": args.workload,
        "seed": args.seed,
        "repeats": same,
        "all_correct": first["correct"] and again["correct"] and other["correct"],
        "second_seed": args.second_seed,
        "second_seed_inputs_differ": other["inputs_sha256"] != first["inputs_sha256"],
        "exact_counts": {str(args.seed): first["exact"], str(args.second_seed): other["exact"]},
        "probes": first["probes"],
    }
    print(json.dumps(verdict, indent=2))
    return 0 if all(same.values()) and verdict["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
