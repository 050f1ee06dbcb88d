"""Run-to-run spread of the end-to-end metrics, one benchmark run per seed.

    python3 bench/spread.py --workload membership --seeds 1 2 3 4 5 --seconds 36

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median. The per-run figures and the summary are written to
``bench/results/spread-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            med, share = spread([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"median": med, "iqr_share": share}
            print(f"{name:>14}: median {med:.6g}, IQR/median {share:.4f}")
    (BENCH_DIR / "results").mkdir(exist_ok=True)
    out = BENCH_DIR / "results" / f"spread-{args.workload}.json"
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
