"""Run the benchmark on several seeds, one process after another, and print
each metric's median, quartiles and quartile spread as a share of the
median (`statistics.quantiles(values, n=4)`).

    python3 perfbench/spread.py --workload hopset-gnm --seeds 0 1 2 3 4 --seconds 20

Results go to perfbench/out/spread-<workload>-trace<t>.json as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    summary = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[key] = {"median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med if med else 0.0, "values": values}
        print(f"{key:32s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {summary[key]['spread']:.3f}")
    out = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
