"""Two sets of N runs of the same commit, compared against the bounds.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --workload mobility --runs 5 --sets 1

Every run gets its own seed (set ``k`` uses seeds ``k*1000+1 ..``).  For
each workload and end-to-end metric this prints, per set, the median and
the quartiles, the quartile spread as a share of the median, and the
distance between the two sets' medians as a share of the first.  A
spread or a distance past the metric's ``bound`` is flagged; the spread
of ``setup_s`` is shown but not flagged, since the benchmark gates only
its median.  Each run's JSON result line is appended to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _one(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--out", default=".perfbench/steadiness.jsonl")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    flagged = 0
    for name in names:
        sets = []
        for k in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = k * 1000 + i + 1
                result = _one(name, seed, spec["run_seconds"])
                with open(out, "a") as fh:
                    fh.write(json.dumps({"workload": name, "set": k,
                                         "seed": seed, **result}) + "\n")
                if not result["correct"]:
                    print(f"{name} seed {seed}: incorrect output")
                    flagged += 1
                results.append(result)
            sets.append(results)
        shares = {round(r["failed"] / r["attempted"], 12)
                  for results in sets for r in results}
        print(f"\n{name}: failed share per run {sorted(shares)}")
        if len(shares) != 1:
            flagged += 1
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            line = [f"  {m:<12}"]
            medians = []
            for results in sets:
                values = [r["metrics"][m]["value"] for r in results]
                med, q1, q3, spread = _summary(values)
                medians.append(med)
                mark = ""
                if spread > bound and m != "setup_s":
                    mark = " SPREAD>BOUND"
                    flagged += 1
                line.append(f"median {med:.4g} [{q1:.4g}, {q3:.4g}] "
                            f"spread {spread:.3f}{mark}")
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                mark = " DRIFT>BOUND" if worse > bound else ""
                flagged += bool(mark)
                line.append(f"set 2 worse by {worse:+.3f} "
                            f"(bound {bound}){mark}")
            print(" | ".join(line))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
