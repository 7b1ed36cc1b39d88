"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 1 \\
        --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A record of the run and its environment goes to standard
error and is appended to ``.perfbench/runs.jsonl``.  See README.md in
this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Launches per run whose set-up time is measured (``setup_s`` is their
#: median).
SETUP_LAUNCHES = 3


def _source_digest() -> str:
    """Git sha when there is one, else a digest of the program sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _environment() -> dict:
    import numpy

    return {
        "source": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def _measure_setup(args) -> list:
    """Seconds from launching a fresh process until it is ready to run
    the first timed op, for :data:`SETUP_LAUNCHES` launches."""
    samples = []
    for k in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up launch {k} failed ({code})")
    return samples


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _run(workload, seconds: float, trace: bool):
    """The timed loop: whole rounds until ``seconds`` have passed.

    A run has at least two rounds, so a workload whose round outlasts
    ``seconds`` still reports a median of two.  With ``trace``, odd
    rounds run traced and even rounds untraced, so the trace overhead is
    measured in-run.
    """
    from tracing import Tracer

    tracer = Tracer(workload.trace_points()) if trace else None
    times = {False: [], True: []}
    rates = []
    attempted = failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        traced = trace and r % 2 == 1
        workload.tracer = tracer if traced else None
        workload.begin_round(r)
        units = busy = 0.0
        for i in range(workload.ops_per_round):
            attempted += 1
            try:
                if traced:
                    with tracer.op(len(times[True])):
                        t0 = time.perf_counter()
                        done, output = workload.op(r, i)
                        elapsed = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    done, output = workload.op(r, i)
                    elapsed = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                failed += 1
                print(f"op {r}.{i} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            times[traced].append(elapsed)
            units += done
            busy += elapsed
            workload.collect(r, i, output)
            del output
        workload.end_round(r)
        workload.tracer = None
        if not traced and busy:
            rates.append(units / busy)
        r += 1
        if time.perf_counter() - start >= seconds and r >= 2:
            break
    return tracer, times, rates, attempted, failed, r


def _layer_metrics(workload, tracer, times) -> dict:
    """Per-op self time per layer, counts per op, ratios, remainder."""
    from tracing import OP_SPAN

    ops = len(times[True])
    per_op = 1e3 / max(1, ops)
    out = {}
    for name, seconds in tracer.self_times().items():
        key = "unattributed_ms" if name == OP_SPAN else name
        out[key] = seconds * per_op
    for name, value in tracer.counts.items():
        out[name] = value / max(1, ops)
    out.update(workload.layer_metrics(tracer, ops))
    plain = statistics.median(times[False])
    out["trace.overhead_pct"] = (
        (statistics.median(times[True]) - plain) / plain * 100.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (what "
                             "setup_s times)")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "repro").is_dir():
        # Measure the checkout's program, never an installed copy.
        parser.error(f"no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        print("ready", flush=True)
        workload.abandon()
        return 0

    env = _environment()
    setup = _measure_setup(args)
    try:
        workload.setup()
        tracer, times, rates, attempted, failed, rounds = _run(
            workload, args.seconds, bool(args.trace))
        peak = workload.peak_rss_mb()
        problems = workload.check()
    finally:
        workload.close()

    plain = times[False]
    if args.trace:
        wanted = spec["per_layer"]
        values = _layer_metrics(workload, tracer, times)
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak,
            "work_per_s": statistics.median(rates),
            "op_p50_ms": statistics.median(plain) * 1e3,
        }
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "attempted": attempted, "failed": failed, "ops_timed": len(plain),
        "work_unit": workload.unit, "setup_samples_s": setup,
        "problems": problems[:20],
        "missing_wrap_points": tracer.missing if tracer else [],
        "environment": env, "metrics": metrics,
    }
    if len(plain) >= 100:
        # A tail needs ten samples beyond it; kept out of the gated set
        # because two of the workloads never have that many ops.
        record["op_p90_ms"] = _quantile(plain, 0.9) * 1e3
    print(json.dumps(record), file=sys.stderr)
    runs = ROOT / ".perfbench"
    runs.mkdir(exist_ok=True)
    with open(runs / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
