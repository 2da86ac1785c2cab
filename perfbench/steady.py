"""Steadiness check: do two independent sets of runs of one commit agree?

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads parse,orbit]

Each run is `perfbench/run.py --trace 0` in its own process, one after
another. Every set runs the same seeds (first, first + 1, ...), one set
after the other, so the sets differ only in when they ran. For every
end-to-end metric of BENCHMARK.json and every workload it prints each
set's median and spread (interquartile distance over the median, from
statistics.quantiles(values, n=4)), and whether the sets agree within
the metric's bound: each spread within the bound, and each later median
within the bound of the first, in either direction. With --runs 1
--sets 1 it is a one-shot report of every metric. Exit status 0 means
every check agreed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Figures of run.py's report line that BENCHMARK.json does not gate:
# failed_frac is 0 on a correct run, the raw figures and the kernel time
# sit beside the calibrated ones, and the append latencies exist on the
# parse workload only.
REPORTED = ("failed_frac", "ops_per_s_raw", "setup_raw_s", "kernel_median_s",
            "append_p50_us", "append_p99_us")


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    report = json.loads(lines[-2].removeprefix("report "))
    return json.loads(lines[-1]), report


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, later):
    """Relative distance of later from first, in either direction."""
    return abs(later - first) / first


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    command = [sys.executable] + bench["command"][1:]
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        sets = []
        reports = []
        for k in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.first_seed + r
                t0 = time.perf_counter()
                result, report = run_once(command, workload, seed, args.seconds)
                wall = time.perf_counter() - t0
                if not result["correct"]:
                    ok = False
                runs.append(result)
                reports.append(report)
                print(f"{workload} set {k} seed {seed}: {wall:.1f}s wall, "
                      f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
            sets.append(runs)
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            drifts = [drift(medians[0], m) for m in medians[1:]]
            agree = all(d <= metric["bound"] for d in drifts + spreads)
            ok = ok and agree
            summary[workload][name] = {
                "unit": metric["unit"], "bound": metric["bound"], "medians": medians,
                "spreads": spreads, "drift": drifts, "agree": agree, "values": per_set,
            }
            cells = "  ".join(f"median {m:.6g} spread {s:.3f}" for m, s in zip(medians, spreads))
            drift_text = " ".join(f"{d:.3f}" for d in drifts) or "-"
            print(f"{workload:9s} {name:13s} {metric['unit']:4s} {cells}  drift {drift_text}  "
                  f"bound {metric['bound']}  {'agree' if agree else 'DISAGREE'}", flush=True)
        for name in REPORTED:
            values = [r[name]["value"] for r in reports if name in r]
            if values:
                unit = next(r[name]["unit"] for r in reports if name in r)
                print(f"{workload:9s} {name:13s} {unit:4s} median {statistics.median(values):.6g}"
                      f" over {len(values)} runs (reported, not gated)")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
