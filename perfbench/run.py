"""misdyn benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload parse --seed 0 --seconds 15 --trace 0

The loop is closed: one caller, and each library call starts after the
previous one returns. The run imports misdyn from ./src of the checkout
it sits in, builds the workload's inputs from the seed (set-up), then
repeats the workload's fixed round of jobs until --seconds of job time
have passed, checking every output. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the round runs once
untraced and once under span tracing (perfbench/spans.py), and the
metrics are the per-layer ones. The line before the result is a report
with provenance and every end-to-end figure, failed_frac included.
Timed figures are calibrated against a fixed kernel run after every job
and set-up, so that stretches in which a shared host runs everything
more slowly cancel out (see measure and workloads.CALIBRATION).

Other modes:
    --smoke                 tiny round of every workload plus its traced run
    --record-digests 0-31   store the output digests of the given seeds,
                            and of the smoke round at seed 0
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCH = ROOT / "BENCHMARK.json"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
MODULES = ("digraph", "parsing", "system", "rational", "analysis", "constructions")
SETUP_REPEATS = 15


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_misdyn():
    """Import misdyn afresh from the checkout's src/ directory."""
    if not (SRC / "misdyn" / "__init__.py").is_file():
        raise BenchError(f"no misdyn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "misdyn" or m.startswith("misdyn.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module("misdyn." + m) for m in MODULES})
    origin = Path(sys.modules["misdyn"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"misdyn was imported from {origin}, not from {SRC}")
    return lib


def timed_setup(workload, seed, profile):
    """Import plus input set-up; returns (its time, the mean time of the
    workload's calibration kernel run just before and just after it)
    and the jobs."""
    kernel = workloads.CALIBRATION[workload][0]
    k_before = kernel_time(kernel)
    t0 = time.perf_counter()
    jobs = workloads.setup(workload, import_misdyn(), seed, profile)
    elapsed = time.perf_counter() - t0
    k_after = kernel_time(kernel)
    gc.collect()  # free the previous set-up's modules outside timed work
    return (elapsed, (k_before + k_after) / 2), jobs


def kernel_time(kernel):
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Tally:
    """Attempted and failed op units, plus per-job digests.

    When digests are recorded for the profile, workload and seed, the
    jobs set up must be exactly the recorded ones: a job without a
    recorded digest fails, and so does each recorded job that was not
    set up (one attempted and failed unit each).
    """

    def __init__(self, workload, seed, profile, recorded, jobs):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.expected = recorded.get(profile, {}).get(workload, {}).get(str(seed), {})
        if self.expected:
            for key in sorted(set(self.expected) - {job.key for job in jobs}):
                self.attempted += 1
                self.failed += 1
                self.failures.append(f"{key}: recorded digest but no such job")

    def fail(self, job, why):
        self.failed += job.units
        self.failures.append(f"{job.key}: {why}")


def run_round(jobs, tally, samples, verify, job_times=None, kernel=None):
    """Run each job once; returns the job time in seconds. With
    job_times, the calibration kernel runs before the first job and
    after every job, and each job that returned appends (its time, the
    mean time of the kernels just before and just after it) to
    job_times[job.key]."""
    busy = 0.0
    clock = time.perf_counter
    k_before = kernel_time(kernel) if job_times is not None else None
    for job in jobs:
        tally.attempted += job.units
        before = len(samples)
        t0 = clock()
        try:
            result = job.run(samples)
            raised = None
        except Exception:  # a failed op is counted, and the run goes on
            raised = traceback.format_exc()
        elapsed = clock() - t0
        busy += elapsed
        if job_times is not None:
            k_after = kernel_time(kernel)
            if raised is None:
                job_times.setdefault(job.key, []).append((elapsed, (k_before + k_after) / 2))
            k_before = k_after
        if raised is not None:
            tally.fail(job, "raised\n" + raised)
            continue
        if job.times_calls and len(samples) - before != job.units:
            tally.fail(job, "missing call timings")
        try:
            if verify:
                job.verify(result)
            text_digest = workloads.digest(job.render(result))
            first = tally.digests.setdefault(job.key, text_digest)
            if text_digest != first:
                raise workloads.CheckFailed("output differs from the first round")
            if tally.expected:
                expected = tally.expected.get(job.key)
                if expected is None:
                    raise workloads.CheckFailed("no recorded digest")
                if expected != text_digest:
                    raise workloads.CheckFailed(
                        f"digest {text_digest} != recorded {expected}")
        except workloads.CheckFailed as exc:
            tally.fail(job, str(exc))
    return busy


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, profile):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "workload": workload,
        "profile": profile,
        "sizes": workloads.PROFILES[profile][workload],
        "op_unit": workloads.UNITS[workload],
    }


def load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        raise BenchError(f"no recorded digests at {DIGESTS}") from None


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrated(pairs, reference_s):
    """Median of time / kernel time, in seconds on the reference host."""
    return statistics.median(t / k for t, k in pairs) * reference_s


def measure(workload, seed, seconds, recorded, profile="full"):
    """Untraced run: returns (tally, end-to-end metrics, report).

    The round is repeated until `seconds` of job time have passed, and
    the set-up after every round (and then up to SETUP_REPEATS times in
    all). The host runs the same code up to twice as slowly for
    stretches of seconds to minutes, so the workload's calibration
    kernel (workloads.CALIBRATION) runs just before and just after every
    job and set-up, and each time is taken as a multiple of the mean of
    those two kernel times: the median of those ratios over the
    repetitions, times the kernel's reference time. ops_per_s is the round's units over the sum of the calibrated
    job times, and setup_s the calibrated set-up time. The report line
    gives the same figures in plain seconds, from the fastest
    repetitions, and the kernel's median time.
    """
    kernel, reference_s = workloads.CALIBRATION[workload]
    first_setup, jobs = timed_setup(workload, seed, profile)
    setups = [first_setup]
    tally = Tally(workload, seed, profile, recorded, jobs)
    samples = []
    job_times = {}
    busy_total = 0.0
    rounds = 0
    while rounds == 0 or busy_total < seconds:
        busy_total += run_round(jobs, tally, samples, rounds == 0, job_times, kernel)
        rounds += 1
        setups.append(timed_setup(workload, seed, profile)[0])
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload, seed, profile)[0])
    units = sum(job.units for job in jobs)
    round_s = sum(calibrated(pairs, reference_s) for pairs in job_times.values())
    metrics = {
        "setup_s": {"value": calibrated(setups, reference_s), "unit": "s"},
        "ops_per_s": {"value": units / round_s, "unit": "1/s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
    }
    kernels = [k for pairs in job_times.values() for _, k in pairs]
    report = {
        "provenance": provenance(workload, seed, profile),
        "rounds": rounds,
        "setups": len(setups),
        "kernel_median_s": {"value": statistics.median(kernels), "unit": "s"},
        "ops_per_s_raw": {
            "value": units / sum(min(t for t, _ in pairs) for pairs in job_times.values()),
            "unit": "1/s"},
        "setup_raw_s": {"value": min(t for t, _ in setups), "unit": "s"},
        "job_seconds": busy_total,
        "failed_frac": {"value": tally.failed / tally.attempted, "unit": "ratio"},
    }
    if samples:
        report["append_samples"] = len(samples)
        report["append_p50_us"] = {"value": percentile(samples, 50) * 1e6, "unit": "us"}
        report["append_p99_us"] = {"value": percentile(samples, 99) * 1e6, "unit": "us"}
    return tally, metrics, report


def traced(workload, seed, recorded, profile="full", write_spans=True):
    """One untraced and one traced pass over the same round."""
    per_layer = json.loads(BENCH.read_text())["per_layer"]
    lib = import_misdyn()
    jobs = workloads.setup(workload, lib, seed, profile)
    tally = Tally(workload, seed, profile, recorded, jobs)
    plain = run_round(jobs, tally, [], verify=True)
    rec = spans.Recorder()
    rec.install(lib)
    try:
        jobs = workloads.setup(workload, lib, seed, profile)
        with_spans = run_round(jobs, tally, [], verify=False)
    finally:
        rec.remove()
    metrics = spans.layer_metrics(rec, (with_spans - plain) / plain, per_layer)
    report = {
        "provenance": provenance(workload, seed, profile),
        "spans": len(rec.spans),
        "untraced_job_s": plain,
        "traced_job_s": with_spans,
        "failed_frac": {"value": tally.failed / tally.attempted, "unit": "ratio"},
    }
    if write_spans:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-{seed}-{profile}.jsonl.gz"
        rec.write(path)
        report["spans_file"] = str(path.relative_to(ROOT))
    return tally, metrics, report


def emit(tally, metrics, report):
    for failure in tally.failures:
        print("FAILED " + failure, file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def record_digests(seeds, names):
    """Run one round per seed and store every job's output digest: the
    full profile at the given seeds, the smoke profile at seed 0."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for profile, profile_seeds in (("full", seeds), ("smoke", [0])):
        for workload in names:
            table = recorded.setdefault(profile, {}).setdefault(workload, {})
            for seed in profile_seeds:
                lib = import_misdyn()
                jobs = workloads.setup(workload, lib, seed, profile)
                tally = Tally(workload, seed, profile, {}, jobs)
                run_round(jobs, tally, [], verify=True)
                if tally.failed:
                    for failure in tally.failures:
                        print("FAILED " + failure, file=sys.stderr)
                    return 1
                table[str(seed)] = tally.digests
                print(f"recorded {profile} {workload} seed {seed}: {len(tally.digests)} jobs")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def smoke():
    """Tiny untraced and traced run of every workload, checks on."""
    status = 0
    recorded = load_digests()
    for workload in workloads.SETUP:
        tally, _, _ = measure(workload, 0, 0.0, recorded, profile="smoke")
        t_tally, layer, _ = traced(workload, 0, recorded, profile="smoke", write_spans=False)
        ok = tally.failed == 0 and t_tally.failed == 0
        status |= not ok
        counts = {k: v["value"] for k, v in layer.items() if v["unit"] == "count"}
        print(json.dumps({"workload": workload, "ok": ok, "counts": counts}, sort_keys=True))
        for failure in tally.failures + t_tally.failures:
            print("FAILED " + failure, file=sys.stderr)
    return status


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.SETUP))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", metavar="SEEDS")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.record_digests:
            names = [args.workload] if args.workload else list(workloads.SETUP)
            return record_digests(seed_list(args.record_digests), names)
        if args.workload is None:
            parser.error("--workload is required")
        recorded = load_digests()
        if args.trace:
            return emit(*traced(args.workload, args.seed, recorded))
        return emit(*measure(args.workload, args.seed, args.seconds, recorded))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
