"""fuzzytl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fuzzytl is imported from its src/.  With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it records
spans around every call into a fuzzytl layer and measures the per-layer
metrics.  A JSON report with the workload's own metrics comes first; the last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from statistics import median

import common
from common import CAL_REFERENCE_S, WORK, NullTracer, Tracer, calibrate, perf, percentile_stats

LAYERS = ("cli", "trace_io", "core", "parser", "evaluator", "rewrite", "checks", "demo")
#: Calibration slices on each side of a set-up batch; one 10 ms slice is
#: itself at the mercy of the host's swings.
SETUP_SLICES = 5


def measure_passes(wl, jobs_for_pass, seconds: float, tracers):
    """Full passes over the job list until ``seconds`` have gone by.

    ``tracers`` is cycled per pass, so a traced run can alternate untraced
    and traced passes.  A calibration slice runs after every
    ``wl.cal_every_s`` of job time, outside the jobs' timed regions.  Returns, per tracer, a
    (pass time, mean calibration slice time) pair for each pass; job times
    per kind; attempted; and the failed job descriptions.
    """
    passes = defaultdict(list)
    by_kind = defaultdict(list)
    attempted = 0
    failures: list[str] = []
    # the benchmark's own long-lived objects stay out of the collector's scans
    gc.collect()
    gc.freeze()
    start = perf()
    p = 0
    while p < len(tracers) or perf() - start < seconds:
        tr = tracers[p % len(tracers)]
        total = 0.0
        since_cal = 0.0
        cals = [wl.calibrate()]
        for job in jobs_for_pass(p):
            tr.next_job()
            t0 = perf()
            try:
                out, err = job.run(tr), None
            except Exception as exc:  # recorded as a failed job
                out, err = None, exc
            dt = perf() - t0
            total += dt
            by_kind[job.kind].append(dt)
            attempted += 1
            since_cal += dt
            while since_cal >= wl.cal_every_s:
                cals.append(wl.calibrate())
                since_cal -= wl.cal_every_s
            if err is None:
                try:
                    if job.check(out):
                        continue
                except Exception as exc:  # a malformed output fails its check
                    err = exc
            failures.append(job.name + (f": {type(err).__name__}: {err}" if err else ": wrong output"))
        passes[id(tr)].append((total, statistics.fmean(cals)))
        p += 1
    return passes, by_kind, attempted, failures


def run_untraced(wl, seconds, report):
    """Set-up samples, then the timed passes.

    A set-up sample is the mean time of ``wl.setup_batch`` set-ups, scaled to
    the reference host by the calibration slices run just before and after
    the batch; the raw seconds go to the report.
    """
    null = NullTracer()
    setup_times, raw_setup_times = [], []
    for _ in range(wl.setup_reps):
        slices = [calibrate() for _ in range(SETUP_SLICES)]
        t0 = perf()
        for _ in range(wl.setup_batch):
            wl.setup(null)
        dt = (perf() - t0) / wl.setup_batch
        slices += [calibrate() for _ in range(SETUP_SLICES)]
        slice_s = statistics.fmean(slices)
        raw_setup_times.append(dt)
        setup_times.append(dt * CAL_REFERENCE_S / slice_s)
    report["setup_raw_s"] = median(raw_setup_times)
    report["inputs_sha256"] = wl.digest()
    wl.prepare()
    passes, by_kind, attempted, failures = measure_passes(wl, wl.jobs, seconds, [null])
    peak_mb = resource.getrusage(wl.rss_of).ru_maxrss / 1024
    return setup_times, passes[id(null)], by_kind, attempted, failures, peak_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the calibration slices must run on the CPU that runs the measured work,
    # the `fuzzytl` subprocesses included
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    common.use_checkout_sources()
    import layers
    import probes
    from fuzzytl.demo import generate_day
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    metrics: dict[str, tuple[float, str]] = {}
    try:
        if args.trace == 0:
            setup_times, passes, by_kind, attempted, failures, peak_mb = run_untraced(
                wl, args.seconds, report
            )
        else:
            tracer, null = Tracer(), NullTracer()
            wl.setup(tracer)
            report["inputs_sha256"] = wl.digest()
            wl.prepare()
            by_tracer, _, attempted, failures = measure_passes(
                wl, wl.traced_jobs, args.seconds, [null, tracer]
            )
        extra = wl.extra_checks()
        attempted += len(extra)
        failures += [name for name, ok in extra if not ok]
        outcomes = probes.run_probes(generate_day(1440, args.seed))
        report["probes"] = outcomes
        crashed = {name: outcome for name, outcome in outcomes.items() if outcome != "ok"}

        if args.trace == 0:
            metrics = {
                "setup_s": (median(setup_times), "s"),
                "sweep_cal": (median(t / cal for t, cal in passes), "cal"),
                "peak_rss_mb": (peak_mb, "MB"),
                "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
                "probe_passes": (len(outcomes) - len(crashed), "count"),
            }
            detail = {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            }
            detail["setup_s"]["samples"] = len(setup_times)
            detail["sweep_cal"]["samples"] = len(passes)
            detail["sweep_s"] = {"value": median(t for t, _ in passes), "unit": "s", "samples": len(passes)}
            detail["cal_slice_s"] = {"value": median(cal for _, cal in passes), "unit": "s"}
            detail["error_ratio"] = {"value": len(failures) / attempted, "unit": "ratio", "attempted": attempted}
            detail["probe_failures"] = {"value": len(crashed), "unit": "count", "crashed": crashed}
            for kind in wl.latency_kinds:
                for name, value in percentile_stats(kind, by_kind[kind]).items():
                    detail[name] = {"value": value, "unit": "s", "samples": len(by_kind[kind])}
            report["metrics"] = detail
        else:
            layer_metrics, problems = layers.measure(args.seed, workdir, tracer)
            attempted += len(layers.CHECK_CASES)
            failures += problems
            metrics.update(layer_metrics)
            own = tracer.self_seconds()
            for module in LAYERS:
                metrics[f"self_s.{module}"] = (own.get(module, 0.0), "s")
            traced = median(t for t, _ in by_tracer[id(tracer)])
            metrics["trace.sweep_s"] = (traced, "s")
            metrics["trace.overhead_s"] = (traced - median(t for t, _ in by_tracer[id(null)]), "s")
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
            tracer.write(spans_path)
            report["spans"] = {"file": str(spans_path.relative_to(common.ROOT)), "count": len(tracer.spans)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["unverified"] = wl.unverified
    report["failures"] = failures[:20]
    print(json.dumps(report))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
