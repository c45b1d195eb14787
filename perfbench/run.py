"""Benchmark of the authdesigns pipeline: verify -> balance -> analyze.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each is there):

* ``cli-pipeline``  - one CLI subprocess per command: catalog export, build,
  attack, verify, on seven catalog entries;
* ``attack-cyclic`` - exact attacks in-process on developed cyclic families;
* ``build-generic`` - verify, balance and attack relabelled designs that have
  no translation symmetry.

The loop is closed with one client: it runs whole passes over the workload's
fixed inputs, one job at a time, until S seconds have gone by and at least
MIN_JOBS jobs are done.  Every job's output is checked against
``reference.py``.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` the calls into the
package are traced and it carries the per-layer metrics instead.  Details of
the run go to ``.perfbench/`` at the root of the checkout.  The exit code is
0 when every check passed, 1 when one failed and 2 when the package source
is missing.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from calibration import pin_to_one_cpu, timed
from quantile import harrell_davis
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, CheckFailed, make_workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# enough jobs that the 90th percentile has ten samples beyond it
MIN_JOBS = 100
SETUP_REPEATS = 11

LAYER_TIMES = (
    "analysis.online_s", "analysis.online.o0_s", "analysis.online.o1_s",
    "analysis.online.o2_s",
    "analysis.deception_s", "analysis.deception.o0_s",
    "analysis.deception.o1_s", "analysis.deception.o2_s",
    "analysis.deception.o3_s",
    "analysis.offline_s", "analysis.secrecy_s",
    "balancing.split_points_s", "balancing.edge_color_s",
    "balancing.verify_balanced_s", "balancing.matrix_from_json_s",
    "designs.verify_design_s",
    "cli.import_s", "cli.export_s", "cli.build_s", "cli.attack_classic_s",
    "cli.attack_oracle_s", "cli.verify_s",
    "fileio.load_json_s", "fileio.digest_s", "fileio.write_s",
    "apa.verify_apa_s",
    "catalog.load_payload_s", "difference_families.verify_df_s",
    "difference_families.develop_matrix_s", "difference_families.develop_s",
)
# metric -> (span field summed, unit)
LAYER_COUNTS = {
    "analysis.deception.subsets": ("subsets", "count"),
    "balancing.edges": ("edges", "count"),
    "fileio.bytes_written": ("bytes", "bytes"),
}


class Tally:
    def __init__(self):
        self.pass_times, self.job_times, self.raw_job_times = [], [], []
        self.attempted = self.failed = 0


def measure(workload, seconds, tracer, tally):
    """Whole passes, one job at a time, until ``seconds`` are over and
    MIN_JOBS jobs are done.  A job's time covers the program's work only,
    scaled to the reference speed (calibration.py); checks run between the
    timed parts."""
    start = time.perf_counter()
    pass_no = 0
    while True:
        gc.collect()
        if tracer is not None:
            tracer.pass_no = pass_no
        jobs = workload.pass_jobs(pass_no)
        pass_time = 0.0
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{pass_no}:{index}:{job.name}"
            output, elapsed, raw = timed(job.run)
            workload.after_job(output)
            if tracer is not None:
                tracer.scales[tracer.job] = elapsed / raw
            tally.attempted += 1
            tally.failed += job.check(output)
            tally.job_times.append(elapsed)
            tally.raw_job_times.append(raw)
            pass_time += elapsed
        tally.pass_times.append(pass_time)
        pass_no += 1
        if time.perf_counter() - start >= seconds and tally.attempted >= MIN_JOBS:
            return


def end_to_end(setup_times, pass_times, job_times, peak_rss_mb):
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "job_p50_s": (statistics.median(job_times), "s"),
        "job_p90_s": (harrell_davis(job_times, 0.9), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, passes):
    values = layer_metrics(
        tracer.spans, passes, LAYER_TIMES,
        {name: field for name, (field, _) in LAYER_COUNTS.items()},
        tracer.scales)
    return {name: (value, LAYER_COUNTS[name][1] if name in LAYER_COUNTS else "s")
            for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    tracer = Tracer() if args.trace else None
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = make_workload(args.workload, args.seed, tracer,
                                 OUT / f"work-{tag}-{os.getpid()}")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tally, setup_times, problem = Tally(), [], None
    try:
        setup_times = workload.setup_times(SETUP_REPEATS)
        measure(workload, args.seconds, tracer, tally)
    except CheckFailed as exc:
        problem = str(exc)
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        workload.close()

    metrics = {}
    if problem is None and tracer is None:
        metrics = end_to_end(setup_times, tally.pass_times, tally.job_times,
                             workload.peak_rss_mb())
    elif problem is None:
        metrics = per_layer(tracer, range(len(tally.pass_times)))
    OUT.mkdir(exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpus": os.cpu_count(), "attempted": tally.attempted,
        "failed": tally.failed, "problem": problem,
        "setup_times": setup_times, "pass_times": tally.pass_times,
        "job_times": tally.job_times, "raw_job_times": tally.raw_job_times,
        "metrics": metrics,
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT / f"trace-{tag}.json")
    print(json.dumps({
        "correct": problem is None, "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if problem is None else 1

if __name__ == "__main__":
    sys.exit(main())
