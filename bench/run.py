"""Closed-loop benchmark of the wlift package.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client runs a workload's fixed trial pool back to back through the
public wlift API (see README.md for the workloads and why each exists).
`--seed` sets the order in which the pool is run; `--base-seed` (default
0) picks the instance family, and only base seed 0 has recorded
reference outcomes. Every run checks each trial's outcome against the
reference, prints every metric with its unit and sample count, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
runs one untraced and one traced pass and reports the per-layer metrics.
`--record` rewrites the workload's entry in reference.json instead.
The exit code is 0 only when every outcome matches.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# One BLAS thread per process, here and in every child, so phase_cli's two
# pool workers use the two cores without oversubscribing them.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
WORKLOADS = ("band_identity", "band_two_stage", "noisy_easy", "phase_cli")

E2E = {  # name -> unit; failed_frac is printed but is 0 on a healthy run
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_p90_ms": "ms",
    "success_rate": "frac",
    "failed_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
E2E_REPORTED = [name for name in E2E if name != "failed_frac"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="order in which the trial pool is run")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure at least this long (and one whole pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base-seed", type=int, default=0,
                   help="instance family; only 0 has reference outcomes")
    p.add_argument("--record", action="store_true",
                   help="record this workload's reference outcomes")
    return p.parse_args(argv)


def percentile(values, q):
    """Linear-interpolated q-th percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


def run_child(cmd, cwd):
    """Run a child as a process-group leader; (exit code, wall s, stdout)."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{cmd[1]} timed out") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(err)
    return proc.returncode, wall, out


def setup_seconds(workload, work):
    """Median set-up time over fresh interpreters, at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        code, _, out = run_child([sys.executable, str(BENCH / "setup_probe.py"),
                                  str(SRC), workload], work)
        if code != 0:
            raise RuntimeError("set-up probe failed")
        times.append(float(out.split()[-1]))
    return statistics.median(times), len(times)


def load_reference(workload, base_seed):
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None or entry["base_seed"] != base_seed:
        return None
    if workload == "phase_cli":
        return entry["dat"]
    errors = entry["errors"]
    return [[bit == "1", errors.get(str(i))]
            for i, bit in enumerate(entry["success"])]


def store_reference(workload, entry):
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref[workload] = entry
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


class Loop:
    """Closed loop over a trial pool: per-trial times, outcomes and checks.

    `kernel` times the machine-speed reference (see speed.py) between
    trials; `samples` holds each trial's times at reference speed and
    `raw` its wall times.
    """

    def __init__(self, workloads, items, reference, kernel):
        self.wl = workloads
        self.items = items
        self.reference = reference
        self.kernel = kernel
        self.samples = [[] for _ in items]
        self.raw = [[] for _ in items]
        self.first = [None] * len(items)   # (success, code, value)
        self.outcomes = []                 # (index, success, code)

    def run_one(self, i):
        (success, code, value), wall, scaled = self.kernel.timed(
            self.wl.execute, self.items[i])
        self.raw[i].append(wall)
        self.samples[i].append(scaled)
        self.outcomes.append((i, success, code))
        if self.first[i] is None:
            self.first[i] = (success, code, value)

    def run_pass(self, order):
        for i in order:
            self.run_one(i)

    def run_for(self, seconds, rng):
        """Whole first pass, then more trials until `seconds` have passed."""
        start = time.perf_counter()
        n = len(self.items)
        while True:
            for i in rng.sample(range(n), n):
                if (None not in self.first
                        and time.perf_counter() - start >= seconds):
                    return
                self.run_one(i)

    def failed(self):
        return len(self.wl.compare(self.outcomes, self.reference))

    def problems(self, workload):
        values = [v for _, _, v in self.first]
        return self.wl.pool_check(workload, self.items, values)


def latency_metrics(per_trial, count):
    """trials_per_s and p50/p90 latency from per-trial seconds."""
    ms = [1e3 * s for s in per_trial]
    return {"trials_per_s": (len(per_trial) / sum(per_trial), count),
            "trial_p50_ms": (percentile(ms, 50), count),
            "trial_p90_ms": (percentile(ms, 90), count)}


def in_process(args, workloads, kernel, reference, rng, work):
    import speed
    items = workloads.pool(args.workload, args.base_seed)
    loop = Loop(workloads, items, reference, kernel)
    # Trials, the kernel and its sampler share one core, so the kernel
    # times the core the trials run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with speed.Sampler(kernel):
        if args.trace:
            return traced_in_process(loop, rng)
        loop.run_for(args.seconds, rng)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup, setup_n = setup_seconds(args.workload, work)
    n = len(items)
    e2e = latency_metrics([statistics.median(s) for s in loop.samples], n)
    e2e.update({
        "success_rate": (sum(s for s, _, _ in loop.first) / n, n),
        "failed_frac": (loop.failed() / len(loop.outcomes), len(loop.outcomes)),
        "setup_s": (setup, setup_n),
        "peak_rss_mb": (rss, 1),
    })
    raw = latency_metrics([statistics.median(s) for s in loop.raw], n)
    print(f"executions {len(loop.outcomes)} over {n} trials")
    return loop, e2e, raw, None


def traced_in_process(loop, rng):
    import spans
    n = len(loop.items)
    loop.run_pass(rng.sample(range(n), n))
    tracer = spans.Tracer()
    tracer.install()
    try:
        loop.run_pass(rng.sample(range(n), n))
    finally:
        tracer.uninstall()
    untraced = sum(s[0] for s in loop.samples)
    traced = sum(s[1] for s in loop.samples)
    records = spans.flatten([tracer.spans])
    return loop, None, None, (records, traced, untraced, None)


def phase_run(args, workloads, kernel, reference, work, traced):
    """One `wlift phase` invocation.

    Returns (seconds at reference speed, wall seconds, failed trials,
    .dat text).
    """
    import speed
    cfg = work / "phase.json"
    cfg.write_text(json.dumps(workloads.phase_config(args.base_seed)))
    out = work / "phase.dat"
    out.unlink(missing_ok=True)
    cli = ["phase", "--config", str(cfg), "--out", str(out),
           "--workers", str(workloads.PHASE_WORKERS)]
    if traced:
        span_dir = work / "spans"
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir()
        cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(span_dir), *cli]
    else:
        cmd = [sys.executable, "-m", "wlift.cli", *cli]
    with speed.Sampler(kernel):
        (code, _, _), wall, scaled = kernel.timed(run_child, cmd, work)
    dat = out.read_text() if code == 0 and out.is_file() else ""
    failed = workloads.phase_check(dat, reference)
    return scaled, wall, failed, dat


def phase_cli(args, workloads, kernel, reference, work):
    per_run = workloads.phase_trials()
    if args.trace:
        untraced, _, bad, dat = phase_run(args, workloads, kernel, reference,
                                          work, False)
        traced, wall, bad2, dat2 = phase_run(args, workloads, kernel,
                                             reference, work, True)
        import spans
        records = spans.flatten(spans.load_dumps(work / "spans"))
        return ((per_run * 2, bad + bad2, [dat, dat2]), None, None,
                (records, traced, untraced, wall))
    scaled, walls, failed, dats = [], [], 0, []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        s, wall, bad, dat = phase_run(args, workloads, kernel, reference,
                                      work, False)
        scaled.append(s)
        walls.append(wall)
        failed += bad
        dats.append(dat)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setup, setup_n = setup_seconds(args.workload, work)
    attempted = per_run * len(walls)

    def invocation_metrics(times):
        # The request a CLI user waits for is one invocation, so its
        # latency stands in for the per-trial latency here.
        ms = [1e3 * t for t in times]
        return {"trials_per_s": (per_run / statistics.median(times),
                                 len(times)),
                "trial_p50_ms": (percentile(ms, 50), len(times)),
                "trial_p90_ms": (percentile(ms, 90), len(times))}

    e2e = invocation_metrics(scaled)
    e2e.update({
        "success_rate": (workloads.phase_success_rate(dats[0])
                         if dats[0] else 0.0, per_run),
        "failed_frac": (failed / attempted, attempted),
        "setup_s": (setup, setup_n),
        "peak_rss_mb": (rss, len(walls)),
    })
    print(f"invocations {len(walls)} of {per_run} trials")
    return (attempted, failed, dats), e2e, invocation_metrics(walls), None


def layer_report(workloads, records, traced, untraced, cli_wall):
    import spans
    all_cells = sorted({c for w in WORKLOADS for c in workloads.cells(w)})
    metrics, cell_time = spans.layer_metrics(records, all_cells)
    efficiency = (sum(cell_time.values()) / workloads.PHASE_WORKERS / cli_wall
                  if cli_wall else 0.0)
    metrics["cli.parallel_efficiency"] = (efficiency, "ratio")
    metrics["trace_overhead_frac"] = (traced / untraced - 1.0, "frac")
    return metrics


def record(args, workloads, kernel, work):
    if args.workload == "phase_cli":
        _, _, failed, dat = phase_run(args, workloads, kernel, None, work,
                                      False)
        if failed:
            raise RuntimeError("phase run failed; nothing recorded")
        entry = {"base_seed": args.base_seed, "dat": dat}
    else:
        items = workloads.pool(args.workload, args.base_seed)
        loop = Loop(workloads, items, None, kernel)
        loop.run_pass(range(len(items)))
        if loop.failed() or loop.problems(args.workload):
            raise RuntimeError("trials failed; nothing recorded")
        entry = {"base_seed": args.base_seed,
                 "success": "".join("1" if s else "0" for s, _, _ in loop.first),
                 "errors": {}}
    store_reference(args.workload, entry)
    print(f"recorded {args.workload} at base seed {args.base_seed}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wlift" / "__init__.py").is_file():
        sys.stderr.write(f"no wlift sources under {SRC}\n")
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import speed
    import workloads

    kernel = speed.Kernel()
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.record:
            return record(args, workloads, kernel, work)
        return measure(args, workloads, kernel, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, workloads, kernel, work):
    rng = random.Random(args.seed)
    reference = load_reference(args.workload, args.base_seed)
    print(f"workload {args.workload} seed {args.seed} "
          f"base_seed {args.base_seed} trace {args.trace} "
          f"reference {'yes' if reference is not None else 'none'}")
    problems = []
    if args.workload == "phase_cli":
        (attempted, failed, dats), e2e, raw, layer = phase_cli(
            args, workloads, kernel, reference, work)
        if reference is None:
            for line in dats[0].splitlines():
                print(f"dat {line}")
    else:
        workloads.setup(args.workload)
        loop, e2e, raw, layer = in_process(args, workloads, kernel,
                                           reference, rng, work)
        attempted, failed = len(loop.outcomes), loop.failed()
        problems = loop.problems(args.workload)
        bad = set(workloads.compare(loop.outcomes, reference))
        for i, (success, code, value) in enumerate(loop.first):
            if reference is None or i in bad:
                print(f"outcome {i} {loop.items[i].label()} "
                      f"success={int(success)} code={code} error={value:.3e}")
    for p in problems:
        print(f"check failed: {p}")
    if layer is None:
        metrics = {}
        for name, (value, count) in e2e.items():
            print(f"metric {name} {value:.6g} {E2E[name]} n={count}")
            if name in E2E_REPORTED:
                metrics[name] = {"value": value, "unit": E2E[name]}
        for name, (value, count) in raw.items():
            print(f"wall {name} {value:.6g} {E2E[name]} n={count} "
                  "(not scaled to reference speed)")
    else:
        metrics = {}
        for name, (value, unit) in layer_report(workloads, *layer).items():
            print(f"layer {name} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
