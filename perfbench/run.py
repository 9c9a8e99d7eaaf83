#!/usr/bin/env python3
"""homsum benchmark: one closed-loop client running a workload's job list.

    python3 perfbench/run.py --workload moments-wide --seed 0 --seconds 30 --trace 0

Run from the root of a homsum checkout.  The client starts each job only
after the previous one returned and cycles through the job list until the
time is up (the first pass always completes).  Every output is checked
against its reference.  A small fixed speed probe runs around every job, and
end-to-end timings are scaled by it to a reference host speed, because a
shared host's speed drifts by a third or more.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` a separate traced run's per-layer metrics; the traced run also
times the workload's long cases (jobs over a second alone), outside the loop.  The last line of
stdout is the JSON result; the run's details (environment, per-job
latencies, spans, cache counters) go to ``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP threads to the CPUs this process may use, before numpy loads;
# CLI children inherit the environment.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_PROBES = 5
PROBE_REF_S = 0.00075  # the speed probe's time at the reference speed end-to-end timings are scaled to
CASE_REPEATS = 3  # executions of each long case in the traced run
WORKLOADS = ("moments-wide", "exact-deep", "montecarlo")

# (name, unit) of every metric; BENCHMARK.json lists the same names.
END_TO_END = (
    ("wall_s", "s"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("cli_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.exec_ms", "ms"),
    ("partitions.busy_s", "s"), ("partitions.calls", "count"), ("partitions.yielded", "count"),
    ("partitions.yield_per_s", "1/s"), ("partitions.moebius_s", "s"),
    ("laws.busy_s", "s"), ("laws.calls", "count"), ("laws.class_cache_hit_ratio", "share"),
    ("kernels.busy_s", "s"), ("kernels.pairs_visited", "count"), ("kernels.pairs_per_s", "1/s"),
    ("moments.busy_s", "s"), ("moments.calls", "count"), ("moments.partitions_used", "count"),
    ("moments.assignments", "count"), ("moments.assignments_per_s", "1/s"),
    ("moments.blocks_cache_hit_ratio", "share"),
    ("orthopoly.busy_s", "s"), ("orthopoly.det_s", "s"), ("orthopoly.expectation_s", "s"),
    ("orthopoly.expansion_s", "s"), ("orthopoly.numeric_s", "s"), ("orthopoly.perm_terms", "count"),
    ("orthopoly.quad_points", "count"), ("orthopoly.max_residual", "1"),
    ("stochsim.busy_s", "s"), ("stochsim.sample_s", "s"), ("stochsim.kstat_s", "s"), ("stochsim.levy_s", "s"),
    ("stochsim.draws", "count"), ("stochsim.draws_per_s", "1/s"), ("stochsim.streams", "count"),
    ("stochsim.max_abs_z", "1"),
    ("trace.overhead_share", "share"), ("trace.unattributed_s", "s"),
    ("job.p50_ms", "ms"),
) + tuple((f"job.{name}_s", "s") for name in (
    "item1.bell11", "item1.nc12", "item1.nc_moebius_bottom8", "item1.q4_offdiag9_gaussian",
    "item1.discriminant_N4_k2_expansion", "item1.discriminant_N4_k2_quadrature",
    "item1.kstat_1000x800", "item1.cli_moment_half",
))
LAYERS = ("cli", "partitions", "laws", "kernels", "moments", "orthopoly", "stochsim")
# span names whose time each per-layer sub-timer collects
SUBTIMERS = {
    "partitions.moebius_s": ("partitions.moebius_to_top",),
    "orthopoly.det_s": ("orthopoly.hankel_det", "orthopoly.exact_det", "orthopoly.gops_determinant",
                        "orthopoly.multi_gops_determinant"),
    "orthopoly.expectation_s": ("orthopoly.gops_expectation",),
    "orthopoly.expansion_s": ("orthopoly.discriminant_moment.expansion", "orthopoly.sylvester_decompose.discriminant"),
    "orthopoly.numeric_s": ("orthopoly.quadrature_rule", "orthopoly.discriminant_moment.quadrature",
                            "orthopoly.sylvester_decompose.appel"),
    "stochsim.sample_s": ("stochsim.sample_homsum", "stochsim.moment_self_test", "stochsim.invariance_decay_experiment"),
    "stochsim.kstat_s": ("stochsim.kstat_experiment",),
    "stochsim.levy_s": ("stochsim.variations_cumulant_check",),
}
RATES = {
    "partitions.yield_per_s": ("partitions.yielded", "partitions.busy_s"),
    "kernels.pairs_per_s": ("kernels.pairs_visited", "kernels.busy_s"),
    "moments.assignments_per_s": ("moments.assignments", "moments.busy_s"),
    "stochsim.draws_per_s": ("stochsim.draws", "stochsim.busy_s"),
}
CACHES = (
    ("moments", "_respectful_blocks"), ("partitions", "_block_index_cached"), ("moments", "_nc_blocks"),
    ("laws", "_partition_classes"), ("orthopoly", "_perm_sign"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(workload: str, seed: int):
    """Import the package, build the laws, kernels and jobs, load the references.

    Returns (jobs, seconds spent importing homsum.cli, seconds in total).
    """
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import homsum  # noqa: F401
    import homsum.cli  # noqa: F401
    t_import = time.perf_counter() - t0
    import bench_jobs

    with open(REFERENCES) as fh:
        refs = json.load(fh)
    workdir = os.path.join(RESULTS, "work")
    os.makedirs(workdir, exist_ok=True)
    jobs = bench_jobs.build(workload, bench_jobs.Ctx(seed, refs, workdir))
    return jobs, t_import, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Set up SETUP_PROBES times, each in a fresh process, one after the other.

    Returns the set-up times, the import times and the speed probe's time around each set-up.
    """
    totals, imports, probes = [], [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        totals.append(rec["setup_s"])
        imports.append(rec["import_s"])
        probes.append(rec["probe_s"])
    return totals, imports, probes


def _probe_work() -> int:
    """A fixed slice of interpreter-bound work like the package's: integer fractions, tuple keys, dicts."""
    num, den, table = 0, 1, {}
    for i in range(1, 300):
        num, den = num * i + (i % 7 + 1) * den, den * i
        g = math.gcd(num, den)
        num, den = num // g, den // g
        key = (i % 13, i % 17, i % 19)
        table[key] = table.get(key, 0) + i
    return num + len(sorted(table.items()))


def probe_s() -> float:
    """Seconds the speed probe takes now, the better of two tries."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


EXECUTION_IDS = itertools.count(1)


class Tracer:
    """Spans kept in memory: (name, start, end, job execution id, parent)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.execution = -1

    def call(self, op, fn, *args, **kw):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.spans.append((op, t0, time.perf_counter(), self.execution, "job"))


def direct(op, fn, *args, **kw):
    return fn(*args, **kw)


def execute(job, call):
    """Run one job and return its output; a CLI job's output is (exit code, stdout)."""
    if job.argv is None:
        return job.run(call)
    proc = call(f"cli.{job.argv[3]}", subprocess.run, job.argv, env=child_env(), cwd=ROOT,
                capture_output=True, text=True, timeout=150)
    return proc.returncode, proc.stdout


def run_once(job, tracer, samples, observed, failures) -> None:
    """Execute and check one job, appending (latency, traced, execution id, probe seconds) to ``samples``.

    The speed probe runs just before and just after the job, outside its timed
    region; their mean is the host's speed while the job ran.
    """
    exec_id = next(EXECUTION_IDS)
    call = direct
    if tracer is not None:
        tracer.execution = exec_id
        call = tracer.call
    probe_before = probe_s()
    t0 = time.perf_counter()
    try:
        out = execute(job, call)
    except Exception:
        out = None
        failures.append((job.name, traceback.format_exc(limit=3)))
    t1 = time.perf_counter()
    samples.append((t1 - t0, tracer is not None, exec_id, (probe_before + probe_s()) / 2))
    if tracer is not None:
        tracer.spans.append((f"job.{job.name}", t0, t1, exec_id, None))
    if out is not None:
        try:
            obs = job.check(out)
        except Exception as e:
            failures.append((job.name, f"{type(e).__name__}: {e}"))
        else:
            for k, v in (obs or {}).items():
                observed[k] = max(observed.get(k, v), v)


def closed_loop(jobs, seconds: float, tracer: Tracer | None):
    """Cycle through the job list until the time is up; the first pass always completes.

    With a tracer, even passes are traced and odd passes are not, so the same
    run measures the tracing overhead.  Returns, per job, its samples as
    (seconds, traced, execution id, probe seconds).
    """
    samples = [[] for _ in jobs]  # (seconds, traced, execution id, probe seconds)
    observed: dict = {}
    failures: list = []
    attempted = 0
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 0
        for j, job in enumerate(jobs):
            if passes and time.perf_counter() + samples[j][-1][0] > deadline:
                return samples, observed, failures, attempted, time.perf_counter() - start
            attempted += 1
            run_once(job, tracer if traced else None, samples[j], observed, failures)
        passes += 1
        if time.perf_counter() >= deadline:
            return samples, observed, failures, attempted, time.perf_counter() - start


def run_cases(cases, tracer: Tracer, observed, failures):
    """Run each long case CASE_REPEATS times, traced, one after the other."""
    samples = [[] for _ in cases]
    for _ in range(CASE_REPEATS):
        for job, smp in zip(cases, samples):
            run_once(job, tracer, smp, observed, failures)
    return samples


def at_reference_speed(seconds: float, probe: float) -> float:
    """A time measured while the speed probe took ``probe`` seconds, scaled to the reference speed."""
    return seconds * PROBE_REF_S / probe


def end_to_end(jobs, samples, failures, attempted, setup_times) -> dict:
    """End-to-end metrics from each job's median latency, at reference speed, over its executions in the run.

    A shared host's speed swings by a third or more, in spells from a second to
    minutes, so each execution is scaled by the speed probe run around it.
    Percentiles are taken over the jobs.  ``setup_times`` are already at
    reference speed.
    """
    latency = [statistics.median(at_reference_speed(s[0], s[3]) for s in smp) for smp in samples]
    cli = [t for job, t in zip(jobs, latency) if job.argv is not None]
    return {
        "wall_s": sum(latency),
        "job_p90_ms": 1000 * statistics.quantiles(latency, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setup_times),
        "cli_p50_ms": 1000 * statistics.median(cli) if cli else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1.0 - len(failures) / attempted,
    }


def cache_counters() -> dict:
    import importlib

    out = {}
    for mod, name in CACHES:
        info = getattr(importlib.import_module(f"homsum.{mod}"), name).cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out


def hit_ratio(before: dict, after: dict, name: str) -> float:
    hits = after[name]["hits"] - before[name]["hits"]
    misses = after[name]["misses"] - before[name]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def cli_exec_ms(jobs) -> float:
    """Median in-process time of the workload's CLI commands (no interpreter start, no import)."""
    from homsum import cli

    times = []
    for job in jobs:
        if job.argv is None:
            continue
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.run(job.argv[3:])
                times.append(time.perf_counter() - t0)
        finally:
            os.chdir(cwd)
    return 1000 * statistics.median(times) if times else 0.0


def per_layer(jobs, samples, observed, tracer: Tracer, import_times, caches_before, caches_after) -> dict:
    """Per-layer metrics of one job list, from the traced executions.

    Times and call counts are sums over the closed-loop jobs of each job's
    median over its traced executions; the other counts are computed from the
    inputs, for one pass of the list.  A long case gives only its own
    ``job.<name>_s``.
    """
    by_exec: dict = {}
    for span in tracer.spans:
        by_exec.setdefault(span[3], []).append(span)
    op_time = lambda spans, names: sum(e - s for n, s, e, _, p in spans if p and n in names)
    layer_time = lambda spans, layer: sum(e - s for n, s, e, _, p in spans if p and n.split(".")[0] == layer)
    layer_calls = lambda spans, layer: sum(1 for n, _, _, _, p in spans if p and n.split(".")[0] == layer)
    m = {name: 0.0 for name, _ in PER_LAYER}
    traced_total = untraced_total = 0.0
    for job, smp in zip(jobs, samples):
        if f"job.{job.name}_s" in m:
            m[f"job.{job.name}_s"] = statistics.median(x[0] for x in smp if x[1])
        if job.long_case:
            continue
        traced = [by_exec.get(x[2], []) for x in smp if x[1]]
        plain = [x[0] for x in smp if not x[1]]
        if traced:
            for layer in LAYERS:
                m[f"{layer}.busy_s"] = m.get(f"{layer}.busy_s", 0.0) + statistics.median(layer_time(s, layer) for s in traced)
                m[f"{layer}.calls"] = m.get(f"{layer}.calls", 0) + statistics.median(layer_calls(s, layer) for s in traced)
            for metric, names in SUBTIMERS.items():
                m[metric] += statistics.median(op_time(s, names) for s in traced)
            job_spans = [[e - s for n, s, e, _, p in sp if p is None] for sp in traced]
            unattributed = [sum(js) - sum(e - s for n, s, e, _, p in sp if p) for js, sp in zip(job_spans, traced)]
            m["trace.unattributed_s"] += statistics.median(unattributed)
            if plain:
                traced_total += statistics.median(sum(js) for js in job_spans)
                untraced_total += statistics.median(plain)
        for k, v in job.work().items():
            m[k] = m.get(k, 0) + v
    for rate, (num, den) in RATES.items():
        m[rate] = m[num] / m[den] if m[den] else 0.0
    m.update(observed)
    m["trace.overhead_share"] = traced_total / untraced_total - 1.0 if untraced_total else 0.0
    m["job.p50_ms"] = 1000 * statistics.median(statistics.median(x[0] for x in smp)
                                               for job, smp in zip(jobs, samples) if not job.long_case)
    m["cli.import_s"] = statistics.median(import_times)
    m["cli.exec_ms"] = cli_exec_ms(jobs)
    m["laws.class_cache_hit_ratio"] = hit_ratio(caches_before, caches_after, "_partition_classes")
    m["moments.blocks_cache_hit_ratio"] = hit_ratio(caches_before, caches_after, "_respectful_blocks")
    return {name: m[name] for name, _ in PER_LAYER}


def environment() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "homsum")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "nproc": NPROC,
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details)."""
    setup_raw, import_times, setup_probes = probe_setup(workload, seed)
    setup_times = [at_reference_speed(t, p) for t, p in zip(setup_raw, setup_probes)]
    all_jobs, _, _ = setup(workload, seed)
    jobs = [job for job in all_jobs if not job.long_case]
    cases = [job for job in all_jobs if job.long_case]
    tracer = Tracer() if trace else None
    caches_before = cache_counters()
    samples, observed, failures, attempted, elapsed = closed_loop(jobs, seconds, tracer)
    caches_after = cache_counters()
    if trace:
        samples += run_cases(cases, tracer, observed, failures)
        jobs += cases
        attempted += CASE_REPEATS * len(cases)
        metrics = per_layer(jobs, samples, observed, tracer, import_times, caches_before, caches_after)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(jobs, samples, failures, attempted, setup_times)
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "measured_s": elapsed,
        "setup_probe_s": setup_raw,
        "setup_speed_probe_s": setup_probes,
        "jobs": {job.name: [s[0] for s in smp] for job, smp in zip(jobs, samples)},
        "probes": {job.name: [s[3] for s in smp] for job, smp in zip(jobs, samples)},
        "failures": failures,
        "caches": {"before": caches_before, "after": caches_after},
        "result": result,
    }
    if trace:
        details["spans"] = [{"name": n, "start": s, "end": e, "job": j, "parent": p} for n, s, e, j, p in tracer.spans]
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homsum", "__init__.py")):
        sys.stderr.write(f"error: no homsum package under {SRC}; run from a homsum checkout\n")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        sys.stderr.write("error: need --seed >= 0 and --seconds > 0\n")
        return 2
    if args.setup_probe:
        probe_before = probe_s()
        _, t_import, t_total = setup(args.workload, args.seed)
        probe = (probe_before + probe_s()) / 2
        print(json.dumps({"setup_s": t_total, "import_s": t_import, "probe_s": probe}))
        return 0
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    for name, tb in details["failures"][:5]:
        sys.stderr.write(f"FAILED {name}: {tb}\n")
    print(json.dumps({"environment": details["environment"], "details": os.path.relpath(out, ROOT)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
