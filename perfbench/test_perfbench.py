"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

Each runs a smoke-size slice of a workload (cheap jobs only) so the whole
file finishes in well under a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as B

sys.path.insert(0, B.SRC)

import bench_jobs as J  # noqa: E402

SMOKE = {
    "moments-wide": ["moment3.n5.gaussian", "moment3.n5.semicircle", "noniid.semicircle_repeated.offdiag3",
                     "joint.n6.gaussian.011", "fmt.n5.semicircle", "kernels.profile.d3.n10",
                     "item1.cli_moment_half"],
    "exact-deep": ["count.nc_pairings.12", "respectful.noncrossing.2x6", "moebius.nc9.shape1", "laws.build.free.0",
                   "laws.cumulant.classical.7", "deep.d2n3m5.semicircle", "wick.h2.d2n3m3.free", "hankel.gaussian",
                   "gops.det.gaussian", "quadrature.gaussian", "discriminant.lu_gaussian.grid",
                   "item1.discriminant_N4_k2_quadrature"],
    "montecarlo": ["self_test.rademacher.0", "sample.offdiag16.gaussian", "w1.two_sample.0",
                   "invariance.star.0", "kstat.compound_poisson.k3.100x400"],
}


def refs():
    with open(B.REFERENCES) as fh:
        return json.load(fh)


def smoke_jobs(workload, seed=0, references=None):
    workdir = os.path.join(B.RESULTS, "work")
    os.makedirs(workdir, exist_ok=True)
    jobs = J.build(workload, J.Ctx(seed, references if references is not None else refs(), workdir))
    by_name = {job.name: job for job in jobs}
    return [by_name[name] for name in SMOKE[workload]]


def smoke_run(workload, seed=0, trace=False, references=None):
    jobs = smoke_jobs(workload, seed, references)
    tracer = B.Tracer() if trace else None
    before = B.cache_counters()
    samples, observed, failures, attempted, _ = B.closed_loop(jobs, 0.0, tracer)
    if trace:
        return B.per_layer(jobs, samples, observed, tracer, [0.1], before, B.cache_counters()), failures
    return B.end_to_end(jobs, samples, failures, attempted, [0.1]), failures


def test_benchmark_json_lists_every_metric_with_its_unit():
    with open(os.path.join(B.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(B.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(B.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(B.WORKLOADS) == list(J.JOB_LISTS)


@pytest.mark.parametrize("workload", B.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    e2e, failures = smoke_run(workload)
    assert not failures
    assert set(e2e) == {name for name, _ in B.END_TO_END}
    assert e2e["ok_share"] == 1.0 and e2e["wall_s"] > 0
    layers, failures = smoke_run(workload, seed=3, trace=True)
    assert not failures
    assert list(layers) == [name for name, _ in B.PER_LAYER]
    assert all(isinstance(v, (int, float)) for v in layers.values())


def test_corrupted_reference_raises_the_error_share():
    bad = refs()
    key = "moment3.n5.gaussian"
    bad[key] = copy.deepcopy(bad[key])
    bad[key][1] = "12345/1"
    e2e, failures = smoke_run("moments-wide", references=bad)
    assert {name for name, _ in failures} == {key}
    assert e2e["ok_share"] < 1.0


def test_end_to_end_takes_each_jobs_median_execution_at_reference_speed():
    jobs = smoke_jobs("moments-wide")  # item1.cli_moment_half is a CLI job
    # at half, full and a third of the reference speed: 0.1, 0.15 and 0.12 s at reference speed
    runs = [(0.2, 2 * B.PROBE_REF_S), (0.15, B.PROBE_REF_S), (0.36, 3 * B.PROBE_REF_S)]
    samples = [[(t, False, i, probe) for i, (t, probe) in enumerate(runs)] for _ in jobs]
    e2e = B.end_to_end(jobs, samples, [], 3 * len(jobs), [0.5])
    assert e2e["wall_s"] == pytest.approx(0.12 * len(jobs))
    assert e2e["job_p90_ms"] == pytest.approx(120)
    assert e2e["cli_p50_ms"] == pytest.approx(120)


def test_one_seed_gives_identical_counters_and_monte_carlo_outputs():
    counters = [name for name, unit in B.PER_LAYER if unit == "count"]
    for workload in B.WORKLOADS:
        first, _ = smoke_run(workload, seed=7, trace=True)
        second, _ = smoke_run(workload, seed=7, trace=True)
        assert {k: first[k] for k in counters} == {k: second[k] for k in counters}
    outs = [[job.run(B.direct) for job in smoke_jobs("montecarlo", seed=7)] for _ in range(2)]
    for a, b in zip(*outs):
        assert output_digest(a) == output_digest(b)


def output_digest(out):
    if isinstance(out, np.ndarray):
        return J.R.digest(out.tobytes())
    return J.R.digest(json.dumps(out, sort_keys=True, default=repr))


def test_named_cases_are_jobs_and_every_long_case_is_named():
    workdir = os.path.join(B.RESULTS, "work")
    os.makedirs(workdir, exist_ok=True)
    jobs = {job.name: job for workload in B.WORKLOADS for job in J.build(workload, J.Ctx(1, refs(), workdir))}
    named = {name[len("job."):-len("_s")] for name, _ in B.PER_LAYER if name.startswith("job.item1.")}
    assert named <= set(jobs)
    assert {name for name, job in jobs.items() if job.long_case} <= named


def test_default_seed_checks_monte_carlo_digests():
    jobs = smoke_jobs("montecarlo", seed=J.DEFAULT_SEED)
    job = jobs[0]
    job.check(job.run(B.direct))
    bad = refs()
    bad[f"digest.{job.name}"] = "0" * 20
    job = smoke_jobs("montecarlo", seed=J.DEFAULT_SEED, references=bad)[0]
    with pytest.raises(J.R.Mismatch):
        job.check(job.run(B.direct))


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(B.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(B.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "montecarlo", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
