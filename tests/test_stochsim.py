import math
from fractions import Fraction as F

import numpy as np
import pytest

from homsum.kernels import build_kernel, offdiag_kernel, star_kernel
from homsum.laws import gaussian
from homsum.moments import SumSpec, moment_exact
from homsum.stochsim import (
    _stream,
    JumpPath,
    Sampler,
    compound_poisson_cell_sampler,
    compound_poisson_path,
    gaussian_cell_sampler,
    invariance_decay_experiment,
    kstat_experiment,
    sample_homsum,
    variation,
    variations_cumulant_check,
    wasserstein1_empirical,
)

HALF = build_kernel(2, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2))])


def test_stream_determinism():
    s = Sampler("gaussian", seed=42)
    assert np.array_equal(s.draw(64, task=3), s.draw(64, task=3))
    assert not np.array_equal(s.draw(64, task=4), s.draw(64, task=3))
    assert not np.array_equal(Sampler("gaussian", seed=43).draw(64, task=3), s.draw(64, task=3))
    assert np.array_equal(s.draw_from(_stream(42, 3), 64), s.draw(64, task=3))


@pytest.mark.parametrize(
    "law,params",
    [
        ("gaussian", {}),
        ("rademacher", {}),
        ("centered_poisson", {"lam": 2}),
        ("uniform_centered", {}),
        ("discrete", {"values": [-1, 0, 2], "probs": ["1/2", "1/4", "1/4"]}),
    ],
)
def test_sampler_moment_self_test(law, params):
    rep = Sampler(law, seed=7, params=params).moment_self_test(draws=100_000)
    assert rep["passed"], rep


def test_unknown_sampler_law():
    with pytest.raises(ValueError):
        Sampler("cauchy", seed=0)


def test_sample_homsum_basics():
    s = Sampler("gaussian", seed=1)
    zero = build_kernel(3, 2, [])
    assert np.all(sample_homsum(zero, s, 32) == 0)
    ident = build_kernel(3, 1, [((1,), F(1))])
    x = sample_homsum(ident, s, 100_000)
    assert wasserstein1_empirical(x) < 0.02  # identity statistic is standard normal


def test_mc_within_5se_of_exact():
    q = sample_homsum(HALF, Sampler("gaussian", seed=5), 200_000)
    for m in (2, 3, 4):
        exact = float(moment_exact(SumSpec(HALF, gaussian(1, 10)), m))
        vals = q**m
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 5 * se, (m, vals.mean(), exact, se)


def test_wasserstein_basics():
    x = np.arange(10.0)
    assert wasserstein1_empirical(x, x) == 0
    assert abs(wasserstein1_empirical(x, x + 3) - 3) < 1e-12
    # unequal sizes: exact W1 of the two empirical laws, no truncation
    assert wasserstein1_empirical(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0])) == pytest.approx(
        1 / 6, abs=1e-15
    )
    with pytest.raises(ValueError):
        wasserstein1_empirical(np.array([1.0]))


def test_wasserstein_unequal_sizes_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal(10_000), rng.standard_normal(20_000)
    w = wasserstein1_empirical(x, y)
    assert w == pytest.approx(scipy_stats.wasserstein_distance(x, y), rel=1e-9)
    assert w < 0.05
    for nx, ny in [(2, 3), (7, 5), (53, 37)]:
        a, b = rng.exponential(size=nx), rng.standard_normal(ny)
        assert wasserstein1_empirical(a, b) == pytest.approx(
            scipy_stats.wasserstein_distance(a, b), rel=1e-9
        )


def test_stream_rejects_seed_and_task_outside_32_bits():
    # seed + (task << 32) would alias (2^32, 0) onto (0, 1)
    for seed, task in [(2**32, 0), (-1, 0), (0, 2**32), (0, -1)]:
        with pytest.raises(ValueError):
            Sampler("gaussian", seed=seed).draw(4, task=task)
    top = Sampler("gaussian", seed=2**32 - 1).draw(4, task=2**32 - 1)
    assert top.shape == (4,)


def test_invariance_decay_offdiag_family():
    rows = invariance_decay_experiment(
        offdiag_kernel,
        Sampler("gaussian", seed=11),
        Sampler("rademacher", seed=12),
        sizes=[4, 8, 16],
        trials=4000,
    )
    assert [r["n"] for r in rows] == [4, 8, 16]
    for r, n in zip(rows, [4, 8, 16]):
        assert abs(r["tau"] - 2 / n) < 1e-9
        assert r["moment4_gap_exact"]
        assert r["moment2_gap"] == 0 and r["moment2_gap_exact"]
        assert r["moment3_gap"] == 0 and r["moment3_gap_exact"]
    gaps = [r["moment4_gap"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    # closed form: 96/n - 32/(n(n-1)) for gaussian-vs-rademacher
    for r, n in zip(rows, [4, 8, 16]):
        assert abs(r["moment4_gap"] - (96 / n - 32 / (n * (n - 1)))) < 1e-9


def test_invariance_decay_star_family_does_not_vanish():
    rows = invariance_decay_experiment(
        star_kernel,
        Sampler("gaussian", seed=21),
        Sampler("rademacher", seed=22),
        sizes=[4, 8],
        trials=2000,
    )
    assert all(abs(r["tau"] - 1.0) < 1e-9 for r in rows)
    assert min(r["moment4_gap"] for r in rows) > 0.5


def test_identical_samplers_zero_exact_gaps():
    rows = invariance_decay_experiment(
        offdiag_kernel,
        Sampler("gaussian", seed=31),
        Sampler("gaussian", seed=32),
        sizes=[4],
        trials=1000,
    )
    assert rows[0]["moment4_gap"] == 0 and rows[0]["moment4_gap_exact"]


def test_jump_paths():
    p0 = compound_poisson_path(0.0, Sampler("rademacher", seed=3), 0.0, 2.0, seed=9)
    assert variation(p0, 1) == 0 and variation(p0, 2) == 0 and variation(p0, 3) == 0
    p1 = compound_poisson_path(0.0, Sampler("rademacher", seed=3), 1.0, 2.0, seed=9)
    assert variation(p1, 2) == 2.0  # the sigma^2 t term exactly
    assert variation(p1, 3) == 0.0
    p2 = compound_poisson_path(3.0, Sampler("rademacher", seed=4), 0.0, 1.0, seed=10)
    assert all(t2 > t1 for t1, t2 in zip(p2.times, p2.times[1:]))
    assert variation(p2, 2) == sum(j**2 for j in p2.jumps)
    with pytest.raises(ValueError):
        JumpPath(1.0, (0.5, 0.5), (1.0, 1.0), 0.0, 1.0, 0.0)


def test_variation_third_moment_symmetric_jumps():
    v3 = np.array([
        variation(compound_poisson_path(2.0, Sampler("rademacher", seed=31), 0.0, 1.0, seed=100, task=p), 3)
        for p in range(4000)
    ])
    se = v3.std(ddof=1) / math.sqrt(len(v3))
    assert abs(v3.mean()) <= 5 * se


def test_variation_third_moment_positive_jumps():
    # half-normal jumps: lam T E[|N|^3] with E|N|^3 = 2 sqrt(2/pi)
    lam, T = 2.0, 1.0
    vals = []
    for p in range(4000):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(500 + p)))
        count = int(rng.poisson(lam * T))
        jumps = np.abs(rng.standard_normal(count)) if count else np.array([])
        vals.append(float(np.sum(jumps**3)))
    vals = np.array(vals)
    target = lam * T * 2 * math.sqrt(2 / math.pi)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 5 * se


def test_kstat_brownian_and_poisson_cells():
    rep = kstat_experiment(gaussian_cell_sampler, 1.0, 2, 100, 2000, 1.0, seed=17)
    assert rep["within_5se"], rep
    rep1 = kstat_experiment(gaussian_cell_sampler, 0.0, 1, 100, 1000, 1.0, seed=18)
    assert rep1["within_5se"]
    cell = compound_poisson_cell_sampler(2.0, lambda rng, c: rng.choice([-1.0, 1.0], size=c))
    rep3 = kstat_experiment(cell, 0.0, 3, 50, 2000, 1.0, seed=19)
    assert rep3["within_5se"], rep3


def test_kstat_refinement_trajectory():
    # the n = 2 Brownian statistic approaches T as N grows; report only
    ests = [
        kstat_experiment(gaussian_cell_sampler, 1.0, 2, N, 800, 1.0, seed=37)["estimate"]
        for N in (10, 100, 1000)
    ]
    assert all(abs(e - 1.0) < 0.5 for e in ests)


def test_stein_bound_dominates_mc_wasserstein():
    # experiment-style check at fixed seed: the quadratic Stein bound sits
    # above the Monte Carlo W1 estimate for the spread family.  At n = 9 the
    # classical normalization 1/sqrt(2n(n-1)) = 1/12 is rational, so the
    # admissible kernel is exact and the library bound applies directly.
    from homsum.kernels import offdiag_kernel as odk
    from homsum.moments import SumSpec as Spec, stein_wasserstein_bound

    f = odk(9, value=F(1, 12))
    spec = Spec(f, gaussian(1, 10))
    rep = stein_wasserstein_bound(spec, abs_third_moment=2.0 * math.sqrt(2.0 / math.pi))
    sample = sample_homsum(f.to_float(), Sampler("gaussian", seed=77), 50_000)
    w1 = wasserstein1_empirical(sample)
    assert rep["bound"] > w1, (rep["bound"], w1)


def test_variations_cumulant_check():
    disc = Sampler("discrete", seed=23, params={"values": [1.0, 2.0], "probs": [0.5, 0.5]})
    jl = disc.law_spec(8)
    rep = variations_cumulant_check(2.0, disc, jl, 0.0, 1.0, (3,), paths=10_000, seed=27)
    assert rep["within_5se"], rep
    rep12 = variations_cumulant_check(2.0, disc, jl, 0.0, 1.0, (1, 2), paths=10_000, seed=28)
    assert rep12["within_5se"], rep12
    # symmetric jumps, odd total order: target 0
    rad = Sampler("rademacher", seed=29)
    rep3 = variations_cumulant_check(2.0, rad, rad.law_spec(8), 0.0, 1.0, (1, 2), paths=8_000, seed=30)
    assert rep3["target"] == 0.0 and rep3["within_5se"], rep3


def test_monte_carlo_checks_refuse_too_little_data():
    # a single path gave se = inf (kstat) or NaN over no groups (variations),
    # both reported as within 5 SE
    for refinement, paths in ((10, 1), (0, 10)):
        with pytest.raises(ValueError):
            kstat_experiment(gaussian_cell_sampler, 1.0, 2, refinement, paths, 1.0, seed=1)
    rad = Sampler("rademacher", seed=29)
    for paths in (1, 3):
        with pytest.raises(ValueError):
            variations_cumulant_check(2.0, rad, rad.law_spec(8), 0.0, 1.0, (3,), paths=paths, seed=30)
    assert variations_cumulant_check(2.0, rad, rad.law_spec(8), 0.0, 1.0, (3,), paths=4, seed=30)["groups"] == 2
