import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from statistics import NormalDist

import numpy as np
import pytest

from homsum.kernels import build_kernel, offdiag_kernel, star_kernel
from homsum.laws import centered_poisson, gaussian, rademacher, uniform_centered
from homsum.moments import SumSpec, moment_exact
from homsum.partitions import PartitionFilter, enumerate_partitions, moebius_to_top
from homsum.stochsim import (
    CUMULANT_GROUPS,
    SKIP_MEAN_LIMIT,
    _normal_quantiles,
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


def philox(seed, task):
    """Stream (seed, task) from numpy's own constructor, the referee of the
    library's re-keyed streams."""
    return np.random.Generator(np.random.Philox(key=seed + (task << 32)))


def test_stream_determinism():
    s = Sampler("gaussian", seed=42)
    assert np.array_equal(s.draw(64, task=3), s.draw(64, task=3))
    assert not np.array_equal(s.draw(64, task=4), s.draw(64, task=3))
    assert not np.array_equal(Sampler("gaussian", seed=43).draw(64, task=3), s.draw(64, task=3))
    assert np.array_equal(s.draw_from(philox(42, 3), 64), s.draw(64, task=3))


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


def test_sampler_law_spec_is_the_builtin_law():
    assert Sampler("gaussian", seed=0, params={"sigma2": 1.5}).law_spec(6) == gaussian(F(3, 2), 6)
    assert Sampler("gaussian", seed=0).law_spec(6) == gaussian(1, 6)
    assert Sampler("centered_poisson", seed=0, params={"lam": 0.3}).law_spec(6) == centered_poisson(F(3, 10), 6)
    assert Sampler("rademacher", seed=0).law_spec(6) == rademacher(6)
    assert Sampler("uniform_centered", seed=0).law_spec(6) == uniform_centered(6)


def test_sampler_refuses_params_its_law_does_not_take():
    for law, params in [("rademacher", {"lam": 2}), ("gaussian", {"lam": 2}), ("uniform_centered", {"sigma2": 2}),
                        ("centered_poisson", {"lam": 2, "sigma2": 1}),
                        ("discrete", {"values": [1], "probs": [1], "lam": 2})]:
        with pytest.raises(ValueError, match="takes no params"):
            Sampler(law, seed=0, params=params)


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
    held = _stream(1, 2)
    with pytest.raises(ValueError):
        _stream(2**32, 0, held)


def draw_all(rng):
    return (
        rng.poisson(3.0, size=5).tolist(),
        rng.uniform(-1.0, 2.0, size=7).tolist(),
        rng.standard_normal(9).tolist(),
        rng.choice([-1.0, 0.0, 2.0], size=6, p=[0.5, 0.25, 0.25]).tolist(),
        rng.integers(0, 1000, size=5).tolist(),
        rng.integers(0, 10, size=5, dtype=np.int32).tolist(),
        rng.poisson(0.2),
        rng.standard_normal(),
    )


def test_rekeyed_generator_matches_a_fresh_one():
    keys = [(0, 0), (7, 3), (2**32 - 1, 2**32 - 1), (11, 7_000_005)]
    for seed, task in keys:
        assert draw_all(_stream(seed, task)) == draw_all(philox(seed, task))
    held = _stream(5, 5)
    for seed, task in keys:
        for use in ("none", "uint32", "half_buffer", "both"):
            held = _stream(5, 6, held)
            if use in ("uint32", "both"):
                held.integers(0, 10, dtype=np.int32)  # leaves the other 32-bit half cached
                assert held.bit_generator.state["has_uint32"] == 1
            if use in ("half_buffer", "both"):
                held.random()
                assert 0 < held.bit_generator.state["buffer_pos"] < 4
            assert _stream(seed, task, held) is held
            assert draw_all(held) == draw_all(philox(seed, task)), (seed, task, use)


def test_per_path_loops_build_at_most_two_generators(monkeypatch):
    built = []
    real = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    disc = Sampler("discrete", seed=23, params={"values": [1.0, 2.0], "probs": [0.5, 0.5]})
    for paths in (4, 60, 600):
        built.clear()
        variations_cumulant_check(2.0, disc, disc.law_spec(8), 0.5, 1.0, (1, 2), paths, seed=27)
        assert len(built) <= 2, (paths, len(built))
        built.clear()
        kstat_experiment(gaussian_cell_sampler, 1.0, 2, 10, paths, 1.0, seed=17)
        assert len(built) <= 2, (paths, len(built))


@pytest.mark.parametrize("orders", [(1,), (2,), (1, 1)])
def test_variation_targets_of_total_order_one_and_two(orders):
    # chi_1(X_T) = lam T E[X]; chi_2(X_T) = sigma^2 T + lam T E[X^2]
    disc = Sampler("discrete", seed=23, params={"values": [1.0, 2.0], "probs": [0.5, 0.5]})
    out = variations_cumulant_check(2.0, disc, disc.law_spec(4), 0.5, 1.5, orders, 2000, seed=41)
    assert out["target"] == (1.5 * 2.0 * 1.5 if sum(orders) == 1 else 0.5 * 1.5 + 1.5 * 2.0 * 2.5)
    assert out["within_5se"], out


def test_concurrent_variations_checks_agree_with_serial_runs():
    disc = Sampler("discrete", seed=23, params={"values": [1.0, 2.0], "probs": [0.5, 0.5]})
    rad = Sampler("rademacher", seed=29)
    calls = [
        (2.0, disc, disc.law_spec(8), 0.5, 1.0, (1, 2), 400, 27),
        (3.0, rad, rad.law_spec(8), 0.0, 1.0, (2, 2), 400, 28),
    ]
    serial = [variations_cumulant_check(*args) for args in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(variations_cumulant_check, *args) for args in calls]
                assert [f.result(timeout=60) for f in futures] == serial
    finally:
        sys.setswitchinterval(interval)


def test_normal_quantile_grid_is_shared_read_only_and_unchanged():
    x = np.random.default_rng(3).standard_normal(501)
    nd = NormalDist()
    q = np.array([nd.inv_cdf((i + 0.5) / 501) for i in range(501)])
    want = float(np.mean(np.abs(np.sort(x) - q)))
    assert wasserstein1_empirical(x) == want
    assert wasserstein1_empirical(x) == want
    grid = _normal_quantiles(501)
    assert grid is _normal_quantiles(501) and not grid.flags.writeable
    assert grid.tobytes() == q.tobytes()


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


def test_invariance_gap_routes_for_a_law_with_a_third_moment():
    # centered_poisson has E[X^3] = 1, outside the fourth-moment identity: the
    # lattice gives the gap at n = 4, and at n = 24 (24^4 index maps) the
    # seeded Monte Carlo estimate from the drawn samples does
    sa, sb = Sampler("gaussian", seed=41), Sampler("centered_poisson", seed=42)
    rows = invariance_decay_experiment(star_kernel, sa, sb, sizes=[4, 24], moments_to_track=(4,), trials=4000)
    for t, (row, n) in enumerate(zip(rows, [4, 24])):
        fe = star_kernel(n)
        c = math.sqrt(1.0 / float(fe.norm_sq()))
        exact = float((moment_exact(SumSpec(fe, sa.law_spec()), 4) - moment_exact(SumSpec(fe, sb.law_spec()), 4)) * c**4)
        assert row["moment4_gap_exact"] is (n == 4)
        if n == 4:
            assert row["moment4_gap"] == pytest.approx(abs(exact), rel=1e-12)
            continue
        f = fe.to_float().scaled(c)
        xa = sample_homsum(f, sa, 4000, task=2 * t) ** 4
        xb = sample_homsum(f, sb, 4000, task=2 * t + 1) ** 4
        assert row["moment4_gap"] == abs(float(np.mean(xa) - np.mean(xb)))
        se = math.sqrt((xa.var(ddof=1) + xb.var(ddof=1)) / 4000)
        assert abs(float(np.mean(xa) - np.mean(xb)) - exact) <= 5 * se


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

    f = odk(9).scaled(F(1, 12))
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


# ---------------------------------------------------------------------------
# The scalar loops that the per-path and per-row code replaced, kept as
# referees: every draw and every output must agree bit for bit (==, no
# tolerance).

LAWS = [
    Sampler("gaussian", seed=3),
    Sampler("rademacher", seed=4),
    Sampler("centered_poisson", seed=5, params={"lam": 2}),
    Sampler("discrete", seed=6, params={"values": [-1, 0, 2], "probs": ["1/2", "1/4", "1/4"]}),
]


def scalar_sample_homsum(f, sampler, trials, task):
    X = sampler.draw((trials, f.n), task=task)
    out = np.zeros(trials)
    for idx, v in f.support():
        term = float(v) * np.ones(trials)
        for i in idx:
            term = term * X[:, i - 1]
        out += term
    return out


def scalar_gaussian_cell(measure, rng):
    return math.sqrt(measure) * rng.standard_normal()


def scalar_compound_poisson_cell(lam, jump_draw):
    def cell(measure, rng):
        count = int(rng.poisson(lam * measure))
        return float(np.sum(jump_draw(rng, count))) if count else 0.0

    return cell


def scalar_kstat(cell, n, refinement, paths, horizon, seed):
    measure = horizon / refinement
    stats = np.empty(paths)
    for p in range(paths):
        rng = philox(seed, p)
        cells = np.array([cell(measure, rng) for _ in range(refinement)])
        stats[p] = float(np.sum(cells**n))
    return float(np.mean(stats)), float(np.std(stats, ddof=1) / math.sqrt(paths))


def scalar_path(lam, jump_sampler, sigma2, horizon, seed, task):
    rng = philox(seed, task)
    count = int(rng.poisson(lam * horizon))
    times = np.sort(rng.uniform(0.0, horizon, size=count))
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
    jumps = jump_sampler.draw_from(philox(jump_sampler.seed, task + 7_000_000), count) if count else np.array([])
    level = math.sqrt(sigma2 * horizon) * rng.standard_normal() if sigma2 > 0 else 0.0
    return JumpPath(horizon, tuple(times.tolist()), tuple(jumps.tolist()), sigma2, lam, level)


def scalar_variation(path, order):
    jumps = np.asarray(path.jumps)
    power = float(np.sum(jumps**order)) if len(jumps) else 0.0
    if order == 1:
        return path.gaussian_level + power
    if order == 2:
        return path.sigma2 * path.horizon + power
    return power


def scalar_variations_check(lam, jump_sampler, sigma2, horizon, orders, paths, seed):
    k = len(orders)
    group_size = max(paths // CUMULANT_GROUPS, 2)
    V = np.empty((paths, k))
    for p in range(paths):
        path = scalar_path(lam, jump_sampler, sigma2, horizon, seed, task=p)
        for j, c in enumerate(orders):
            V[p, j] = scalar_variation(path, c)
    estimates = []
    for g in range(0, paths - group_size + 1, group_size):
        block = V[g: g + group_size]
        est = 0.0
        for sigma in enumerate_partitions(k, PartitionFilter()):
            term = float(moebius_to_top(sigma, "classical"))
            for b in sigma.blocks:
                term *= float(np.mean(np.prod(block[:, [j - 1 for j in b]], axis=1)))
            est += term
        estimates.append(est)
    return float(np.mean(estimates)), float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))


def test_sample_homsum_matches_the_entry_loop_bitwise():
    rnd = random.Random(5)
    kernels = [build_kernel(4, d, [], mode="float") for d in range(4)]  # empty kernels
    kernels += [HALF, offdiag_kernel(5), build_kernel(3, 0, [((), F(2, 3))])]
    for d in range(4):
        for n in (1, 3, 9):
            entries = {tuple(rnd.randint(1, n) for _ in range(d)): rnd.uniform(-2, 2) for _ in range(12)}
            kernels.append(build_kernel(n, d, entries.items(), mode="float"))
    for f in kernels:
        for smp in LAWS:
            for trials in (1, 7, 300):
                got = sample_homsum(f, smp, trials, task=2)
                assert np.array_equal(got, scalar_sample_homsum(f, smp, trials, task=2)), (f, smp, trials)


def next_draws(rng):
    """The next few draws of a stream: doubles, and 32-bit integers, which
    read a cached half of a 64-bit draw first."""
    return rng.random(3).tolist(), rng.integers(0, 1000, size=3, dtype=np.int32).tolist()


# cell means lam * nu(A): 0 draws nothing; up to just below 10 numpy's
# poisson uses the multiplication method, whose first double decides an
# empty cell; from 10 on it uses rejection (PTRS)
CELL_MEANS = [0.0, 1e-320, 1e-9, 0.004, 0.02, math.nextafter(SKIP_MEAN_LIMIT, 0.0), SKIP_MEAN_LIMIT,
              0.68, 3.0, 9.5, math.nextafter(10.0, 0.0), 10.0, 25.0]


def test_cell_samplers_draw_what_scalar_cells_drew():
    for count in (0, 1, 5, 200):
        rng, ref = philox(8, 1), philox(8, 1)
        want = np.array([scalar_gaussian_cell(0.3, ref) for _ in range(count)], dtype=float)
        assert gaussian_cell_sampler(0.3, rng, count).tobytes() == want.tobytes()
    # the gaussian jumps' ziggurat takes a variable number of draws per jump
    for smp in LAWS:
        for mean in CELL_MEANS:
            cells = compound_poisson_cell_sampler(mean, smp.draw_from)
            cell = scalar_compound_poisson_cell(mean, smp.draw_from)
            for count in (0, 1, 7, 300):
                rng, ref = philox(9, count), philox(9, count)
                want = np.array([cell(1.0, ref) for _ in range(count)], dtype=float)
                got = cells(1.0, rng, count)
                assert got.tobytes() == want.tobytes(), (smp.law, mean, count)
                # both streams left at the same point
                assert next_draws(rng) == next_draws(ref), (smp.law, mean, count)


def test_cells_on_both_sides_of_the_poisson_method_switch():
    # a cell at mean 10 is empty with probability e^-10, so only a long path
    # shows whether the empty-cell rule of the multiplication method is
    # applied on the wrong side of the switch (it would be if
    # SKIP_MEAN_LIMIT were raised past 10)
    draw = LAWS[0].draw_from
    for mean in (math.nextafter(10.0, 0.0), 10.0):
        rng, ref = philox(5, 5), philox(5, 5)
        cell = scalar_compound_poisson_cell(mean, draw)
        want = np.array([cell(1.0, ref) for _ in range(40_000)])
        assert compound_poisson_cell_sampler(mean, draw)(1.0, rng, 40_000).tobytes() == want.tobytes(), mean
        assert next_draws(rng) == next_draws(ref), mean


def test_a_path_of_empty_cells_reads_one_double_per_cell():
    cells = compound_poisson_cell_sampler(1e-9, LAWS[0].draw_from)
    rng, ref = philox(3, 4), philox(3, 4)
    assert not cells(1.0, rng, 500).any()
    ref.random(500)
    assert next_draws(rng) == next_draws(ref)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kstat_matches_the_cell_loop_bitwise(n):
    rad = lambda rng, c: rng.choice([-1.0, 1.0], size=c)  # noqa: E731
    cases = [(gaussian_cell_sampler, scalar_gaussian_cell)]
    cases += [(compound_poisson_cell_sampler(lam, draw), scalar_compound_poisson_cell(lam, draw))
              for lam in (0.0, 2.5, 12.9, 13.0) for draw in (rad, LAWS[0].draw_from, LAWS[3].draw_from)]
    for cells, cell in cases:
        for refinement, paths in ((1, 2), (1, 40), (7, 30), (100, 12)):
            rep = kstat_experiment(cells, 0.5, n, refinement, paths, 1.3, seed=11)
            assert (rep["estimate"], rep["se"]) == scalar_kstat(cell, n, refinement, paths, 1.3, seed=11)


def test_levy_paths_and_variations_match_the_path_loop_bitwise():
    for smp in LAWS:
        for lam in (0.0, 0.6, 4.0, 15.0):  # at lam T = 18, paths of 8 to 30 jumps
            for sigma2 in (0.0, 0.5):
                for task in range(4):
                    path = compound_poisson_path(lam, smp, sigma2, 1.2, seed=13, task=task)
                    assert path == scalar_path(lam, smp, sigma2, 1.2, 13, task)
                    for c in (1, 2, 3, 4):
                        assert variation(path, c) == scalar_variation(path, c)
                for orders in ((3,), (1, 2), (2, 2), (1, 1, 1)):
                    rep = variations_cumulant_check(lam, smp, smp.law_spec(12), sigma2, 1.2, orders, 60, seed=14)
                    assert (rep["estimate"], rep["se"]) == scalar_variations_check(lam, smp, sigma2, 1.2, orders, 60, 14)


def test_monte_carlo_checks_refuse_meaningless_inputs():
    for n, horizon in ((0, 1.0), (-1, 1.0), (2, math.nan), (2, math.inf), (2, 0.0), (2, -1.0)):
        with pytest.raises(ValueError):
            kstat_experiment(gaussian_cell_sampler, 1.0, n, 10, 10, horizon, seed=1)
    rad = Sampler("rademacher", seed=29)
    with pytest.raises(ValueError):
        variations_cumulant_check(2.0, rad, rad.law_spec(8), -1.0, 1.0, (2,), paths=10, seed=30)
    with pytest.raises(ValueError):
        variations_cumulant_check(2.0, rad, rad.law_spec(8), 0.0, 1.0, (0, 2), paths=10, seed=30)
    with pytest.raises(ValueError):
        compound_poisson_path(2.0, rad, -0.5, 1.0, seed=1)
    # non-finite rates, levels and horizons are refused before numpy sees a Poisson mean
    for lam, sigma2, horizon in ((math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0), (2.0, math.inf, 1.0),
                                 (2.0, 0.0, math.inf), (2.0, 0.0, math.nan)):
        with pytest.raises(ValueError, match="need finite"):
            compound_poisson_path(lam, rad, sigma2, horizon, seed=1)
        with pytest.raises(ValueError, match="need finite"):
            variations_cumulant_check(lam, rad, rad.law_spec(8), sigma2, horizon, (2,), paths=10, seed=30)


def test_sampler_draws_equal_generator_choice():
    # draw_from replaces rng.choice([-1, 1]) and rng.choice(values, p=probs);
    # a numpy release that changes either stream fails here
    rad = Sampler("rademacher", seed=0)
    disc = Sampler("discrete", seed=0, params={"values": ["-2", "0", "1", "7"], "probs": ["1/6", "1/2", "1/3", "0"]})
    values, probs = np.array([-2.0, 0.0, 1.0, 7.0]), np.array([1 / 6, 1 / 2, 1 / 3, 0.0])
    for key in range(20):
        for shape in (5, (3, 4), 0):
            rng, ref = philox(key, 1), philox(key, 1)
            got = rad.draw_from(rng, shape)
            want = ref.choice([-1.0, 1.0], size=shape)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), ("rademacher", key, shape)
            got = disc.draw_from(rng, shape)
            want = ref.choice(values, size=shape, p=probs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), ("discrete", key, shape)
            assert next_draws(rng) == next_draws(ref), (key, shape)


@pytest.mark.parametrize("values, probs", [
    ([1, 2], ["1/2"]),  # lengths differ
    ([1, 2], ["-1/2", "3/2"]),  # a negative probability
    ([1, 2], ["nan", "1/2"]),  # not finite
    ([1, 2], ["1/2", "1/4"]),  # sums to 3/4
    ([1, 2], ["1/2", "0.5000001"]),  # more than sqrt(eps) above 1
])
def test_discrete_probabilities_are_checked_as_generator_choice_checks_them(values, probs):
    smp = Sampler("discrete", seed=1, params={"values": values, "probs": probs})
    with pytest.raises(ValueError) as err:
        smp.draw(3)
    try:
        p = [float(F(x)) for x in probs]
    except ValueError:
        return  # refused while parsing, as before
    with pytest.raises(ValueError) as numpy_err:
        philox(1, 0).choice([float(v) for v in values], size=3, p=p)
    assert str(numpy_err.value).startswith(str(err.value))


def test_discrete_probabilities_within_sqrt_eps_of_1_are_accepted():
    smp = Sampler("discrete", seed=1, params={"values": [1, 2], "probs": ["1/2", "0.500000001"]})
    want = philox(1, 0).choice([1.0, 2.0], size=50, p=[0.5, 0.500000001])
    assert smp.draw(50).tobytes() == want.tobytes()
