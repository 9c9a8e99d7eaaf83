"""Seeded Monte Carlo layer: sampling homogeneous sums, empirical
Wasserstein-1 distances, invariance-decay trajectories, and compound-Poisson
diagonal-measure / kappa-statistic experiments.

Every stream is a counter-based Philox generator keyed by (seed, task id), so
parallel and serial runs agree bit for bit; statistical acceptance is always
at the five-standard-error level with sample sizes recorded.  A per-path loop
builds its generators once per call and re-keys them for each path, which
gives the same stream as a new generator; no generator is shared between
calls, so concurrent calls stay independent.

Within a stream the loops draw a whole path or row per numpy call: a
kappa-statistic cell sampler is ``cells(measure, rng, count) -> ndarray``,
the ``count`` cell values of one path in cell order, and ``sample_homsum``
multiplies whole columns of draws.  Each draws the same numbers, in the same
order, as one scalar call per cell or entry would, so every seeded output is
unchanged.  Two of these batches lean on how numpy draws, and the bitwise
referees in ``tests/test_stochsim.py`` fail if a numpy release changes it:

* compound-Poisson cells read a run of empty cells in one ``random`` call
  and then rewind the counter-based stream (Philox, Salmon et al. 2011):
  below a mean of 10, ``poisson`` uses the multiplication method, so a
  cell's count is 0 exactly when its first double is <= exp(-mean), and
  such a cell uses that one double;
* ``Sampler.draw_from`` searches a cached cdf with ``random`` doubles for
  the discrete law and takes ``integers(0, 2)`` signs for Rademacher, as
  ``Generator.choice`` does.

The Lévy variations sum each path's jump powers per group of paths with
one jump count, a row sum that equals the path's own 1-D sum bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import record
from .laws import LawSpec, builtin_law

if TYPE_CHECKING:
    from .kernels import Kernel

# each sampler law with the params it takes
_SAMPLER_LAWS = {"gaussian": {"sigma2"}, "rademacher": set(), "centered_poisson": {"lam"},
                 "uniform_centered": set(), "discrete": {"values", "probs"}}
# variations_cumulant_check splits its paths into this many groups for the standard error
CUMULANT_GROUPS = 50
# compound_poisson_cell_sampler draws cells one by one from this cell mean on
SKIP_MEAN_LIMIT = 0.075
# the Rademacher values, indexed by integers(0, 2) as Generator.choice indexes them
_SIGNS = np.array([-1.0, 1.0])


def _stream(seed: int, task: int = 0, rng: np.random.Generator | None = None) -> np.random.Generator:
    """Philox stream keyed by (seed, task), packed as seed + task * 2^32: the
    stream of ``Generator(Philox(key=seed + (task << 32)))``.

    The key is set by assigning the Philox state (counter zero, buffer
    empty), which also drops any half-used buffer or cached 32-bit half.
    Given ``rng``, a Philox generator the caller holds, re-keys it in place
    and returns it; otherwise builds one and keys it the same way.  Building
    costs about ten times the re-keying (the constructor draws OS entropy
    for a seed that the key then overrides), so per-path loops pass back the
    generator they hold."""
    if not (0 <= seed < 2**32 and 0 <= task < 2**32):
        raise ValueError(f"seed {seed} and task {task} must lie in [0, 2^32)")
    if rng is None:
        rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(seed) + (int(task) << 32), 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@record
class Sampler:
    """An i.i.d. sampler for one of the supported laws.

    'discrete' takes params {'values': [...], 'probs': [...]}, 'gaussian'
    takes 'sigma2' and 'centered_poisson' 'lam'; a param the law does not
    take raises ValueError.  Draws are deterministic in (seed, task).
    """

    law: str
    seed: int
    params: dict = None  # no params: a fresh {}

    def __post_init__(self):
        if self.params is None:
            object.__setattr__(self, "params", {})
        if self.law not in _SAMPLER_LAWS:
            raise ValueError(f"unknown sampler law {self.law!r}; known: {tuple(_SAMPLER_LAWS)}")
        unknown = self.params.keys() - _SAMPLER_LAWS[self.law]
        if unknown:
            raise ValueError(f"the {self.law} sampler takes no params {sorted(unknown)}")
        if self.law == "discrete" and not {"values", "probs"} <= self.params.keys():
            raise ValueError("the discrete sampler needs params 'values' and 'probs'")

    def draw(self, shape, task: int = 0) -> np.ndarray:
        return self.draw_from(_stream(self.seed, task), shape)

    def draw_from(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draws from a caller's generator; ``seed`` plays no part."""
        if self.law == "gaussian":
            sigma = math.sqrt(float(self.params.get("sigma2", 1.0)))
            return sigma * rng.standard_normal(shape)
        if self.law == "rademacher":
            return _SIGNS[rng.integers(0, 2, size=shape)]
        if self.law == "centered_poisson":
            lam = float(self.params.get("lam", 1.0))
            return rng.poisson(lam, size=shape).astype(float) - lam
        if self.law == "uniform_centered":
            r = math.sqrt(3.0)
            return rng.uniform(-r, r, size=shape)
        values, cdf = self._discrete
        return values[cdf.searchsorted(rng.random(shape), side="right")]

    @cached_property
    def _discrete(self) -> tuple[np.ndarray, np.ndarray]:
        """The discrete law's values and the cdf of its probabilities as
        floats, built once the way ``Generator.choice(values, p=probs)``
        builds them, after the checks that ``choice`` makes, with its
        messages."""
        values = np.asarray([float(Fraction(str(v))) for v in self.params["values"]])
        probs = np.asarray([float(Fraction(str(p))) for p in self.params["probs"]])
        if len(probs) != len(values):
            raise ValueError("a and p must have same size")
        if np.any(probs < 0):  # parsing as a Fraction has refused inf and nan
            raise ValueError("Probabilities are not non-negative")
        if abs(math.fsum(probs) - 1.0) > math.sqrt(np.finfo(float).eps):
            raise ValueError("Probabilities do not sum to 1")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return values, cdf

    def law_spec(self, max_order: int = 10) -> LawSpec:
        """Exact moment sequence matching the sampled law."""
        if self.law != "discrete":
            return builtin_law(self.law, max_order, **{k: Fraction(str(v)) for k, v in self.params.items()})
        values = [Fraction(str(v)) for v in self.params["values"]]
        probs = [Fraction(str(p)) for p in self.params["probs"]]
        if sum(probs) != 1:
            raise ValueError("discrete probabilities must sum to 1 exactly")
        moms = [sum((p * v**k for p, v in zip(probs, values)), Fraction(0)) for k in range(max_order + 1)]
        from .laws import _law_from_moments

        return _law_from_moments("discrete", "classical", moms)

    def moment_self_test(self, draws: int = 100_000, task: int = 900) -> dict:
        """First four sample moments against the exact values, in SE units."""
        x = self.draw(draws, task=task)
        law = self.law_spec(8)
        rows = []
        ok = True
        for k in range(1, 5):
            mk = float(law.moment(k))
            m2k = float(law.moment(2 * k))
            est = float(np.mean(x**k))
            se = math.sqrt(max(m2k - mk * mk, 1e-300) / draws)
            z = (est - mk) / se if se > 0 else 0.0
            ok = ok and abs(z) <= 5.0
            rows.append({"order": k, "estimate": est, "exact": mk, "se": se, "z": z})
        return {"draws": draws, "rows": rows, "passed": ok}


def sample_homsum(f: Kernel, sampler: Sampler, trials: int, task: int = 0) -> np.ndarray:
    """Per trial, draw X_1..X_n and evaluate the multilinear sum.

    The entries are added one after the other, each as a product over
    contiguous columns of draws; a 2-D reduction over entries would sum in a
    different order and change the last bits."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    X = sampler.draw((trials, f.n), task=task)
    Xt = np.ascontiguousarray(X.T)
    out = np.zeros(trials)
    term = np.empty(trials)
    for idx, v in f.support():
        term.fill(float(v))
        for i in idx:
            term *= Xt[i - 1]
        out += term
    return out


@lru_cache(maxsize=8)
def _normal_quantiles(size: int) -> np.ndarray:
    """The grid Phi^{-1}((i + 1/2)/size), i < size, read-only because every
    caller with this size shares it.  Filled with no intermediate list of
    Python floats: with one, peak memory rose by about twice the grid's size."""
    from statistics import NormalDist

    nd = NormalDist()
    q = np.fromiter((nd.inv_cdf((i + 0.5) / size) for i in range(size)), dtype=float, count=size)
    q.flags.writeable = False
    return q


def wasserstein1_empirical(sample: np.ndarray, reference="standard_normal_quantiles") -> float:
    """Empirical W1 against another sample, or against the standard normal
    quantiles Phi^{-1}((i - 1/2)/N), a grid cached per N.  Equal sizes give the order-statistics
    mean |x_(i) - y_(i)|; unequal sizes the exact W1 of the two empirical laws."""
    x = np.sort(np.asarray(sample, dtype=float))
    if len(x) < 2:
        raise ValueError("sample size must be >= 2")
    if isinstance(reference, str):
        if reference != "standard_normal_quantiles":
            raise ValueError("unknown reference")
        return float(np.mean(np.abs(x - _normal_quantiles(len(x)))))
    y = np.sort(np.asarray(reference, dtype=float))
    if len(y) == len(x):
        return float(np.mean(np.abs(x - y)))
    if len(y) < 1:
        raise ValueError("reference sample must be non-empty")
    # exact W1 = integral of |F_x - F_y|, the same as that of |F_x^{-1} - F_y^{-1}|;
    # both empirical CDFs are constant between consecutive merged sample points
    z = np.sort(np.concatenate((x, y)))
    fx = np.searchsorted(x, z[:-1], side="right") / len(x)
    fy = np.searchsorted(y, z[:-1], side="right") / len(y)
    return float(np.sum(np.abs(fx - fy) * np.diff(z)))


def invariance_decay_experiment(
    kernel_family: Callable[[int], Kernel],
    sampler_a: Sampler,
    sampler_b: Sampler,
    sizes: Sequence[int],
    moments_to_track: Sequence[int] = (2, 3, 4),
    trials: int = 20_000,
) -> list[dict]:
    """Trajectory of moment gaps and empirical W1 along a kernel family.

    ``kernel_family`` returns the exact unnormalized kernel at each n; rows
    carry results for the unit-variance rescaling (sum f^2 = 1, the influence
    normalization).  Each gap |E[Q_A^m] - E[Q_B^m]| takes the first route
    that applies: the identity of :func:`quadratic_fourth_moment_gap` (m = 4,
    d = 2, both laws within its assumptions), the lattice engine while it is
    feasible, else the seeded Monte Carlo estimate.  ``moment{m}_gap_exact``
    flags the exact routes, which run on the exact kernel and rescale by c^m.
    """
    from .kernels import influence
    from .moments import AssumptionError, FeasibilityError, SumSpec, moment_exact, quadratic_fourth_moment_gap

    law_a = sampler_a.law_spec()
    law_b = sampler_b.law_spec()
    rows = []
    for t, n in enumerate(sizes):
        fe = kernel_family(n)
        nsq = float(fe.norm_sq())
        if nsq == 0.0:
            raise ValueError("zero kernel in the family")
        c = math.sqrt(1.0 / nsq)
        f = fe.to_float().scaled(c)
        tau = float(max(influence(f), default=0.0))
        sa = sample_homsum(f, sampler_a, trials, task=2 * t)
        sb = sample_homsum(f, sampler_b, trials, task=2 * t + 1)
        row = {
            "n": n,
            "tau": tau,
            "sqrt_tau": math.sqrt(tau),
            "w1_empirical": wasserstein1_empirical(sa, sb),
            "trials": trials,
        }
        for m in moments_to_track:
            diff = None
            if fe.mode == "exact" and m == 4 and fe.d == 2:
                try:
                    diff = quadratic_fourth_moment_gap(fe, law_a, law_b)
                except AssumptionError:
                    pass
            if diff is None and fe.mode == "exact" and n ** ((fe.d * m) // 2) <= 300_000:
                try:
                    diff = moment_exact(SumSpec(fe, law_a), m) - moment_exact(SumSpec(fe, law_b), m)
                except FeasibilityError:
                    pass
            exact = diff is not None
            row[f"moment{m}_gap"] = c**m * abs(float(diff)) if exact else abs(float(np.mean(sa**m) - np.mean(sb**m)))
            row[f"moment{m}_gap_exact"] = exact
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# compound Poisson / Levy experiments


@record
class JumpPath:
    """A compound-Poisson trajectory plus an independent Gaussian component.

    The Gaussian part enters only through its contribution rules to the
    variations: the sampled level at the horizon (order 1) and the sigma^2 t
    term (order 2); no Brownian discretization is kept.
    """

    horizon: float
    times: tuple[float, ...]
    jumps: tuple[float, ...]
    sigma2: float
    rate: float
    gaussian_level: float

    def __post_init__(self):
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("jump times must be strictly increasing")


def _check_levy_args(lam: float, sigma2: float, horizon: float) -> None:
    if not (all(map(math.isfinite, (lam, sigma2, horizon))) and lam >= 0 and sigma2 >= 0 and horizon > 0):
        raise ValueError(f"need finite lam >= 0, sigma2 >= 0 and horizon > 0; got {lam}, {sigma2}, {horizon}")


def _levy_draws(
    lam: float, jump_sampler: Sampler, sigma2: float, horizon: float, seed: int, tasks: Iterable[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """Each task's path as (times, jumps, level): the jump count, the unsorted
    jump times and the Gaussian level come from stream (seed, task), the jump
    sizes from the jump sampler's stream at task + 7,000,000 (keyed only when
    the path has jumps).  The two generators are built once and re-keyed per
    task."""
    rng = jump_rng = None
    for task in tasks:
        rng = _stream(seed, task, rng)
        count = int(rng.poisson(lam * horizon))
        times = rng.uniform(0.0, horizon, size=count)
        if count:
            jump_rng = _stream(jump_sampler.seed, task + 7_000_000, jump_rng)
            jumps = jump_sampler.draw_from(jump_rng, count)
        else:
            jumps = np.array([])
        level = math.sqrt(sigma2 * horizon) * rng.standard_normal() if sigma2 > 0 else 0.0
        yield times, jumps, level


def compound_poisson_path(
    lam: float,
    jump_sampler: Sampler,
    sigma2: float,
    horizon: float,
    seed: int,
    task: int = 0,
) -> JumpPath:
    _check_levy_args(lam, sigma2, horizon)
    times, jumps, level = next(_levy_draws(lam, jump_sampler, sigma2, horizon, seed, (task,)))
    times = np.sort(times)
    # nudge exact collisions apart; measure-zero event but float grids collide
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
    return JumpPath(horizon, tuple(times.tolist()), tuple(jumps.tolist()), sigma2, lam, level)


def variation(path: JumpPath, order: int) -> float:
    """Order-n variation at the horizon: order 1 is the level (Gaussian part
    plus jump sum), order 2 carries the sigma^2 t term plus squared jumps,
    higher orders are pure jump power sums."""
    if order < 1:
        raise ValueError("order must be >= 1")
    jumps = np.asarray(path.jumps)
    power = float(np.sum(jumps**order)) if len(jumps) else 0.0
    if order == 1:
        return path.gaussian_level + power
    if order == 2:
        return path.sigma2 * path.horizon + power
    return power


def kstat_experiment(
    cell_sampler: Callable[[float, np.random.Generator, int], np.ndarray],
    target_cumulant: float,
    n: int,
    refinement: int,
    paths: int,
    horizon: float,
    seed: int,
) -> dict:
    """Diagonal-measure estimator of the n-th cumulant of Phi([0, T]).

    The measure is simulated through ``refinement`` i.i.d. cells of measure
    T/N; the statistic is sum_i Phi(A_iN)^n per path, reported with its
    standard error against the exact target cumulant.  Path p draws its cells
    with one call ``cell_sampler(T/N, rng, N)`` on stream (seed, p), which
    returns the N cell values in cell order; ``rng`` is re-keyed for the next
    path, so a cell sampler must not keep it.
    """
    if paths < 2 or refinement < 1:
        raise ValueError("need paths >= 2 and refinement >= 1")
    if n < 1:
        raise ValueError(f"order must be >= 1; got {n}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0; got {horizon}")
    cell_measure = horizon / refinement
    stats = np.empty(paths)
    rng = None
    for p in range(paths):
        rng = _stream(seed, p, rng)
        cells = cell_sampler(cell_measure, rng, refinement)
        stats[p] = float(np.sum(cells**n))
    est = float(np.mean(stats))
    se = float(np.std(stats, ddof=1) / math.sqrt(paths))
    z = (est - target_cumulant) / se if se > 0 else 0.0
    return {
        "estimate": est,
        "se": se,
        "target": target_cumulant,
        "z": z,
        "within_5se": abs(z) <= 5.0,
        "paths": paths,
        "refinement": refinement,
    }


def gaussian_cell_sampler(measure: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Brownian-increment cells: Phi(A) ~ N(0, nu(A)), ``count`` of them in
    one draw (the same numbers as ``count`` scalar draws)."""
    return math.sqrt(measure) * rng.standard_normal(count)


def compound_poisson_cell_sampler(lam: float, jump_draw: Callable[[np.random.Generator, int], np.ndarray]):
    """Compound-Poisson cells: each cell draws its Poisson(lam nu(A)) count,
    then ``jump_draw(rng, count)`` its jumps, from the path's stream.

    A cell's jumps sit between its count and the next cell's count in the
    stream, so the counts cannot be drawn as one array.  For 0 < mean < 10
    numpy's ``poisson`` uses the multiplication method, and a cell is empty
    exactly when its first double is <= exp(-mean), which is all that cell
    draws.  So the cells read ahead a window of doubles in one call; if one
    is above exp(-mean), they rewind the stream, skip the empty cells before
    it, and draw that cell's count and jumps as a scalar cell would.  The
    window is about four expected gaps between nonempty cells, so a dense
    path does not read ahead the whole path for each cell.

    Each nonempty cell costs a state save and restore and a window read on
    top of a scalar cell, so the skip pays only while most cells are empty.
    The two routes cross at a cell mean of about 0.07 (exp(-mean) about
    0.93; measured with Rademacher and Gaussian jumps, 50 paths of 1000
    cells, on a 2-vCPU Xeon VM): from ``SKIP_MEAN_LIMIT`` = 0.075 on, and
    at a mean of 0 (no draws), the cells run the scalar loop.  This also
    keeps the skip below numpy's switch to the rejection method at 10.
    """

    def cells(measure: float, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.zeros(count)
        mean = lam * measure
        if not 0 < mean < SKIP_MEAN_LIMIT:
            for i in range(count):
                k = int(rng.poisson(mean))
                if k:
                    out[i] = np.sum(jump_draw(rng, k))
            return out
        empty = math.exp(-mean)
        window = 1 + int(min(count, 4 / -math.expm1(-mean)))
        bits = rng.bit_generator
        i = 0
        while i < count:
            state = bits.state
            ahead = rng.random(min(count - i, window)) > empty
            j = int(ahead.argmax())
            if not ahead[j]:  # every cell read is empty, and the stream is past them
                i += window
                continue
            bits.state = state
            rng.random(j)
            i += j
            out[i] = np.sum(jump_draw(rng, int(rng.poisson(mean))))
            i += 1
        return out

    return cells


def variations_cumulant_check(
    lam: float,
    jump_sampler: Sampler,
    jump_law: LawSpec,
    sigma2: float,
    horizon: float,
    orders: Sequence[int],
    paths: int,
    seed: int,
) -> dict:
    """Empirical joint cumulant of the variations (X_T^{(c_1)}, ..., X_T^{(c_k)})
    against chi_{sum c}(X_T).

    For sum(c) >= 3 the target is T * lam * E[X^{sum c}] (the Levy-moment
    identity); for sum(c) = 2 it is sigma^2 T + T lam E[X^2].  The plug-in
    joint-cumulant estimator is evaluated per path group; the group spread
    provides the standard error.
    """
    from .partitions import PartitionFilter, enumerate_partitions, moebius_to_top

    orders = tuple(orders)
    if any(c < 1 for c in orders):
        raise ValueError("variation orders must be >= 1")
    _check_levy_args(lam, sigma2, horizon)
    k = len(orders)
    total = sum(orders)
    if total >= 3:
        target = horizon * lam * float(jump_law.moment(total))
    elif total == 2:
        target = sigma2 * horizon + horizon * lam * float(jump_law.moment(2))
    else:
        target = horizon * lam * float(jump_law.moment(1))
    group_size = max(paths // CUMULANT_GROUPS, 2)
    if paths < 2 * group_size:
        raise ValueError(f"{paths} paths form fewer than 2 groups, so no standard error; need paths >= 4")
    # the variations read only the jumps and the level, so the times are
    # drawn (the level follows them in the stream) but never sorted
    counts = np.empty(paths, dtype=np.intp)
    levels = np.empty(paths)
    drawn = []
    for p, (_, jumps, level) in enumerate(_levy_draws(lam, jump_sampler, sigma2, horizon, seed, range(paths))):
        counts[p] = len(jumps)
        levels[p] = level
        drawn.append(jumps)
    # the paths with m jumps as an (rows x m) array; a row sum adds in the
    # same order as the 1-D sum over that path's jumps (np.add.reduceat
    # over one flat array does not)
    flat = np.concatenate(drawn)
    starts = np.cumsum(counts) - counts
    V = np.zeros((paths, k))
    # a sorted set, not np.unique, which would import numpy.ma
    for m in sorted(set(counts[counts > 0].tolist())):
        rows = np.flatnonzero(counts == m)
        block = flat[starts[rows, None] + np.arange(m)]
        for j, c in enumerate(orders):
            V[rows, j] = np.sum(block**c, axis=1)
    for j, c in enumerate(orders):
        if c == 1:
            V[:, j] += levels
        elif c == 2:
            V[:, j] += sigma2 * horizon

    # (Moebius value, column lists of the blocks) per partition of the k orders
    terms = [
        (float(moebius_to_top(sigma, "classical")), [[j - 1 for j in b] for b in sigma.blocks])
        for sigma in enumerate_partitions(k, PartitionFilter())
    ]

    def plugin_cumulant(block: np.ndarray) -> float:
        est = 0.0
        for mu, blocks in terms:
            term = mu
            for cols in blocks:
                term *= float(np.mean(np.prod(block[:, cols], axis=1)))
            est += term
        return est

    estimates = []
    for g in range(0, paths - group_size + 1, group_size):
        estimates.append(plugin_cumulant(V[g: g + group_size]))
    est = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
    z = (est - target) / se if se > 0 else 0.0
    return {
        "orders": orders,
        "estimate": est,
        "se": se,
        "target": target,
        "z": z,
        "within_5se": abs(z) <= 5.0,
        "paths": paths,
        "groups": len(estimates),
    }
