"""The three workloads as fixed, seeded job lists.

A job calls one module's public functions (or runs one ``python -m
homsum.cli`` child) and returns its output; ``check`` compares that output
with a reference from ``bench_refs`` and raises ``Mismatch`` when they differ.

Seeds.  Kernels are random rational kernels drawn once from a fixed base
stream.  The workload seed draws, per job, a random relabelling of the index
set and a random sign of those kernels, the law parameters of the law and
orthopoly jobs, and every Monte Carlo seed.  Moments transform exactly under
relabelling and sign changes (E[Q^m] picks up c^m), so every job on every
seed is checked against the references that ``refgen.py`` computed once by
independent routes, while the work of every kernel job stays the same on
every seed (law parameters are drawn from four rationals of like size).
Monte Carlo outputs are checked by five-standard-error gates on every seed
and, on the default seed, by digests recorded when the references were
generated.

Set-up builds the inputs and loads ``references.json``; every reference that
has to be computed is wrapped in ``lazy`` and computed at its first (untimed)
check, so the timed set-up holds no harness work.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import bench_refs as R
from bench_refs import expect, expect_close, expect_eq

from homsum import kernels as K
from homsum import laws as L
from homsum import moments as M
from homsum import orthopoly as O
from homsum import partitions as P
from homsum import stochsim as S

DEFAULT_SEED = 0
LAW_ORDER = 14


@dataclass
class Job:
    """One entry of a job list; a CLI job has ``argv`` and no ``run``."""

    name: str
    run: Callable  # run(call) -> output, call(op, fn, *args, **kw)
    check: Callable[[object], None]
    work: Callable[[], dict] = field(default=lambda: {})  # computed counters for one execution
    argv: Optional[list] = None  # CLI jobs only
    long_case: bool = False  # over a second alone: timed in the traced run only, outside the closed loop


def lazy(compute: Callable[[], object]) -> Callable[[], object]:
    """A check-side reference, computed at its first check and then kept."""
    return functools.cache(compute)


class Ctx:
    """Per-run state: the seed stream, the references and a working directory."""

    def __init__(self, seed: int, refs: dict, workdir: str, generating: bool = False):
        self.seed = seed
        self.rnd = random.Random(seed)
        self.refs = refs
        self.workdir = workdir
        self.generating = generating
        self.default = seed == DEFAULT_SEED
        self.job_index = 0

    def relabel(self, n: int):
        """A seeded permutation of [n] and a seeded sign.

        A sign, not a general rational scale: scaling by 3/2 makes the
        package's Fraction arithmetic measurably slower than scaling by 1,
        which would make the work depend on the seed.
        """
        perm = list(range(1, n + 1))
        self.rnd.shuffle(perm)
        return perm, Fraction(self.rnd.choice((-1, 1)))

    def mc_seed(self) -> int:
        self.job_index += 1
        return (self.seed * 104_729 + self.job_index * 7_919) % 2**31

    def ref(self, key: str, compute: Callable[[], object]):
        """A committed reference; refgen.py computes it with ``compute``."""
        if self.generating:
            self.refs[key] = _to_json(compute())
        if key not in self.refs:
            raise KeyError(f"no committed reference for {key}; run perfbench/refgen.py")
        return _from_json(self.refs[key])


def _to_json(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): _to_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_to_json(v) for v in x]
    return x


def _from_json(x):
    if isinstance(x, str) and "/" in x:
        return Fraction(x)
    if isinstance(x, dict):
        return {k: _from_json(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_from_json(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# inputs


def base_kernel(key: str, n: int, d: int, density: float, symmetric: bool = True) -> dict:
    """A random rational diagonal-vanishing kernel, fixed by ``key`` alone."""
    rnd = random.Random(key)
    vals: dict = {}
    if symmetric:
        for comb in itertools.combinations(range(1, n + 1), d):
            if rnd.random() < density:
                v = Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), rnd.randint(1, 4))
                for perm in itertools.permutations(comb):
                    vals[perm] = v
    else:
        for idx in itertools.permutations(range(1, n + 1), d):
            if rnd.random() < density:
                vals[idx] = Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), rnd.randint(1, 4))
    return vals


def family_values(name: str, n: int) -> dict:
    if name == "offdiag":
        return {(i, j): Fraction(1) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    if name == "star":
        out = {(1, j): Fraction(1) for j in range(2, n + 1)}
        out.update({(j, 1): Fraction(1) for j in range(2, n + 1)})
        return out
    raise ValueError(name)


def transformed(values: dict, perm, c) -> dict:
    """f'(idx) = c f(perm o idx): new index i carries old index perm[i-1]."""
    inv = {old: new for new, old in enumerate(perm, start=1)}
    return {tuple(inv[i] for i in idx): c * v for idx, v in values.items()}


def kernel(values: dict, n: int, d: int) -> K.Kernel:
    return K.build_kernel(n, d, list(values.items()))


DISCRETE3 = {"values": ["-2", "0", "1"], "probs": ["1/6", "1/2", "1/3"]}


_LAWS: dict = {}


def law_spec(desc, order: int = LAW_ORDER) -> L.LawSpec:
    """The package's LawSpec for a (name, params) descriptor; equal descriptors share one."""
    key = (repr(desc), order)
    if key not in _LAWS:
        name, params = desc
        if name == "discrete3":
            moms = R.law_moments("discrete", order, **DISCRETE3)
            _LAWS[key] = L.law_from_json(json.dumps({
                "name": "discrete3", "kind": "classical",
                "moments": [f"{m.numerator}/{m.denominator}" for m in moms],
            }))
        else:
            _LAWS[key] = L.builtin_law(name, max_order=order, **params)
    return _LAWS[key]


def law_kind(desc) -> str:
    return "free" if desc[0] in ("semicircle", "free_poisson_centered", "tetilla", "free_rademacher") else "classical"


def _ref_law(desc):
    name, params = desc
    return ("discrete", DISCRETE3) if name == "discrete3" else (name, params)


def ref_moments(desc, order: int = LAW_ORDER):
    name, params = _ref_law(desc)
    return R.law_moments(name, order, **params)


def ref_cumulants(desc, order: int = LAW_ORDER):
    name, params = _ref_law(desc)
    return R.law_cumulants(name, order, **params)


def oracle_moment(factors: list, descs: list, word) -> Fraction:
    """E[Q_{w_1} ... Q_{w_k}] through bench_refs; descs[i-1] is the law of X_i."""
    if law_kind(descs[0]) == "classical":
        moms = [ref_moments(d) for d in descs]
        return R.classical_moment([factors[w] for w in word], lambda i: moms[i - 1])
    cums = [ref_cumulants(d) for d in descs]
    return R.free_moment([factors[w] for w in word], lambda i: cums[i - 1])


# ---------------------------------------------------------------------------
# computed work counters


def engine_partitions(degrees, kind: str, sizes) -> list:
    """The partitions the lattice engine sums over, through the partitions API."""
    bounds = list(itertools.accumulate(degrees, initial=0))
    star = P.SetPartition.from_blocks(bounds[-1], [range(a + 1, b + 1) for a, b in zip(bounds, bounds[1:])])
    filt = P.PartitionFilter(noncrossing=kind == "free", allowed_block_sizes=frozenset(sizes), respects=star)
    return list(P.enumerate_partitions(sum(degrees), filt, cap=max(14, sum(degrees))))


_WORK_CACHE: dict = {}


def lattice_work(degrees, descs, n: int) -> dict:
    """partitions_used and assignments (sum of n^blocks) of one lattice sum."""
    D = sum(degrees)
    sizes = set()
    for dsc in descs:
        cum = ref_cumulants(dsc, max(D, 2))
        sizes |= {s for s in range(1, D + 1) if cum[s] != 0}
    key = (tuple(degrees), law_kind(descs[0]), frozenset(sizes))
    if key not in _WORK_CACHE:
        parts = engine_partitions(degrees, key[1], sizes) if sizes else []
        _WORK_CACHE[key] = (len(parts), [len(p.blocks) for p in parts])
    used, blocks = _WORK_CACHE[key]
    return {"moments.partitions_used": used, "moments.assignments": sum(n**b for b in blocks)}


def add_work(*dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# moments-wide


CLASSICAL = [("gaussian", {}), ("rademacher", {}), ("centered_poisson", {"lam": 1}), ("discrete3", {})]
FREE = [("semicircle", {}), ("free_poisson_centered", {"lam": 1}), ("tetilla", {})]


def moment_job(ctx: Ctx, name: str, base: dict, n: int, d: int, laws, orders, word_kernels=None, word=None,
               long_case: bool = False) -> Job:
    """moment_exact at each order in ``orders`` (or one joint_moment when ``word`` is set)."""
    perm, c = ctx.relabel(n)
    descs = laws if isinstance(laws, list) else [laws] * n
    factors = [base] + list(word_kernels or [])
    kernels = [kernel(transformed(f, perm, c), n, len(next(iter(f)))) for f in factors]
    law_in = [law_spec(laws[p - 1]) for p in perm] if isinstance(laws, list) else law_spec(laws)
    if word is None:
        spec = M.SumSpec(kernels[0], law_in)
        base_ref = ctx.ref(name, lambda: [oracle_moment(factors, descs, (0,) * m) for m in orders])
        want = [r * c**m for r, m in zip(base_ref, orders)]

        def run(call):
            return [call("moments.moment_exact", M.moment_exact, spec, m) for m in orders]

        work = lambda: add_work(*(lattice_work((d,) * m, descs, n) for m in orders))
        label = f"E[Q^m], m in {tuple(orders)}"
    else:
        base_ref = ctx.ref(name, lambda: [oracle_moment(factors, descs, word)])
        want = [base_ref[0] * c ** len(word)]

        def run(call):
            return [call("moments.joint_moment", M.joint_moment, kernels, word, law_in)]

        degrees = [kernels[w].d for w in word]
        work = lambda: lattice_work(degrees, descs, n)
        label = f"joint moment of word {word}"

    def check(out):
        expect_eq(out, want, label)

    return Job(name, run, check, work, long_case=long_case)


def report_job(ctx: Ctx, name: str, kind: str, base: dict, n: int, law, param=None) -> Job:
    """fmt_report, noncentral_report, fourth_moment_formula or stein_wasserstein_bound."""
    perm, c = ctx.relabel(n)
    vals = transformed(base, perm, c)
    f = kernel(vals, n, 2)
    spec = M.SumSpec(f, law_spec(law))
    descs = [law] * n
    orders = (2, 3, 4) if kind in ("fmt", "noncentral") else (4,)
    base_ref = ctx.ref(name, lambda: [oracle_moment([base], descs, (0,) * m) for m in orders])
    mom = {m: r * c**m for r, m in zip(base_ref, orders)}
    refs = lazy(lambda: (R.dense(vals, n, 2), ref_cumulants(law), ref_moments(law)))

    if kind == "fmt":
        op, fn, args = "moments.fmt_report", M.fmt_report, (spec,)
    elif kind == "noncentral":
        target = "gamma" if law_kind(law) == "classical" else "free_poisson"
        op, fn, args = "moments.noncentral_report", M.noncentral_report, (spec, target, param)
    elif kind == "fourth":
        op, fn, args = "moments.fourth_moment_formula", M.fourth_moment_formula, (spec,)
    else:
        op, fn, args = "moments.stein_wasserstein_bound", M.stein_wasserstein_bound, (spec, 2.0)

    def run(call):
        return call(op, fn, *args)

    def check(rep):
        fd, cum, lm = refs()
        if kind == "fmt":
            expect_eq((rep["variance"], rep["third_moment"], rep["fourth_moment"]), (mom[2], mom[3], mom[4]), "fmt moments")
            target = 3 if law_kind(law) == "classical" else 2
            expect_eq(rep["fourth_cumulant"], mom[4] - target * mom[2] ** 2, "fourth cumulant")
            expect_close(float(rep["contraction_norms_sq"][1]), float(np.sum(R.dense_contraction(fd, fd, 1) ** 2)), "contraction norm")
            for r in (1, 2):
                expect_close(float(rep["star_norms_sq"][r]), float(np.sum(R.dense_star(fd, fd, r) ** 2)), f"star norm {r}")
            expect_close(float(rep["tau_max"]), float(np.max(R.dense_influence(fd))), "tau_max")
        elif kind == "noncentral":
            expect_eq((rep["variance"], rep["third_moment"], rep["fourth_moment"]), (mom[2], mom[3], mom[4]), "moments")
            p = Fraction(param)
            if law_kind(law) == "classical":
                stat, tv = mom[4] - 12 * mom[3], 12 * p**2 - 48 * p
            else:
                stat, tv = mom[4] - 2 * mom[3], 2 * p**2 - p
            expect_eq((rep["statistic"], rep["target_value"], rep["gap"]), (stat, tv, stat - tv), "statistic")
            mid = float(np.sum((R.dense_contraction(fd, fd, 1) - fd) ** 2))
            expect_close(float(rep["midpoint_norm_sq"]), mid, "midpoint norm")
            expect_close(float(rep["star_midpoint_norm_sq"]), float(np.sum(R.dense_star(fd, fd, 2) ** 2)), "star midpoint norm")
        elif kind == "fourth":
            expect_eq(rep["total"], mom[4], "fourth moment total")
            if law_kind(law) == "free":
                base_term = R.semicircle_quadratic_moment(vals, n, [1] * n, 4)
                expect_eq(rep["semicircular_term"], base_term, "semicircular term")
                expect_eq(rep["kappa4"], cum[4], "kappa4")
            else:
                expect_eq(rep["gaussian_term"], R.gaussian_quadratic_moment(vals, n, [1] * n, 4), "gaussian term")
                expect_eq(rep["chi4"], cum[4], "chi4")
        else:
            expect_close(rep["fourth_moment"], float(mom[4]), "fourth moment", 1e-12)
            tau = float(np.max(R.dense_influence(fd)))
            expect_close(rep["tau"], tau, "tau")
            m4 = float(lm[4])
            p1 = m4 * float(lm[4] + 2 * lm[2] + 1) + (m4 + 1.0) ** 2
            first = math.sqrt(p1 * max(float(mom[4]) - 3.0, 0.0) + 4.0 * (m4 + 1.0) * tau) / (2.0 * math.sqrt(2.0 * math.pi))
            rosenthal, abs_third = 4.0, 2.0
            second = 4.0 * rosenthal * abs_third**2 * math.sqrt(tau) / 3.0
            expect_close(rep["bound"], first + second, "stein bound")

    work = lambda: add_work(*(lattice_work((2,) * m, descs, n) for m in orders))
    return Job(name, run, check, work)


KERNEL_OPS = {"contraction": (K.contraction, R.dense_contraction), "star_contraction": (K.star_contraction, R.dense_star)}


def kernel_job(ctx: Ctx, name: str, base: dict, n: int, d: int, ops) -> Job:
    """Contractions ``ops`` = ((op, order), ...) of one kernel with itself, plus its influence profile."""
    perm, c = ctx.relabel(n)
    vals = transformed(base, perm, c)
    f = kernel(vals, n, d)

    @lazy
    def want():
        fd = R.dense(vals, n, d)
        return [KERNEL_OPS[op][1](fd, fd, q) for op, q in ops], R.dense_influence(fd)

    def run(call):
        out = [call(f"kernels.{op}", KERNEL_OPS[op][0], f, f, q) for op, q in ops]
        return out, call("kernels.influence", K.influence, f)

    def check(out):
        contractions, infl = out
        dense, influence = want()
        for (op, q), got, exp in zip(ops, contractions, dense):
            R.expect_dense(got.values, exp, f"{op} q={q}")
        for i, w in enumerate(influence):
            expect_close(float(infl[i]), w, f"influence {i + 1}")

    return Job(name, run, check, lambda: {"kernels.pairs_visited": len(ops) * len(vals) ** 2})


def cli_job(ctx: Ctx, name: str, layer_args: list, check_result: Callable[[dict], None]) -> Job:
    argv = [sys.executable, "-m", "homsum.cli", *layer_args]

    def check(out):
        code, stdout = out
        expect_eq(code, 0, f"exit code of {' '.join(layer_args[:1])}")
        check_result(json.loads(stdout)["result"])

    return Job(name, None, check, argv=argv)


def write_kernel(ctx: Ctx, fname: str, vals: dict, n: int, d: int) -> str:
    path = os.path.join(ctx.workdir, fname)
    with open(path, "w") as fh:
        fh.write(K.kernel_to_json(kernel(vals, n, d)))
    return path


def moments_wide(ctx: Ctx) -> list[Job]:
    jobs: list[Job] = []
    off9 = family_values("offdiag", 9)
    jobs.append(moment_job(ctx, "item1.q4_offdiag9_gaussian", off9, 9, 2, CLASSICAL[0], (4,), long_case=True))
    K2 = {n: base_kernel(f"K2-{n}", n, 2, 0.8) for n in range(5, 10)}
    for n in range(5, 10):
        for law in CLASSICAL + FREE:
            jobs.append(moment_job(ctx, f"moment3.n{n}.{law[0]}", K2[n], n, 2, law, (2, 3)))
    for law in CLASSICAL[:1] + FREE:
        jobs.append(moment_job(ctx, f"moment4.n5.{law[0]}", K2[5], 5, 2, law, (4,)))
    for law in FREE:
        jobs.append(moment_job(ctx, f"moment4.n6.{law[0]}", K2[6], 6, 2, law, (4,)))
    # per-index law lists, classical with mixed names and free with repeated names
    mixed = [("gaussian", {"sigma2": 2}), ("rademacher", {}), ("centered_poisson", {"lam": 2}),
             ("discrete3", {}), ("gaussian", {"sigma2": Fraction(1, 2)}), ("centered_poisson", {"lam": 1}),
             ("gaussian", {}), ("rademacher", {})]
    for n in (6, 7, 8):
        jobs.append(moment_job(ctx, f"noniid.classical.n{n}", K2[n], n, 2, mixed[:n], (2, 3)))
    gvars = [("gaussian", {"sigma2": s}) for s in (1, 2, 3, Fraction(1, 2), 1, 5, 2)]
    jobs.append(moment_job(ctx, "noniid.gaussian_variances.n7", K2[7], 7, 2, gvars, (2, 3)))
    semis = [("semicircle", {"sigma2": s}) for s in (1, 1, 5, 2, 1, 3, 1)]
    fpois = [("free_poisson_centered", {"lam": s}) for s in (1, 1, 3, 2, 1, 2)]
    jobs.append(moment_job(ctx, "noniid.semicircle_repeated.offdiag3", family_values("offdiag", 3), 3, 2, semis[:3], (2, 3, 4)))
    jobs.append(moment_job(ctx, "noniid.free_poisson_repeated.offdiag3", family_values("offdiag", 3), 3, 2,
                           [("free_poisson_centered", {"lam": s}) for s in (1, 1, 3)], (2, 3, 4)))
    for n in (5, 6):
        jobs.append(moment_job(ctx, f"noniid.semicircle_repeated.n{n}", K2[n], n, 2, semis[:n], (2, 3)))
        jobs.append(moment_job(ctx, f"noniid.free_poisson_repeated.n{n}", K2[n], n, 2, fpois[:n], (2, 3)))
    jobs.append(moment_job(ctx, "noniid.semicircle_repeated.q4.n5", K2[5], 5, 2, semis[:5], (4,)))
    # joint moments of two kernels
    K2b = {n: base_kernel(f"K2b-{n}", n, 2, 0.7) for n in (5, 6, 7)}
    K3 = {n: base_kernel(f"K3-{n}", n, 3, 0.5) for n in (5, 6)}
    for n in (6, 7):
        for law in (CLASSICAL[0], CLASSICAL[2], FREE[0], FREE[1]):
            for word in ((0, 1, 1), (1, 0, 1)):
                if law_kind(law) == "classical" and word == (1, 0, 1):
                    continue
                jobs.append(moment_job(ctx, f"joint.n{n}.{law[0]}.{''.join(map(str, word))}", K2[n], n, 2, law, None,
                                       word_kernels=[K2b[n]], word=word))
    for law in (CLASSICAL[0], CLASSICAL[3], FREE[0], FREE[2]):
        jobs.append(moment_job(ctx, f"joint.d3.n5.{law[0]}", K3[5], 5, 3, law, None, word_kernels=[K2b[5]], word=(0, 0, 1)))
    for law in (CLASSICAL[1], FREE[1]):
        jobs.append(moment_job(ctx, f"moment3.d3.n6.{law[0]}", K3[6], 6, 3, law, (2, 3)))
    for law in (CLASSICAL[2], CLASSICAL[3], FREE[0], FREE[2]):
        jobs.append(moment_job(ctx, f"moment3.d3.n5.{law[0]}", K3[5], 5, 3, law, (2, 3)))
    # reports
    for n in (5, 6):
        for law in FREE:
            jobs.append(report_job(ctx, f"fmt.n{n}.{law[0]}", "fmt", K2[n], n, law))
            jobs.append(report_job(ctx, f"fourth.n{n}.{law[0]}", "fourth", K2[n], n, law))
    jobs.append(report_job(ctx, "fourth.n5.rademacher", "fourth", K2[5], 5, CLASSICAL[1]))
    jobs.append(report_job(ctx, "noncentral.n5.free_poisson", "noncentral", K2[5], 5, FREE[1], Fraction(3, 2)))
    jobs.append(report_job(ctx, "noncentral.n6.free_poisson", "noncentral", K2[6], 6, FREE[1], Fraction(2)))
    jobs.append(report_job(ctx, "stein.n5.gaussian", "stein", K2[5], 5, CLASSICAL[0]))
    # kernel layer, n up to 40
    R2 = {n: base_kernel(f"R2-{n}", n, 2, 0.3) for n in (24, 32, 40)}
    N2 = base_kernel("N2-30", 30, 2, 0.3, symmetric=False)
    R3 = {n: base_kernel(f"R3-{n}", n, 3, 0.15) for n in (10, 12)}
    quadratic = (("contraction", 1), ("contraction", 2), ("star_contraction", 1), ("star_contraction", 2))
    for n, vals in R2.items():
        jobs.append(kernel_job(ctx, f"kernels.profile.n{n}", vals, n, 2, quadratic))
    jobs.append(kernel_job(ctx, "kernels.profile.asym30", N2, 30, 2, quadratic[:1] + quadratic[2:3]))
    for n, vals in R3.items():
        jobs.append(kernel_job(ctx, f"kernels.profile.d3.n{n}", vals, n, 3,
                               (("contraction", 1), ("contraction", 2), ("star_contraction", 2))))
    jobs.extend(moments_wide_cli(ctx, K2, R2))
    return jobs


def moments_wide_cli(ctx: Ctx, K2, R2) -> list[Job]:
    jobs = []
    half = write_kernel(ctx, "half.json", {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}, 2, 2)

    def half_check(res):
        expect_eq(res["value"], "9/1", "E[Q^4] of half.json")

    jobs.append(cli_job(ctx, "item1.cli_moment_half", ["moment", "--kernel", half, "--law", "gaussian", "--order", "4"], half_check))
    perm, c = ctx.relabel(6)
    path = write_kernel(ctx, "k2n6.json", transformed(K2[6], perm, c), 6, 2)
    want3 = ctx.ref("cli.moment.n6.centered_poisson", lambda: oracle_moment([K2[6]], [CLASSICAL[2]] * 6, (0, 0, 0))) * c**3

    def moment_check(res):
        expect_eq(Fraction(res["value"]), want3, "cli E[Q^3]")

    jobs.append(cli_job(ctx, "cli.moment.n6.centered_poisson",
                        ["moment", "--kernel", path, "--law", "centered_poisson", "--order", "3"], moment_check))
    perm, c = ctx.relabel(5)
    vals5 = transformed(K2[5], perm, c)
    path5 = write_kernel(ctx, "k2n5.json", vals5, 5, 2)
    ref4 = ctx.ref("cli.fmt.n5.semicircle", lambda: oracle_moment([K2[5]], [FREE[0]] * 5, (0,) * 4)) * c**4

    def fmt_check(res):
        expect_eq(Fraction(res["fourth_moment"]), ref4, "cli fmt fourth moment")
        expect_eq(Fraction(res["fourth_moment"]), R.semicircle_quadratic_moment(vals5, 5, [1] * 5, 4), "trace form")

    jobs.append(cli_job(ctx, "cli.fmt_check.n5.semicircle", ["fmt-check", "--kernel", path5, "--law", "semicircle"], fmt_check))
    perm, c = ctx.relabel(32)
    vals32 = transformed(R2[32], perm, c)
    path32 = write_kernel(ctx, "r2n32.json", vals32, 32, 2)
    c32 = lazy(lambda: R.dense_contraction(R.dense(vals32, 32, 2), R.dense(vals32, 32, 2), 1))

    def contract_check(res):
        got = {tuple(e["idx"]): Fraction(e["val"]) for e in res["entries"]}
        R.expect_dense(got, c32(), "cli contraction")

    jobs.append(cli_job(ctx, "cli.contract.n32", ["contract", "--kernel", path32, "--order", "1"], contract_check))
    return jobs


# ---------------------------------------------------------------------------
# exact-deep


PARAMS = (Fraction(2, 3), Fraction(3, 2), Fraction(3, 4), Fraction(4, 3))
PARAM_NAME = {"gaussian": "sigma2", "semicircle": "sigma2", "centered_poisson": "lam",
              "free_poisson_centered": "lam", "gamma_f": "nu"}


def seeded_law(ctx: Ctx, name: str):
    key = PARAM_NAME.get(name)
    return (name, {key: ctx.rnd.choice(PARAMS)} if key else {})


def count_job(name: str, n: int, filt, want: int, fn=None, args=None, long_case: bool = False) -> Job:
    fn = fn or P.count_partitions
    args = args if args is not None else (n, filt)

    def run(call):
        return call(f"partitions.{fn.__name__}", fn, *args)

    def check(out):
        expect_eq(out, want, name)

    return Job(name, run, check, lambda: {"partitions.yielded": want}, long_case=long_case)


def moebius_job(ctx: Ctx, name: str, blocks, n: int, long_case: bool = False) -> Job:
    r = ctx.rnd.randrange(n)
    rotated = [[(x - 1 + r) % n + 1 for x in b] for b in blocks]
    sigma = P.SetPartition.from_blocks(n, rotated)
    want = lazy(lambda: Fraction(R.nc_moebius_to_top(rotated, n)))

    def run(call):
        return call("partitions.moebius_to_top", P.moebius_to_top, sigma, "noncrossing")

    def check(out):
        expect_eq(out, want(), f"NC Moebius of {sigma}")

    return Job(name, run, check, long_case=long_case)


def law_build_job(ctx: Ctx, name: str, laws: list) -> Job:
    descs = [seeded_law(ctx, law) for law in laws]

    def run(call):
        return [call("laws.builtin_law", L.builtin_law, nm, LAW_ORDER, **p) for nm, p in descs]

    def check(out):
        for law, (nm, p) in zip(out, descs):
            expect_eq(law.moments, R.law_moments(nm, LAW_ORDER, **p), f"moments of {nm} {p}")
            expect_eq(law.cumulants, R.law_cumulants(nm, LAW_ORDER, **p), f"cumulants of {nm} {p}")

    return Job(name, run, check)


def convert_job(ctx: Ctx, name: str, laws: list, direction: str) -> Job:
    descs = [seeded_law(ctx, law) for law in laws]
    kinds = [law_kind(d) for d in descs]
    moms = lambda: [R.law_moments(nm, LAW_ORDER, **p) for nm, p in descs]
    cums = lambda: [R.law_cumulants(nm, LAW_ORDER, **p) for nm, p in descs]
    inputs, wants = (moms(), lazy(cums)) if direction == "moments_to_cumulants" else (cums(), lazy(moms))

    def run(call):
        return [call("laws.convert", L.convert, seq, direction, kind) for seq, kind in zip(inputs, kinds)]

    def check(out):
        for got, want, d in zip(out, wants(), descs):
            expect_eq(tuple(got[1:]), tuple(want[1:]), f"{direction} for {d}")

    return Job(name, run, check)


def cumulant_job(ctx: Ctx, name: str, law: str, n: int) -> Job:
    nm, p = seeded_law(ctx, law)
    kind = law_kind((nm, p))
    moms = R.law_moments(nm, LAW_ORDER, **p)
    want = lazy(lambda: R.law_cumulants(nm, LAW_ORDER, **p)[n])

    def oracle(block):
        return moms[len(block)]

    def run(call):
        return call("laws.multivariate_cumulant", L.multivariate_cumulant, oracle, n, kind)

    def check(out):
        expect_eq(out, want(), f"{kind} cumulant of order {n} of {nm}")

    return Job(name, run, check)


def wick_job(ctx: Ctx, name: str, base: dict, n: int, d: int, h: int, m: int, mode: str) -> Job:
    perm, c = ctx.relabel(n)
    lk = K.lift(kernel(transformed(base, perm, c), n, d), (h,) * d)

    def compute():
        # X_i -> He_h(X_i) or U_h(S_i): moments are respectful pairing counts
        counter = R.pairings_across if mode == "classical" else R.nc_pairings_across
        moms = [Fraction(1)] + [Fraction(counter(h, k)) for k in range(1, d * m + 1)]
        if mode == "classical":
            return R.classical_moment([base] * m, lambda i: moms)
        cums = R.cumulants_from_moments(moms, "free")
        return R.free_moment([base] * m, lambda i: cums)

    want = ctx.ref(name, compute) * c**m

    def run(call):
        return call("moments.wick_moment", M.wick_moment, lk, m, mode)

    def check(out):
        expect_eq(out, want, f"wick moment {mode} h={h} m={m}")

    def work():
        filt = P.PartitionFilter(noncrossing=mode == "free", allowed_block_sizes=frozenset({2}),
                                 respects=P.interval_partition(h, d * m))
        return {"moments.partitions_used": P.count_partitions(h * d * m, filt, cap=max(14, h * d * m))}

    return Job(name, run, check, work)


def functional(desc, order: int = LAW_ORDER) -> O.MomentFunctional:
    return O.MomentFunctional.from_law(law_spec(desc, order))


DRAWS = 6  # seeded parameter draws per batched orthopoly job


def hankel_job(ctx: Ctx, name: str, law: str, ns) -> Job:
    descs = [seeded_law(ctx, law) for _ in range(DRAWS)]
    Fs = [functional(d) for d in descs]

    def run(call):
        return [[call("orthopoly.hankel_det", O.hankel_det, F, n) for n in ns] for F in Fs]

    def check(out):
        for desc, reps in zip(descs, out):
            for n, rep in zip(ns, reps):
                want = R.hankel_det(desc[0], n, **desc[1])
                expect_eq((rep["det"], rep["vandermonde_sq_expectation"]), (want, math.factorial(n) * want),
                          f"Hankel {desc} n={n}")

    return Job(name, run, check)


def det_job(ctx: Ctx, name: str, size: int, count: int) -> Job:
    mats = [[[Fraction(ctx.rnd.randint(-6, 6), ctx.rnd.randint(1, 5)) for _ in range(size)] for _ in range(size)]
            for _ in range(count)]
    wants = lazy(lambda: [R.fraction_det(a) for a in mats])

    def run(call):
        return [call("orthopoly.exact_det", O.exact_det, a) for a in mats]

    def check(out):
        expect_eq(out, wants(), f"{size}x{size} determinants")

    return Job(name, run, check)


def annihilates(p, rows, what: str) -> None:
    for r, row in enumerate(rows):
        expect_eq(sum((c * a for c, a in zip(p, row)), Fraction(0)), 0, f"{what}: row {r} not annihilated")


def check_gops(p, desc, groups, n: int, m: int) -> None:
    """p_{n,m} annihilates every row of its moment determinant; for m = 1 it is
    proportional to the monic orthogonal polynomial of the closed-form recurrence."""
    expect_eq(len(p), n + 1, f"degree of p_{n},{m}")
    if m == 1:
        al, be = R.recurrence(desc[0], n, **desc[1])
        expect_eq(tuple(c / p[-1] for c in p), R.monic_ops(al, be)[n], f"p_{n},1 against the monic polynomial")
    rows = [[groups[0][s + j] for j in range(n + 1)] for s in range(n - m + 1)]
    rows += [[groups[g - 1 if g - 1 < len(groups) else 0][j] for j in range(n + 1)] for g in range(2, m + 1)]
    annihilates(p, rows, f"p_{n},{m}")


def gops_job(ctx: Ctx, name: str, route: str, main: str, n: int, m: int, extras=()) -> Job:
    desc = (main, {})
    extra = [seeded_law(ctx, e) for e in extras]
    F = O.MomentFunctional.from_law(law_spec(desc), *(law_spec(e) for e in extra))
    groups = lazy(lambda: [ref_moments(desc)] + [ref_moments(e) for e in extra])
    fn = O.gops_determinant if route == "determinant" else O.gops_expectation

    def run(call):
        return call(f"orthopoly.gops_{route}", fn, F, n, m)

    def check(p):
        check_gops(p, desc, groups(), n, m)

    r = n - m + 1
    perm = math.factorial(r) * math.factorial(n + 1) if route == "expectation" else 0
    return Job(name, run, check, lambda: {"orthopoly.perm_terms": perm})


def gops_det_batch(ctx: Ctx, name: str, law: str, ns) -> Job:
    descs = [seeded_law(ctx, law) for _ in range(DRAWS)]
    Fs = [functional(d) for d in descs]

    def run(call):
        return [[call("orthopoly.gops_determinant", O.gops_determinant, F, n, 1) for n in ns] for F in Fs]

    def check(out):
        for desc, ps in zip(descs, out):
            for n, p in zip(ns, ps):
                check_gops(p, desc, [ref_moments(desc)], n, 1)

    return Job(name, run, check)


def recurrence_job(ctx: Ctx, name: str, law: str, N: int) -> Job:
    descs = [seeded_law(ctx, law) for _ in range(DRAWS)]
    Fs = [functional(d) for d in descs]

    def run(call):
        return [call("orthopoly.recurrence_coeffs", O.recurrence_coeffs, F, N) for F in Fs]

    def check(out):
        for desc, rec in zip(descs, out):
            al, be = R.recurrence(desc[0], N, **desc[1])
            expect_eq((rec["alphas"], rec["betas"]), (al, be), f"recurrence of {desc}")
            expect_eq(rec["polys"], tuple(R.monic_ops(al, be)), f"monic polynomials of {desc}")

    return Job(name, run, check)


def quadrature_job(ctx: Ctx, name: str, law: str, ns) -> Job:
    # default parameters: with sigma2 = 3/2 the seven-node Gaussian rule
    # already misses its 1e-9 exactness tolerance
    descs = [(law, {})]
    Fs = [functional(d) for d in descs]

    def run(call):
        return [[call("orthopoly.quadrature_rule", O.quadrature_rule, F, n) for n in ns] for F in Fs]

    def check(out):
        worst = 0.0
        for desc, rules in zip(descs, out):
            moms = ref_moments(desc)
            for n, rule in zip(ns, rules):
                al, be = R.recurrence(desc[0], n, **desc[1])
                nodes = np.sort(np.roots([float(c) for c in reversed(R.monic_ops(al, be)[n])]).real)
                for k in range(2 * n):
                    got = sum(w * z**k for w, z in zip(rule.weights, rule.nodes))
                    expect_close(got, float(moms[k]), f"{desc} rule n={n} moment {k}", 1e-8)
                for got, want in zip(sorted(z.real for z in rule.nodes), nodes):
                    expect_close(got, want, f"{desc} Gauss node n={n}", 1e-7)
                worst = max(worst, rule.max_residual)
        return {"orthopoly.max_residual": worst}

    return Job(name, run, check)


def discriminant_reference(desc, N: int, k: int) -> Fraction:
    name, p = desc
    if name == "gaussian":
        return R.mehta_gaussian(N, k, p.get("sigma2", 1))
    if name == "uniform_centered":
        return R.selberg_uniform(N, k)
    if name == "discrete3":
        return R.discrete_discriminant(DISCRETE3["values"], DISCRETE3["probs"], N, k)
    raise ValueError(name)


def discriminant_job(ctx: Ctx, name: str, law: str, N: int, k: int, method: str) -> Job:
    # unit variance throughout: with sigma2 = 3/2 the N = 4, k = 2 Gauss rule
    # already misses its 1e-9 exactness tolerance
    desc = (law, {})
    F = functional(desc, max(LAW_ORDER, 2 * k * (N - 1) + 2) if law == "gaussian" else LAW_ORDER)
    want = lazy(lambda: discriminant_reference(desc, N, k))

    def run(call):
        return call(f"orthopoly.discriminant_moment.{method}", O.discriminant_moment, F, N, k, method)

    def check(out):
        if method == "quadrature":
            expect_close(out, float(want()), f"E[Delta^{2 * k}] N={N} by quadrature", 1e-6)
        else:
            expect_eq(out, want(), f"E[Delta^{2 * k}] N={N} by {method}")

    nodes = k * (N - 1) + 1
    work = {"orthopoly.quad_points": nodes**N} if method == "quadrature" else {}
    return Job(name, run, check, lambda: work)


def lu_job(ctx: Ctx, name: str) -> Job:
    grid = [(N, k, ctx.rnd.choice(PARAMS)) for N in range(2, 8) for k in range(1, 5)]
    F = functional(("gaussian", {}))

    def run(call):
        return [call("orthopoly.discriminant_moment.lu_gaussian", O.discriminant_moment, F, N, k, "lu_gaussian", s2)
                for N, k, s2 in grid]

    def check(out):
        expect_eq(out, [R.mehta_gaussian(N, k, s2) for N, k, s2 in grid], "Lu closed form against Mehta")

    return Job(name, run, check)


def sylvester_job(ctx: Ctx, name: str, n: int, k: int, mode: str) -> Job:
    desc = ("gaussian", {})
    F = functional(desc, 4 * n * max(k, 1) + 2)

    def run(call):
        return call(f"orthopoly.sylvester_decompose.{mode}", O.sylvester_decompose, F, n, k, mode)

    def check(dec):
        if mode == "appel":
            x, w = np.polynomial.hermite_e.hermegauss(n)
            w = w / math.sqrt(2 * math.pi)
            for got, want in zip(sorted(dec.nodes, key=lambda z: z.real), x):
                expect_close(got, want, "appel node", 1e-8)
            for got, want in zip([w_ for _, w_ in sorted(zip([z.real for z in dec.nodes], dec.weights))], w):
                expect_close(got, want, "appel weight", 1e-8)
            expect(dec.consistent, "appel decomposition inconsistent")
        else:
            want = R.mehta_gaussian(n, k)
            expect_eq(dec.target, want, "Sylvester target")
            if dec.consistent:
                expect_close(dec.weight_sum, float(want), "Sylvester weight sum", 1e-6)

    return Job(name, run, check)


def multi_gops_job(ctx: Ctx, name: str, descs: list, n: tuple, m: tuple, shifts: tuple) -> Job:
    specs = [law_spec(d) for d in descs]

    def shifted(seq, t):
        return [sum((math.comb(k, j) * seq[j] * t ** (k - j) for j in range(k + 1)), Fraction(0)) for k in range(len(seq))]

    def table(seqs, k):
        return math.prod((s[e] for s, e in zip(seqs, k)), start=Fraction(1))

    @lazy
    def group_seqs():
        moms = [ref_moments(d) for d in descs]
        return [moms] + [[shifted(s, Fraction(t)) for s in moms] for t in shifts]

    def run(call):
        F = O.MultiMomentFunctional.from_product_laws(specs, n, shifts)
        return call("orthopoly.multi_gops_determinant", O.multi_gops_determinant, F, n, m)

    def check(p):
        ks = sorted(itertools.product(*(range(x + 1) for x in n)), key=lambda k: (sum(k), k))
        hs = sorted(itertools.product(*(range(a - b + 1) for a, b in zip(n, m))), key=lambda k: (sum(k), k))
        seq_groups = group_seqs()
        rows = [[table(seq_groups[0], tuple(a + b for a, b in zip(k, h))) for k in ks] for h in hs]
        for g in range(2, len(ks) - len(hs) + 1):
            seqs = seq_groups[g - 1] if g - 1 < len(seq_groups) else seq_groups[0]
            rows.append([table(seqs, k) for k in ks])
        coeffs = [p.get(k, Fraction(0)) for k in ks]
        expect(coeffs[-1] != 0, "leading coefficient vanishes")
        annihilates(coeffs, rows, f"multivariate p_{n},{m}")

    return Job(name, run, check)


NC9_SHAPE = [[1], [2], [3, 4, 5], [6], [7], [8], [9]]


def exact_deep(ctx: Ctx) -> list[Job]:
    jobs: list[Job] = []
    nc = P.PartitionFilter(noncrossing=True)
    pairs = P.PartitionFilter(allowed_block_sizes=frozenset({2}))
    ncpairs = P.PartitionFilter(noncrossing=True, allowed_block_sizes=frozenset({2}))
    jobs.append(count_job("item1.bell11", 11, P.PartitionFilter(), R.bell(11), long_case=True))
    jobs.append(count_job("item1.nc12", 12, nc, R.catalan(12), long_case=True))
    jobs.append(moebius_job(ctx, "item1.nc_moebius_bottom8", [[x] for x in range(1, 9)], 8, long_case=True))
    jobs.append(count_job("count.all.9", 9, P.PartitionFilter(), R.bell(9)))
    jobs.append(count_job("count.nc.10", 10, nc, R.catalan(10)))
    for n in (10, 12):
        jobs.append(count_job(f"count.pairings.{n}", n, pairs, R.odd_double_factorial(n)))
    for n in (12, 14):
        jobs.append(count_job(f"count.nc_pairings.{n}", n, ncpairs, R.catalan(n // 2)))
    for n in (9, 10, 11):
        jobs.append(count_job(f"riordan.{n}", n, None, R.riordan(n), P.riordan, (n,)))
    for d, m in ((2, 5), (3, 4), (2, 6), (4, 3)):
        jobs.append(count_job(f"respectful.classical.{d}x{m}", d * m, None, R.pairings_across(d, m),
                              P.respectful_pairings, (d, m, "classical")))
        jobs.append(count_job(f"respectful.noncrossing.{d}x{m}", d * m, None, R.nc_pairings_across(d, m),
                              P.respectful_pairings, (d, m, "noncrossing")))
    jobs.append(moebius_job(ctx, "moebius.nc9.shape1", NC9_SHAPE, 9))
    jobs.append(moebius_job(ctx, "moebius.nc7.bottom", [[x] for x in range(1, 8)], 7))
    # laws
    classical = ["gaussian", "centered_poisson", "gamma_f", "rademacher", "uniform_centered"]
    free = ["semicircle", "free_poisson_centered", "free_rademacher", "tetilla"]
    for rep in range(3):
        jobs.append(law_build_job(ctx, f"laws.build.classical.{rep}", classical))
        jobs.append(law_build_job(ctx, f"laws.build.free.{rep}", free))
        for direction in ("moments_to_cumulants", "cumulants_to_moments"):
            jobs.append(convert_job(ctx, f"laws.convert.classical.{direction}.{rep}", classical, direction))
            jobs.append(convert_job(ctx, f"laws.convert.free.{direction}.{rep}", free, direction))
    for n in (7, 8):
        jobs.append(cumulant_job(ctx, f"laws.cumulant.classical.{n}", "centered_poisson", n))
        jobs.append(cumulant_job(ctx, f"laws.cumulant.classical_gamma.{n}", "gamma_f", n))
    for n in (5, 6):
        jobs.append(cumulant_job(ctx, f"laws.cumulant.free.{n}", "free_poisson_centered", n))
        jobs.append(cumulant_job(ctx, f"laws.cumulant.free_tetilla.{n}", "tetilla", n))
    # deep moments: n = 2..4, D = 9..12
    K3n4 = base_kernel("K3-4", 4, 3, 0.8)
    K2n3 = base_kernel("K2-3", 3, 2, 1.0)
    K2n2 = family_values("offdiag", 2)
    K4n4 = base_kernel("K4-4", 4, 4, 1.0)
    K3n3 = base_kernel("K3-3", 3, 3, 1.0)
    for law in (CLASSICAL[2], CLASSICAL[3], FREE[1], FREE[2]):
        jobs.append(moment_job(ctx, f"deep.d3n4m3.{law[0]}", K3n4, 4, 3, law, (3,)))
    # 5,120 lattice partitions with few assignments each: per-partition overhead
    jobs.append(moment_job(ctx, "deep.d2n2m5.centered_poisson", K2n2, 2, 2, CLASSICAL[2], (5,)))
    for law in FREE:
        jobs.append(moment_job(ctx, f"deep.d2n3m5.{law[0]}", K2n3, 3, 2, law, (5,)))
    for law in FREE:
        jobs.append(moment_job(ctx, f"deep.d2n2m6.{law[0]}", K2n2, 2, 2, law, (6,)))
        jobs.append(moment_job(ctx, f"deep.d4n4m3.{law[0]}", K4n4, 4, 4, law, (3,)))
        jobs.append(moment_job(ctx, f"deep.d3n3m4.{law[0]}", K3n3, 3, 3, law, (4,)))
    for mode in ("classical", "free"):
        jobs.append(wick_job(ctx, f"wick.h2.d2n3m3.{mode}", K2n3, 3, 2, 2, 3, mode))
        jobs.append(wick_job(ctx, f"wick.h3.d2n3m2.{mode}", K2n3, 3, 2, 3, 2, mode))
        jobs.append(wick_job(ctx, f"wick.h2.d2n4m2.{mode}", base_kernel("K2-4", 4, 2, 1.0), 4, 2, 2, 2, mode))
    # orthopoly
    for law in ("gaussian", "semicircle", "centered_poisson", "gamma_f", "uniform_centered"):
        jobs.append(hankel_job(ctx, f"hankel.{law}", law, (4, 5, 6, 7)))
        jobs.append(recurrence_job(ctx, f"recurrence.{law}", law, 7))
        jobs.append(gops_det_batch(ctx, f"gops.det.{law}", law, (5, 6, 7)))
    for i in range(3):
        jobs.append(det_job(ctx, f"exact_det.16x16.{i}", 16, 3))
    jobs.append(gops_job(ctx, "gops.det.multigroup.n6m2", "determinant", "gaussian", 6, 2, ("centered_poisson",)))
    jobs.append(gops_job(ctx, "gops.det.multigroup.n6m3", "determinant", "gaussian", 6, 3, ("centered_poisson", "gamma_f")))
    for law, n, m, extras in (("gaussian", 4, 1, ()), ("gaussian", 5, 1, ()), ("semicircle", 4, 1, ()),
                              ("gaussian", 5, 2, ("centered_poisson",)), ("gaussian", 6, 4, ("centered_poisson", "gamma_f", "uniform_centered"))):
        jobs.append(gops_job(ctx, f"gops.expectation.{law}.n{n}m{m}", "expectation", law, n, m, extras))
    for law, ns in (("gaussian", (5, 6, 7)), ("semicircle", (5, 6, 7)), ("uniform_centered", (4, 5, 6)),
                    ("centered_poisson", (3, 4, 5))):
        jobs.append(quadrature_job(ctx, f"quadrature.{law}", law, ns))
    jobs.append(discriminant_job(ctx, "item1.discriminant_N4_k2_expansion", "gaussian", 4, 2, "expansion"))
    jobs.append(discriminant_job(ctx, "item1.discriminant_N4_k2_quadrature", "gaussian", 4, 2, "quadrature"))
    for law, N, k, method in (("gaussian", 3, 2, "expansion"), ("gaussian", 5, 1, "expansion"),
                              ("uniform_centered", 3, 2, "expansion"), ("uniform_centered", 4, 1, "expansion"),
                              ("discrete3", 3, 2, "expansion"), ("gaussian", 3, 2, "quadrature"),
                              ("gaussian", 5, 1, "quadrature"), ("uniform_centered", 3, 2, "quadrature"),
                              ):
        jobs.append(discriminant_job(ctx, f"discriminant.{law}.N{N}k{k}.{method}", law, N, k, method))
    jobs.append(lu_job(ctx, "discriminant.lu_gaussian.grid"))
    for n in (4, 5, 6):
        jobs.append(sylvester_job(ctx, f"sylvester.appel.n{n}", n, 1, "appel"))
    for n, k in ((2, 2), (3, 1), (2, 3)):
        jobs.append(sylvester_job(ctx, f"sylvester.discriminant.n{n}k{k}", n, k, "discriminant"))
    gamma3 = ("gamma_f", {"nu": 3})
    jobs.append(multi_gops_job(ctx, "multi_gops.n22.m10", [("gaussian", {}), ("centered_poisson", {})], (2, 2), (1, 0), (1, 2)))
    jobs.append(multi_gops_job(ctx, "multi_gops.n22.m01", [("gaussian", {}), gamma3], (2, 2), (0, 1), (1, 2, 3)))
    jobs.append(multi_gops_job(ctx, "multi_gops.n22.m01.cp", [("centered_poisson", {}), gamma3], (2, 2), (0, 1), (1, 2, 3, 4)))
    jobs.extend(exact_deep_cli(ctx))
    return jobs


def exact_deep_cli(ctx: Ctx) -> list[Job]:
    def count_check(res):
        expect_eq(res["count"], R.catalan(9), "NC(9) count")

    def disc_check(res):
        expect_close(float(Fraction(res["value"])) if isinstance(res["value"], str) else res["value"], 4320.0,
                     "E[Delta^4], N=3", 1e-6)

    monic = lazy(lambda: R.monic_ops(*R.recurrence("gaussian", 6))[6])

    def gops_check(res):
        p = [Fraction(c) for c in res["determinant_route"]]
        expect_eq(tuple(c / p[-1] for c in p), monic(), "p_6,1 against the monic Hermite polynomial")

    return [
        cli_job(ctx, "cli.partitions.nc9", ["partitions", "--n", "9", "--noncrossing"], count_check),
        cli_job(ctx, "cli.discriminant.N3k2", ["discriminant", "--law", "gaussian", "--N", "3", "--k", "2",
                                               "--method", "quadrature"], disc_check),
        cli_job(ctx, "cli.gops.n6", ["gops", "--law", "gaussian", "--n", "6"], gops_check),
    ]


# ---------------------------------------------------------------------------
# montecarlo


SAMPLER_LAWS = [("gaussian", {}), ("rademacher", {}), ("centered_poisson", {"lam": 2}),
                ("uniform_centered", {}), ("discrete", {"values": ["-2", "0", "1"], "probs": ["1/6", "1/2", "1/3"]})]
JUMPS = {"values": ["-1", "2"], "probs": ["2/3", "1/3"]}


def sampler(ctx: Ctx, law) -> S.Sampler:
    name, params = law
    params = {k: (float(Fraction(v)) if not isinstance(v, list) else v) for k, v in params.items()}
    return S.Sampler(name, ctx.mc_seed(), params)


def exact_moments(law, order: int):
    name, params = law
    return R.law_moments(name, order, **params)


def mc_job(ctx: Ctx, name: str, op: str, fn, args: tuple, check, summary, work: dict) -> Job:
    """A Monte Carlo job: gates on every seed, a digest of ``summary(out)`` on the default seed."""
    def run(call):
        return call(op, fn, *args)

    want = None
    if ctx.default or ctx.generating:
        want = ctx.ref(f"digest.{name}", lambda: R.digest(summary(fn(*args))))

    def full_check(out):
        obs = check(out)
        if want is not None:
            expect_eq(R.digest(summary(out)), want, "digest of the default-seed Monte Carlo output")
        return obs

    return Job(name, run, full_check, lambda: work)


def z_gate(est: float, target: float, se: float, what: str) -> float:
    z = (est - target) / se if se > 0 else 0.0
    expect(abs(z) <= 5.0, f"{what}: estimate {est} is {z:.2f} standard errors from {target}")
    return abs(z)


def self_test_job(ctx: Ctx, name: str, law, draws: int) -> Job:
    smp = sampler(ctx, law)
    task = ctx.rnd.randrange(1000)
    moms = lazy(lambda: [float(m) for m in exact_moments(law, 8)])

    def check(rep):
        moms_ = moms()
        worst = 0.0
        for row in rep["rows"]:
            k = row["order"]
            se = math.sqrt(max(moms_[2 * k] - moms_[k] ** 2, 1e-300) / draws)
            worst = max(worst, z_gate(row["estimate"], moms_[k], se, f"{law[0]} moment {k}"))
        expect(rep["passed"], "self test not passed")
        return {"stochsim.max_abs_z": worst}

    return mc_job(ctx, name, "stochsim.moment_self_test", smp.moment_self_test, (draws, task), check,
                  lambda rep: [r["estimate"] for r in rep["rows"]], {"stochsim.draws": draws, "stochsim.streams": 1})


def float_kernel(values: dict, n: int, d: int) -> K.Kernel:
    return K.scale_to_unit_variance(kernel(values, n, d), "classical")


def sample_job(ctx: Ctx, name: str, values: dict, n: int, d: int, law, trials: int) -> Job:
    perm, c = ctx.relabel(n)
    f = float_kernel(transformed(values, perm, c), n, d)
    smp = sampler(ctx, law)
    task = ctx.rnd.randrange(1000)
    # E[Q] = 0 and, for symmetric f with d! sum f^2 = 1, E[Q^2] = var(X)^d
    var = lazy(lambda: float(exact_moments(law, 2)[2]) ** d)

    def check(q):
        expect_eq(q.shape, (trials,), "sample shape")
        se1 = float(np.std(q)) / math.sqrt(trials)
        q2 = q * q
        se2 = float(np.std(q2)) / math.sqrt(trials)
        z = max(z_gate(float(np.mean(q)), 0.0, se1, "sample mean"), z_gate(float(np.mean(q2)), var(), se2, "sample variance"))
        return {"stochsim.max_abs_z": z}

    return mc_job(ctx, name, "stochsim.sample_homsum", S.sample_homsum, (f, smp, trials, task), check,
                  lambda q: q.tobytes(), {"stochsim.draws": trials * n, "stochsim.streams": 1})


def w1_job(ctx: Ctx, name: str, size: int, two_sample: bool) -> Job:
    rng = np.random.default_rng(ctx.mc_seed())
    x = rng.standard_normal(size) * 1.1 + 0.05
    ref = rng.standard_normal(size) if two_sample else "standard_normal_quantiles"

    @lazy
    def want():
        if two_sample:
            return float(np.mean(np.abs(np.sort(x) - np.sort(ref))))
        nd = statistics.NormalDist()
        q = np.array([nd.inv_cdf((i + 0.5) / size) for i in range(size)])
        return float(np.mean(np.abs(np.sort(x) - q)))

    def run(call):
        return call("stochsim.wasserstein1_empirical", S.wasserstein1_empirical, x, ref)

    def check(out):
        expect_close(out, want(), "empirical W1", 1e-12)

    return Job(name, run, check)


def gap_reference(values: dict, c2: float, chi_a: Fraction, chi_b: Fraction) -> float:
    """|E[Q_A^4] - E[Q_B^4]| for the unit-variance rescaling (sum f^2 = 1):
    (chi_A - chi_B) C1 + (chi_A^2 - chi_B^2) C2 with C1 = 48 sum_k (sum_j f_kj^2)^2
    and C2 = 8 sum f^4, evaluated on the exact kernel and rescaled by c^4."""
    rows: dict = {}
    for (i, _), v in values.items():
        rows[i] = rows.get(i, Fraction(0)) + v * v
    c1 = 48 * sum((w * w for w in rows.values()), Fraction(0))
    c2_ = 8 * sum((v**4 for v in values.values()), Fraction(0))
    return c2 * c2 * abs(float((chi_a - chi_b) * c1 + (chi_a**2 - chi_b**2) * c2_))


def invariance_job(ctx: Ctx, name: str, family: str, sizes, trials: int) -> Job:
    fam = K.offdiag_kernel if family == "offdiag" else K.star_kernel
    sa, sb = sampler(ctx, ("gaussian", {})), sampler(ctx, ("rademacher", {}))
    chi = {"gaussian": Fraction(0), "rademacher": Fraction(-2)}

    def check(rows):
        for n, row in zip(sizes, rows):
            vals = family_values(family, n)
            c2 = 1.0 / len(vals)
            fd = R.dense(vals, n, 2) * math.sqrt(c2)
            expect_close(row["tau"], float(np.max(R.dense_influence(fd))), f"tau at n={n}", 1e-12)
            expect(row["moment4_gap_exact"], f"closed-form gap not used at n={n}")
            expect_close(row["moment4_gap"], gap_reference(vals, c2, chi["gaussian"], chi["rademacher"]), f"gap at n={n}", 1e-12)
            expect(0.0 <= row["w1_empirical"] < 1.0, f"W1 {row['w1_empirical']} at n={n}")

    draws = sum(2 * trials * n for n in sizes)
    return mc_job(ctx, name, "stochsim.invariance_decay_experiment", S.invariance_decay_experiment,
                  (fam, sa, sb, sizes, (4,), trials), check,
                  lambda rows: [r["w1_empirical"] for r in rows], {"stochsim.draws": draws, "stochsim.streams": 2 * len(sizes)})


def kstat_job(ctx: Ctx, name: str, measure: str, order: int, refinement: int, paths: int) -> Job:
    seed = ctx.mc_seed()
    lam, T = 2.0, 1.0
    if measure == "gaussian":
        cell, target = S.gaussian_cell_sampler, T if order == 2 else 0.0
    else:
        vals = np.array([float(Fraction(v)) for v in JUMPS["values"]])
        probs = np.array([float(Fraction(p)) for p in JUMPS["probs"]])
        cell = S.compound_poisson_cell_sampler(lam, lambda rng, k: rng.choice(vals, size=k, p=probs))
        target = T * lam * float(R.law_moments("discrete", order, **JUMPS)[order])
    args = (cell, target, order, refinement, paths, T, seed)

    def check(rep):
        expect_eq((rep["paths"], rep["refinement"], rep["target"]), (paths, refinement, target), "kstat record")
        return {"stochsim.max_abs_z": z_gate(rep["estimate"], target, rep["se"], f"kappa_{order} statistic")}

    return mc_job(ctx, name, "stochsim.kstat_experiment", S.kstat_experiment, args, check,
                  lambda rep: [rep["estimate"], rep["se"]], {"stochsim.draws": paths * refinement, "stochsim.streams": paths})


def levy_job(ctx: Ctx, name: str, orders: tuple, sigma2: float, paths: int) -> Job:
    jump = sampler(ctx, ("discrete", JUMPS))
    law = L.law_from_json(json.dumps({
        "name": "jumps", "kind": "classical",
        "moments": [f"{m.numerator}/{m.denominator}" for m in R.law_moments("discrete", 10, **JUMPS)]}))
    seed = ctx.mc_seed()
    lam, T = 2.0, 1.0
    total = sum(orders)
    target = lazy(lambda: T * lam * float(R.law_moments("discrete", 10, **JUMPS)[total]) + (sigma2 * T if total == 2 else 0.0))
    args = (lam, jump, law, sigma2, T, orders, paths, seed)

    def check(rep):
        expect_close(rep["target"], target(), "variations target", 1e-12)
        return {"stochsim.max_abs_z": z_gate(rep["estimate"], target(), rep["se"], f"joint cumulant of variations {orders}")}

    return mc_job(ctx, name, "stochsim.variations_cumulant_check", S.variations_cumulant_check, args, check,
                  lambda rep: [rep["estimate"], rep["se"]], {"stochsim.draws": paths, "stochsim.streams": 2 * paths})


def montecarlo(ctx: Ctx) -> list[Job]:
    jobs: list[Job] = []
    jobs.append(kstat_job(ctx, "item1.kstat_1000x800", "gaussian", 2, 1000, 800))
    for rep in range(4):
        for law in SAMPLER_LAWS:
            jobs.append(self_test_job(ctx, f"self_test.{law[0]}.{rep}", law, 150_000))
    for family, n, trials in (("offdiag", 8, 20_000), ("offdiag", 16, 10_000), ("offdiag", 32, 2000),
                              ("offdiag", 64, 2000), ("star", 16, 20_000), ("star", 64, 10_000)):
        for law in SAMPLER_LAWS:
            jobs.append(sample_job(ctx, f"sample.{family}{n}.{law[0]}", family_values(family, n), n, 2, law, trials))
    R3 = base_kernel("MC3-12", 12, 3, 0.3)
    for law in SAMPLER_LAWS:
        jobs.append(sample_job(ctx, f"sample.random_d3n12.{law[0]}", R3, 12, 3, law, 2000))
    for i in range(13):
        jobs.append(w1_job(ctx, f"w1.normal_quantiles.{i}", 20_000, False))
        jobs.append(w1_job(ctx, f"w1.two_sample.{i}", 200_000, True))
    for family in ("offdiag", "star"):
        for rep in range(2):
            jobs.append(invariance_job(ctx, f"invariance.{family}.{rep}", family, (4, 8, 16, 32), 2000))
    for measure, order in (("gaussian", 2), ("compound_poisson", 2), ("compound_poisson", 3), ("compound_poisson", 4)):
        for refinement, paths in ((100, 400), (500, 200)):
            jobs.append(kstat_job(ctx, f"kstat.{measure}.k{order}.{refinement}x{paths}", measure, order, refinement, paths))
    for orders in ((3,), (1, 2), (2, 2), (1, 1, 1)):
        jobs.append(levy_job(ctx, f"levy.{''.join(map(str, orders))}", orders, 0.0, 3000))
    jobs.append(levy_job(ctx, "levy.2.gaussian_part", (2,), 0.5, 1500))
    jobs.extend(montecarlo_cli(ctx))
    return jobs


def montecarlo_cli(ctx: Ctx) -> list[Job]:
    seed = str(ctx.mc_seed())

    def kstat_check(res):
        z_gate(res["estimate"], 1.0, res["se"], "cli kstat")

    def invariance_check(res):
        for row in res["rows"]:
            expect(row["moment4_gap_exact"], "cli invariance gap not exact")
            expect_close(row["tau"], 2.0 / row["n"], "cli invariance tau", 1e-9)

    target = lazy(lambda: 2.0 * float(R.law_moments("rademacher", 3)[3]))

    def levy_check(res):
        z_gate(res["estimate"], target(), res["se"], "cli levy")

    return [
        cli_job(ctx, "cli.kstat", ["kstat", "--refinement", "100", "--paths", "300", "--seed", seed], kstat_check),
        cli_job(ctx, "cli.simulate_invariance", ["simulate-invariance", "--sizes", "4,8", "--trials", "2000",
                                                 "--seed", seed], invariance_check),
        cli_job(ctx, "cli.simulate_levy", ["simulate-levy", "--paths", "2000", "--orders", "3", "--seed", seed], levy_check),
    ]


JOB_LISTS = {"moments-wide": moments_wide, "exact-deep": exact_deep, "montecarlo": montecarlo}


JOB_ORDER_SEED = 1705


def build(workload: str, ctx: Ctx) -> list[Job]:
    """The workload's job list in a fixed shuffled order, the same on every seed.

    Shuffling spreads jobs of one kind over the pass: the host's speed drifts
    over seconds, and a percentile should not rest on a few jobs that ran
    back to back.
    """
    jobs = JOB_LISTS[workload](ctx)
    random.Random(JOB_ORDER_SEED).shuffle(jobs)
    return jobs
