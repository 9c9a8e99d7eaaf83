"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the pinned tolerance.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion report.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from homsum.kernels import (
    avoid_first_kernel,
    build_kernel,
    contraction,
    influence,
    offdiag_kernel,
    star_contraction,
    star_kernel,
    tau_max,
)
from homsum.laws import (
    LawSpec,
    centered_poisson,
    free_poisson_centered,
    free_rademacher,
    gaussian,
    rademacher,
    semicircle,
    tetilla,
)
from homsum.moments import (
    SumSpec,
    fourth_moment_formula,
    moment_exact,
    moment_oracle,
)
from homsum.orthopoly import (
    DegenerateError,
    MomentFunctional,
    OrthopolyError,
    discriminant_moment,
    gops_determinant,
    gops_route_ratio,
    orthogonality_check,
    quadrature_rule,
    sylvester_decompose,
)
from homsum.partitions import (
    PartitionFilter,
    catalan,
    count_partitions,
    double_factorial,
    respectful_pairings,
    riordan,
)
from homsum.stochsim import (
    Sampler,
    invariance_decay_experiment,
    sample_homsum,
    variations_cumulant_check,
)

from conftest import slice_kernel

GAUSS = MomentFunctional.from_law(gaussian(1, 14))


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def full_kernel(n, d):
    return build_kernel(n, d, [(p, F(1)) for p in itertools.permutations(range(1, n + 1), d)])


def seeded_kernel(n, d, seed, symmetric=False, mirror=False, density=0.7):
    rnd = random.Random(seed)
    entries: dict = {}
    if symmetric:
        for comb in itertools.combinations(range(1, n + 1), d):
            if rnd.random() < density:
                v = F(rnd.randint(-3, 3), rnd.randint(1, 4))
                if v:
                    for perm in itertools.permutations(comb):
                        entries[perm] = v
    elif mirror:
        seen = set()
        for idx in itertools.permutations(range(1, n + 1), d):
            if idx in seen:
                continue
            seen.add(idx)
            seen.add(idx[::-1])
            if rnd.random() < density:
                v = F(rnd.randint(-3, 3), rnd.randint(1, 4))
                if v:
                    entries[idx] = v
                    entries[idx[::-1]] = v
    else:
        for idx in itertools.permutations(range(1, n + 1), d):
            if rnd.random() < density:
                v = F(rnd.randint(-3, 3), rnd.randint(1, 4))
                if v:
                    entries[idx] = v
    return build_kernel(n, d, list(entries.items()))


def test_criterion_1_discriminant_golden_values():
    t0 = time.time()
    results = {}
    for N, want in ((2, 12), (3, 4320)):
        for method in ("quadrature", "expansion", "lu_gaussian"):
            got = float(discriminant_moment(GAUSS, N, 2, method))
            results[(N, method)] = got
            assert abs(got - want) <= 1e-6 * want, (N, method, got)
    elapsed = time.time() - t0
    report(1, elapsed < 5.0,
           f"E[D(N1,N2)^4]=12 and E[D(N1,N2,N3)^4]=4320 by all three methods "
           f"within 1e-6 relative in {elapsed:.2f}s (< 5s)")


def test_criterion_2_gauss_hermite_weights():
    rule = quadrature_rule(GAUSS, 5, tol=1e-9)
    got = sorted(w.real for w in rule.weights)
    want = sorted([0.5333333333, 0.2220759228, 0.2220759228, 0.01125741133, 0.01125741133])
    weight_err = max(abs(a - b) for a, b in zip(got, want))
    assert weight_err <= 1e-8
    # exactness: sum c zeta^k = a_k for k <= 9 within 1e-9 (relative)
    max_resid = 0.0
    for k in range(10):
        s = sum(w * z**k for w, z in zip(rule.weights, rule.nodes))
        a_k = float(GAUSS.moment(0, k))
        max_resid = max(max_resid, abs(s - a_k) / max(1.0, abs(a_k)))
    assert max_resid <= 1e-9
    report(2, True,
           f"n=5 Christoffel weights match to {weight_err:.2e} (<= 1e-8); "
           f"moment exactness residual {max_resid:.2e} (<= 1e-9)")


def test_criterion_3_sylvester_suite():
    # A_3 = 1/2 (1-x)^3 - 1/2 (1+x)^3: nodes +-1, weights 1/2 exactly
    a3 = sylvester_decompose(GAUSS, 2, mode="appel")
    nw3 = sorted((z.real, w.real) for z, w in zip(a3.nodes, a3.weights))
    assert abs(nw3[0][0] + 1) < 1e-9 and abs(nw3[1][0] - 1) < 1e-9
    assert all(abs(w - 0.5) < 1e-9 for _, w in nw3)
    assert a3.residual < 1e-9
    # A_5 = -(2/3) x^5 + (1/6)(sqrt3 - x)^5 - (1/6)(x + sqrt3)^5
    a5 = sylvester_decompose(GAUSS, 3, mode="appel")
    nw5 = sorted((z.real, w.real) for z, w in zip(a5.nodes, a5.weights))
    assert abs(nw5[0][0] + math.sqrt(3)) < 1e-9 and abs(nw5[0][1] - 1 / 6) < 1e-9
    assert abs(nw5[1][0]) < 1e-9 and abs(nw5[1][1] - 2 / 3) < 1e-9
    assert abs(nw5[2][0] - math.sqrt(3)) < 1e-9 and abs(nw5[2][1] - 1 / 6) < 1e-9
    assert a5.residual < 1e-9
    # p_{2,2} and the weight sum: the expansion oracle fixes the x^2
    # coefficient at 180 (the printed source's 90 fails both the oracle and
    # an independent numeric integration; see the decisions ledger), and with
    # it the power-sum system is exactly consistent
    dd = sylvester_decompose(GAUSS, 2, 2, mode="discriminant")
    assert dd.poly == (F(-360), F(0), F(180), F(0), F(0), F(0), F(12))
    assert abs(dd.weight_sum.real - 12) <= 1e-5 and abs(dd.weight_sum.imag) <= 1e-5
    assert dd.consistent
    report(3, True,
           "A3 and A5 node/weight sets exact (1e-9); p_{2,2} leading/constant terms "
           "12 / -360 with oracle-resolved x^2 coefficient 180, sum c_j = 12 (1e-5)")


def test_criterion_4_oracle_equivalence_grid():
    t0 = time.time()
    checked = 0
    classical = [gaussian(1, 10), centered_poisson(1, 10), rademacher(10)]
    free = [semicircle(1, 10), free_poisson_centered(1, 10), free_rademacher(10)]
    for laws in (classical, free):
        for law in laws:
            for n in (2, 3):
                for d in (1, 2):
                    for kern in (full_kernel(n, d), seeded_kernel(n, d, seed=n * 10 + d)):
                        if not kern.values:
                            continue
                        spec = SumSpec(kern, law)
                        for m in range(1, 5):
                            assert moment_exact(spec, m) == moment_oracle(spec, m), \
                                (law.name, n, d, m)
                            checked += 1
            # the d = 3 leg: n = 3 so diagonal-vanishing kernels are nontrivial
            for kern in (full_kernel(3, 3), seeded_kernel(3, 3, seed=33)):
                spec = SumSpec(kern, law)
                for m in range(1, 4):
                    assert moment_exact(spec, m) == moment_oracle(spec, m), (law.name, m)
                    checked += 1
    elapsed = time.time() - t0
    report(4, elapsed < 60.0,
           f"moment_exact == moment_oracle exactly on {checked} grid points in "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_5_free_fourth_moment_linearity():
    s = semicircle(1, 10)
    laws = (free_poisson_centered(1, 10), free_rademacher(10))
    rnd = random.Random(55)
    checked = 0
    while checked < 20:
        n = rnd.choice([2, 3, 4])
        d = rnd.choice([2, 3])
        if d == 3 and n < 3:
            continue
        # symmetric kernels (a subset of the mirror-symmetric class; the
        # identity needs full symmetry for d >= 3, see the decisions ledger)
        k = seeded_kernel(n, d, seed=rnd.randint(0, 10**6), symmetric=True)
        if not k.values:
            continue
        for law in laws:
            lhs = moment_exact(SumSpec(k, law), 4) - moment_exact(SumSpec(k, s), 4)
            rhs = F(0)
            for j in range(1, n + 1):
                g = slice_kernel(k, (j,))
                if g.d == 0:
                    rhs += g(()) ** 4
                elif g.values:
                    rhs += moment_exact(SumSpec(g, s), 4)
            rhs *= law.cumulant(4)
            assert lhs == rhs, (n, d, law.name)
        checked += 1
    report(5, True,
           f"phi(Q_Y^4) - phi(Q_S^4) = kappa4(Y) * slice sum exactly on {checked} "
           "random symmetric kernels (n<=4, d<=3), Y in {free_poisson(1), free_rademacher}")


def test_criterion_6_classical_decomposition_and_discrepancy(fourth_class_referee):
    checked = 0
    for law in (gaussian(1, 10), rademacher(10)):  # the m3 = 0 laws of the grid
        for n in (2, 3):
            for d in (1, 2):
                for kern in (full_kernel(n, d), seeded_kernel(n, d, seed=7 * n + d, symmetric=True)):
                    if not kern.values:
                        continue
                    rec = fourth_moment_formula(SumSpec(kern, law))
                    assert rec["total"] == moment_exact(SumSpec(kern, law), 4), (law.name, n, d)
                    assert (rec["gaussian_term"], rec["class_terms"], rec["class_counts"]) == \
                        fourth_class_referee(kern)[:3], (law.name, n, d)
                    checked += 1
    # d = m = 2: 8 respectful (4,4)-partitions, and the closed form over
    # index sets gives the enumeration's class sum; brute force at n = 2
    # gives (3 + chi4)^2
    half = build_kernel(2, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2))])
    rec = fourth_moment_formula(SumSpec(half, rademacher(10)))
    assert rec["class_counts"][1] == 8
    assert (rec["gaussian_term"], rec["class_terms"], rec["class_counts"]) == fourth_class_referee(half)[:3]
    chi4 = rademacher(10).cumulant(4)
    assert moment_oracle(SumSpec(half, rademacher(10)), 4) == (3 + chi4) ** 2
    assert rec["total"] == (3 + chi4) ** 2
    report(6, True,
           f"closed-form class terms equal the per-class enumeration and reproduce "
           f"E[Q^4] exactly on {checked} specs; d=m=2: 8 respectful (4,4)-partitions, "
           "oracle (3+chi4)^2")


def test_criterion_7_counting_identities():
    for k in range(1, 7):
        assert count_partitions(2 * k, PartitionFilter(allowed_block_sizes={2})) \
            == double_factorial(2 * k - 1)
        assert count_partitions(2 * k, PartitionFilter(allowed_block_sizes={2}, noncrossing=True)) \
            == catalan(k)
    assert riordan(4) == 3
    assert respectful_pairings(2, 4, "classical") == 60
    # E[(N^2 - 1)^4] from raw Gaussian moments
    g = gaussian(1, 8)
    binom = math.comb
    e_h2_4 = sum(
        binom(4, j) * (-1) ** (4 - j) * g.moment(2 * j) for j in range(5)
    )
    assert e_h2_4 == 60
    assert respectful_pairings(2, 4, "noncrossing") == 3 == riordan(4)
    report(7, True,
           "|P2([2k])| = (2k-1)!!, |NC2([2k])| = C_k (k <= 6), R4 = 3, "
           "|P2*(2^x4)| = 60 = E[(N^2-1)^4], |NC2*(2^x4)| = 3 = R4, all exact")


def test_criterion_8_orthogonality_suite():
    from homsum.laws import gamma_f, uniform_centered

    laws = [gaussian(1, 14), centered_poisson(1, 14), gamma_f(F(3), 14),
            rademacher(14), uniform_centered(14), semicircle(1, 14),
            free_poisson_centered(1, 14), free_rademacher(14), tetilla(14)]
    checked = skipped = 0
    for law in laws:
        main = MomentFunctional.from_law(law)
        groups = [main.groups[0]] + [main.shifted(t).groups[0] for t in (1, 2, 3)]
        FM = MomentFunctional(tuple(groups))
        for n in range(1, 5):
            for m in range(1, n + 1):
                try:
                    p = gops_determinant(FM, n, m)
                except DegenerateError:
                    skipped += 1
                    continue
                chk = orthogonality_check(FM, p, n, m)
                assert chk["orthogonal"], (law.name, n, m)
                try:
                    gops_determinant(FM, n + 1, m)
                    next_ok = True
                except (DegenerateError, OrthopolyError):
                    next_ok = False
                if not next_ok:
                    skipped += 1  # singular next minor: outside the criterion
                    continue
                assert chk["nonvanishing_next"], (law.name, n, m)
                ratio = gops_route_ratio(FM, n, m)
                assert ratio == math.factorial(n - m + 1), (law.name, n, m)
                checked += 1
    report(8, checked >= 50,
           f"both GOPs routes exactly orthogonal with nonvanishing next moment and "
           f"route ratio (n-m+1)! on {checked} (law,n,m) triples "
           f"({skipped} degenerate-minor cases excluded)")


def test_criterion_9_kernel_diagnostic_golden_values():
    # f contr1 f table for the 1/sqrt(n-2) off-diagonal kernel
    for n in (4, 5, 7):
        f = offdiag_kernel(n)
        g = contraction(f, f, 1)
        c2 = F(1, n - 2)
        assert g((1, 2)) * c2 == 1
        assert g((1, 1)) * c2 == F(n - 1, n - 2)
    # star kernel contraction norm 2 (n-1)^2 / (n-2)^2
    for n in (4, 6, 9):
        f = star_kernel(n)
        assert contraction(f, f, 1).norm_sq() * F(1, (n - 2) ** 2) == F(2 * (n - 1) ** 2, (n - 2) ** 2)
    # influence profiles
    n = 6
    inf1 = [x * F(1, 2 * n - 2) for x in influence(star_kernel(n))]
    assert inf1[0] == 1 and all(x == F(1, n - 1) for x in inf1[1:])
    inf2 = [x * F(1, n * (n - 1)) for x in influence(offdiag_kernel(n))]
    assert all(x == F(2, n) for x in inf2)
    inf3 = [x * F(1, (n - 1) * (n - 2)) for x in influence(avoid_first_kernel(n))]
    assert inf3[0] == 0 and all(x == F(2, n - 1) for x in inf3[1:])
    report(9, True,
           "f contr1 f table, star-kernel norm 2(n-1)^2/(n-2)^2, and the three "
           "influence profiles (1; 2/n; 0 and 2/(n-1)) reproduced exactly")


def _three_point_law() -> LawSpec:
    """P(X=0) = 3/4, P(X = +-2) = 1/8: centered, unit variance, m3 = 0,
    chi4 = +1 (a classical law satisfying the quadratic-FMT hypotheses)."""
    from homsum.laws import convert

    moms = tuple(F(0) if k % 2 else F(4) ** (k // 2) * F(1, 4) for k in range(11))
    moms = (F(1),) + moms[1:]
    cums = convert(moms, "moments_to_cumulants", "classical")
    return LawSpec("three_point", "classical", moms, cums)


THREE_POINT = _three_point_law()


def test_criterion_10_lemma_level_inequalities():
    rnd = random.Random(101)
    total = 0
    quad_checked = free_checked = 0
    while total < 100:
        n = rnd.choice([3, 4, 5])
        d = rnd.choice([2, 3])
        symmetric = rnd.random() < 0.6
        k = seeded_kernel(n, d, seed=rnd.randint(0, 10**6), symmetric=symmetric, mirror=True)
        if not k.values:
            continue
        total += 1
        tau = tau_max(k)
        # Lemma stimacontr (mirror-symmetric admissible, scale invariant)
        for q in range(1, d):
            assert contraction(k, k, q).norm_sq() >= star_contraction(k, k, q + 1).norm_sq()
        assert contraction(k, k, d - 1).norm_sq() >= star_contraction(k, k, 1).norm_sq()
        if symmetric:
            # Lemma magg needs full symmetry
            assert contraction(k, k, d - 1).norm_sq() >= tau * tau * F(1, d * d)
            if d == 2:
                assert (contraction(k, k, 1) - k).norm_sq() >= tau * tau * F(1, 4)
        if d == 2 and symmetric:
            nsq = k.norm_sq()
            c2 = F(1, 2) / nsq
            alpha = sum(
                (contraction(k, k, 1)((i, i)) ** 2 for i in range(1, n + 1)), F(0)
            ) * c2 ** 2
            for law in (gaussian(1, 10), THREE_POINT):
                chi4 = law.cumulant(4)
                m4 = moment_exact(SumSpec(k, law), 4) * c2 ** 2
                assert m4 - 3 >= 48 * alpha * (1 + chi4), (n, law.name)
                quad_checked += 1
        if d == 2:
            # free quadratic bound for kappa4 > -1/2 on mirror-symmetric kernels
            nsq = k.norm_sq()
            c2f = 1 / nsq
            alpha_f = sum(
                (sum((k((i, j)) ** 2 for j in range(1, n + 1)), F(0)) ** 2
                 for i in range(1, n + 1)), F(0)
            ) * c2f ** 2
            for law in (semicircle(1, 10), free_poisson_centered(1, 10), tetilla(10)):
                m4 = moment_exact(SumSpec(k, law), 4) * c2f ** 2
                assert m4 >= 2 + alpha_f * (1 + 2 * law.cumulant(4)), (n, law.name)
                free_checked += 1
    report(10, True,
           f"magg/stimacontr bounds on {total} random kernels (n<=5, d<=3), "
           f"quadratic classical inequality on {quad_checked} and free quadratic "
           f"inequality on {free_checked} law-kernel pairs: zero violations, exact arithmetic")


def test_criterion_11_statistical_suite():
    t0 = time.time()
    # sampler self-tests
    for law, params in [("gaussian", {}), ("rademacher", {}),
                        ("centered_poisson", {"lam": 1}), ("uniform_centered", {})]:
        rep = Sampler(law, seed=7, params=params).moment_self_test(draws=100_000)
        assert rep["passed"], (law, rep)
    # MC vs exact within 5 SE
    half = build_kernel(2, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2))])
    q = sample_homsum(half, Sampler("gaussian", seed=5), 200_000)
    for m in (2, 3, 4):
        exact = float(moment_exact(SumSpec(half, gaussian(1, 10)), m))
        vals = q**m
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 5 * se, (m,)
    # compound-Poisson kappa-statistic and variations checks at 1e4 paths
    disc = Sampler("discrete", seed=23, params={"values": [1.0, 2.0], "probs": [0.5, 0.5]})
    jl = disc.law_spec(8)
    rep3 = variations_cumulant_check(2.0, disc, jl, 0.0, 1.0, (3,), paths=10_000, seed=27)
    assert rep3["within_5se"], rep3
    rep12 = variations_cumulant_check(2.0, disc, jl, 0.0, 1.0, (1, 2), paths=10_000, seed=28)
    assert rep12["within_5se"], rep12
    # invariance-decay trend on the tau = 2/n family
    rows = invariance_decay_experiment(
        offdiag_kernel, Sampler("gaussian", seed=11), Sampler("rademacher", seed=12),
        sizes=[4, 8, 16, 32], trials=20_000,
    )
    gaps = [r["moment4_gap"] for r in rows]
    assert all(a >= b for a, b in zip(gaps, gaps[1:])), gaps
    assert all(r["moment4_gap_exact"] for r in rows)
    elapsed = time.time() - t0
    report(11, elapsed < 600.0,
           f"sampler self-tests, MC-vs-exact (5 SE), Levy cumulant checks at 1e4 "
           f"paths (5 SE), and non-increasing tau=2/n decay trajectory in "
           f"{elapsed:.1f}s (< 10 min)")
