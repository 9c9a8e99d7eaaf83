import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from homsum.kernels import (
    build_kernel,
    contraction,
    lift,
    offdiag_kernel,
    star_kernel,
)
from homsum.laws import (
    LawError,
    LawSpec,
    centered_poisson,
    convert,
    free_poisson_centered,
    free_rademacher,
    gaussian,
    rademacher,
    semicircle,
    tetilla,
    uniform_centered,
)
from homsum.moments import (
    AssumptionError,
    FeasibilityError,
    SumSpec,
    _block_sum,
    _diagram_weight,
    _fourth_class_sums,
    _free_word_expectation,
    _respectful_blocks,
    _standard_fourth,
    fmt_report,
    fourth_moment_formula,
    joint_moment,
    moment_exact,
    moment_oracle,
    noncentral_report,
    quadratic_fourth_moment_gap,
    stein_wasserstein_bound,
    wick_moment,
)
from homsum.partitions import PartitionFilter, _factor_layout, count_partitions, enumerate_partitions, respectful_pairings

from conftest import slice_kernel, transformed_law

HALF = build_kernel(2, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2))])
ONE2 = build_kernel(2, 2, [((1, 2), F(1)), ((2, 1), F(1))])


def full_offdiag(n, d):
    return build_kernel(n, d, [(p, F(1)) for p in itertools.permutations(range(1, n + 1), d)])


def symmetric_random(n, d, rnd, density=0.7):
    entries = {}
    for comb in itertools.combinations(range(1, n + 1), d):
        if rnd.random() < density:
            v = F(rnd.randint(-3, 3), rnd.randint(1, 4))
            if v:
                for perm in itertools.permutations(comb):
                    entries[perm] = v
    return build_kernel(n, d, entries.items())


def test_spec_requires_diagonal_vanishing():
    bad = build_kernel(2, 2, [((1, 1), F(1))])
    with pytest.raises(ValueError):
        SumSpec(bad, gaussian(1, 8))


def test_half_kernel_is_product_statistic():
    spec = SumSpec(HALF, gaussian(1, 10))
    assert moment_exact(spec, 1) == 0
    assert moment_exact(spec, 2) == 1
    assert moment_exact(spec, 3) == 0
    assert moment_exact(spec, 4) == 9  # (E N^4)^2
    assert moment_oracle(spec, 4) == 9
    # E[Q^2] = d! sum f^2 for symmetric diagonal-vanishing kernels
    assert moment_exact(spec, 2) == math.factorial(2) * HALF.norm_sq()


def test_free_second_moment_is_norm():
    spec = SumSpec(ONE2, semicircle(1, 10))
    assert moment_exact(spec, 2) == ONE2.norm_sq()


def test_tetilla_two_routes():
    # Q_S(f) with f = 1/sqrt(2) off-diagonal on two letters has the Tetilla law;
    # scale the unnormalized kernel by c^m with c^2 = 1/2
    spec = SumSpec(ONE2, semicircle(1, 10))
    assert moment_exact(spec, 4) * F(1, 4) == F(5, 2)
    assert moment_oracle(spec, 4) * F(1, 4) == F(5, 2)
    assert moment_exact(spec, 6) * F(1, 8) == tetilla(8).moment(6)


@pytest.mark.parametrize("law_fn", [gaussian, lambda *a, **k: centered_poisson(1, 10), lambda *a, **k: rademacher(10)])
def test_oracle_equivalence_classical_sample(law_fn):
    law = law_fn(1, 10) if law_fn is gaussian else law_fn()
    for n, d in [(2, 2), (3, 2)]:
        spec = SumSpec(full_offdiag(n, d), law)
        for m in (1, 2, 3, 4):
            assert moment_exact(spec, m) == moment_oracle(spec, m)


@pytest.mark.parametrize("law_fn", [lambda: semicircle(1, 10), lambda: free_poisson_centered(1, 10), lambda: free_rademacher(10)])
def test_oracle_equivalence_free_sample(law_fn):
    law = law_fn()
    for n, d in [(2, 2), (3, 2)]:
        spec = SumSpec(full_offdiag(n, d), law)
        for m in (1, 2, 3, 4):
            assert moment_exact(spec, m) == moment_oracle(spec, m)


def test_oracle_equivalence_property_random_kernels():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # per-index law lists of both kinds, among them same-name laws with
    # different parameters; parameters with denominators other than 1 give
    # cumulants with different denominators, which the lattice route scales
    # to integers and back
    families = ((gaussian, centered_poisson), (semicircle, free_poisson_centered))
    params = (1, 2, 5, F(1, 2), F(2, 3))

    @given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=3),
           st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def check(rnd, n, d, m):
        entries = []
        for idx in itertools.permutations(range(1, n + 1), d):
            if rnd.random() < 0.6:
                v = F(rnd.randint(-4, 4), rnd.randint(1, 5))
                if v:
                    entries.append((idx, v))
        k = build_kernel(n, d, entries)
        if not k.values:
            return
        for ctors in families:
            for ctor in ctors:
                for p in (1, F(1, 2), F(2, 3)):
                    spec = SumSpec(k, ctor(p, 10))
                    assert moment_exact(spec, m) == moment_oracle(spec, m)
            same_name = rnd.choice(ctors)
            for laws in ([same_name(p, 10) for p in rnd.sample(params, n)],
                         [rnd.choice(ctors)(rnd.choice(params), 10) for _ in range(n)]):
                spec = SumSpec(k, laws)
                assert moment_exact(spec, m) == moment_oracle(spec, m)

    check()


def test_free_oracle_separates_same_name_laws():
    f = offdiag_kernel(3)
    for law, params, m2, m4 in [(semicircle, (1, 1, 5), 22, 1210),
                                (free_poisson_centered, (1, 1, 3), 14, 578)]:
        spec = SumSpec(f, [law(p, 10) for p in params])
        assert moment_exact(spec, 2) == moment_oracle(spec, 2) == m2
        assert moment_exact(spec, 4) == moment_oracle(spec, 4) == m4


def test_float_mode_contraction_tracks_exact():
    f = full_offdiag(3, 2)
    g = f.to_float()
    exact = contraction(f, f, 1)
    approx = contraction(g, g, 1)
    for idx, v in exact.support():
        assert abs(approx(idx) - float(v)) < 1e-12
    assert abs(float(exact.norm_sq()) - approx.norm_sq()) < 1e-9


def test_oracle_guard():
    big = full_offdiag(4, 2)
    with pytest.raises(FeasibilityError):
        moment_oracle(SumSpec(big, gaussian(1, 10)), 9)  # 12^9 tuples > the guard
    with pytest.raises(FeasibilityError):
        moment_exact(SumSpec(big, gaussian(1, 10)), 8)  # 16 positions > cap


def test_short_law_raises_instead_of_dropping_cumulants():
    # E[Q^4] for Q = X1 X2 uses cumulants to order 4; past rademacher(2)'s
    # order they were taken as 0, which gave 9 instead of 1
    for route in (moment_exact, moment_oracle):
        with pytest.raises(LawError):
            route(SumSpec(HALF, rademacher(2)), 4)
    assert moment_exact(SumSpec(HALF, rademacher(4)), 4) == 1
    assert moment_exact(SumSpec(HALF, rademacher(2)), 2) == moment_oracle(SumSpec(HALF, rademacher(2)), 2)


def test_block_sum_matches_plain_enumeration():
    # any partition of the positions, so that a block may hold several
    # positions of one factor, and tables that do not vanish on diagonals; a
    # factor whose last block holds two of its positions is refused
    rnd = random.Random(3)
    kinds = Counter()
    for _ in range(300):
        n = rnd.randint(1, 3)
        degrees = [rnd.randint(1, 3) for _ in range(rnd.randint(1, 3))]
        tables = [
            {idx: rnd.randint(-3, 3) for idx in itertools.product(range(1, n + 1), repeat=d)
             if rnd.random() < 0.7}
            for d in degrees
        ]
        labels: list[int] = []
        for _ in range(sum(degrees)):
            labels.append(rnd.randint(0, max(labels, default=-1) + 1))
        blocks = [[p + 1 for p, c in enumerate(labels) if c == b] for b in range(max(labels) + 1)]
        choices = [[(i, rnd.randint(-2, 3)) for i in range(1, n + 1) if rnd.random() < 0.8]
                   for _ in blocks]
        choices = [[(i, w) for i, w in row if w] for row in choices]
        starts = list(itertools.accumulate(degrees, initial=0))
        slots = [labels[a:b] for a, b in zip(starts, starts[1:])]
        if any(s.count(max(s)) > 1 for s in slots):
            kinds["last block twice"] += 1
            with pytest.raises(ValueError, match="last block"):
                _block_sum(tables, degrees, blocks, choices)
            continue
        kinds["summed"] += 1
        if any(len(set(s)) < len(s) for s in slots):
            kinds["summed with a block repeated"] += 1
        expected = 0
        for picks in itertools.product(*choices):
            index_at = {p: i for b, (i, _) in zip(blocks, picks) for p in b}
            term = math.prod(w for _, w in picks)
            p = 1
            for table, d in zip(tables, degrees):
                term *= table.get(tuple(index_at[q] for q in range(p, p + d)), 0)
                p += d
            expected += term
        assert _block_sum(tables, degrees, blocks, choices) == expected
    assert kinds["last block twice"] + kinds["summed"] == 300
    assert kinds["last block twice"] and kinds["summed with a block repeated"], kinds


def joint_oracle(kernels, word, law):
    """E[Q_{w_1} ... Q_{w_m}] expanded over support tuples, each word's
    expectation taken as moment_oracle takes it."""
    laws = (law,) if isinstance(law, LawSpec) else tuple(law)
    law_at = (lambda i: laws[0]) if len(laws) == 1 else (lambda i: laws[i - 1])
    centered = all(l.cumulant(1) == 0 for l in laws)
    cache: dict = {}
    total = F(0)
    for combo in itertools.product(*(kernels[s].values.items() for s in word)):
        coeff = math.prod((v for _, v in combo), start=F(1))
        idx = tuple(i for key, _ in combo for i in key)
        if laws[0].kind == "classical":
            e = math.prod((law_at(i).moment(c) for i, c in Counter(idx).items()), start=F(1))
        else:
            e = _free_word_expectation(idx, law_at, centered, cache)
        total += coeff * e
    return total


def orbits_by_canonical_forms(pattern, degrees, noncrossing, sizes):
    """Orbits of the respectful partitions under every copy permutation that
    keeps the word (every rotation that keeps it, for non-crossing ones), each
    partition keyed by the least image over the whole group: (first member,
    size) pairs in enumeration order."""
    m = len(pattern)
    starts = list(itertools.accumulate(degrees, initial=1))
    perms = [tuple((j + r) % m for j in range(m)) for r in range(m)] if noncrossing \
        else itertools.permutations(range(m))
    group = [s for s in perms if all(pattern[s[j]] == pattern[j] for j in range(m))]

    def image(blocks, s):
        moved = {starts[j] + t: starts[s[j]] + t for j in range(m) for t in range(degrees[j])}
        return tuple(sorted(tuple(sorted(moved[p] for p in b)) for b in blocks))

    filt = PartitionFilter(noncrossing=noncrossing, allowed_block_sizes=frozenset(sizes), respects=_factor_layout(degrees))
    orbits: dict = {}
    for blocks in enumerate_partitions(sum(degrees), filt, 14):
        orbits.setdefault(min(image(blocks, s) for s in group), []).append(blocks)
    return [(members[0], len(members)) for members in orbits.values()]


@pytest.mark.parametrize("degrees, noncrossing, sizes, orbits", [
    ((2,) * 4, False, {2}, 7),
    ((2,) * 6, False, {2}, 24),
    ((3,) * 4, False, {2}, 174),
    ((2,) * 6, False, range(2, 7), 529),
    ((2,) * 6, True, range(2, 7), 16),
])
def test_orbit_multiplicities_count_the_respectful_partitions(degrees, noncrossing, sizes, orbits):
    sizes = frozenset(sizes)
    got = _respectful_blocks((0,) * len(degrees), degrees, noncrossing, sizes, 14)
    assert len(got) == orbits
    filt = PartitionFilter(noncrossing=noncrossing, allowed_block_sizes=sizes, respects=_factor_layout(degrees))
    assert sum(mult for _, mult in got) == count_partitions(sum(degrees), filt, cap=14)


@pytest.mark.parametrize("pattern, degrees, sizes", [
    ((0, 0, 0, 0), (2, 2, 2, 2), {2, 3, 4}),
    ((0, 1, 0, 1), (2, 2, 2, 2), {2, 3, 4}),
    ((0, 0, 1), (2, 2, 2), {2, 3}),
    ((0, 1, 1, 0, 1), (1, 2, 2, 1, 2), {2, 3}),
    ((0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1), {2, 3, 4, 5, 6}),
    ((0, 1, 0, 1, 0, 1), (2, 1, 2, 1, 2, 1), {2, 3}),
])
@pytest.mark.parametrize("noncrossing", [False, True])
def test_orbits_equal_the_classes_of_least_images(pattern, degrees, noncrossing, sizes):
    got = _respectful_blocks(pattern, degrees, noncrossing, frozenset(sizes), 14)
    assert list(got) == orbits_by_canonical_forms(pattern, degrees, noncrossing, sizes)


def test_a_free_word_without_a_period_has_only_trivial_orbits():
    for pattern, degrees in (((0, 0, 0, 1), (1, 1, 1, 1)), ((0, 1, 0, 0, 1), (2, 2, 2, 2, 2)), ((0, 0, 1, 1, 1), (1,) * 5)):
        sizes = frozenset(range(2, sum(degrees) + 1))
        got = _respectful_blocks(pattern, degrees, True, sizes, 14)
        filt = PartitionFilter(noncrossing=True, allowed_block_sizes=sizes, respects=_factor_layout(degrees))
        assert got == tuple((blocks, 1) for blocks in enumerate_partitions(sum(degrees), filt, 14))
        assert len(got) > 1


def test_the_engine_caches_only_orbit_representatives():
    assert moment_exact(SumSpec(offdiag_kernel(5), gaussian()), 6) == 26496000
    hits = _respectful_blocks.cache_info().hits
    cached = _respectful_blocks((0,) * 6, (2,) * 6, False, frozenset({2}), 14)
    assert _respectful_blocks.cache_info().hits == hits + 1
    assert len(cached) == 24 and sum(size for _, size in cached) == 6040


def test_joint_moment_matches_the_oracle_on_mixed_words():
    rnd = random.Random(16)
    n = 3

    def random_kernel(d):
        return build_kernel(n, d, [(idx, F(rnd.randint(-3, 3), rnd.randint(1, 3)))
                                   for idx in itertools.permutations(range(1, n + 1), d)])

    f, g, h = random_kernel(2), random_kernel(2), random_kernel(1)
    laws = {
        "classical": (centered_poisson(F(1, 2), 12), [gaussian(2, 12), centered_poisson(1, 12), rademacher(12)]),
        "free": (free_poisson_centered(F(2, 3), 12), [semicircle(1, 12), free_poisson_centered(2, 12), tetilla(12)]),
    }
    words = [(0, 1, 0, 1), (0, 0, 1), (1, 0, 0), (0, 1, 1, 0), (0, 2, 0, 2), (2, 0, 0, 2)]
    for kind, (iid, per_index) in laws.items():
        for law in (iid, per_index):
            for word in words:
                got = joint_moment([f, g, h], word, law)
                assert got == joint_oracle([f, g, h], word, law), (kind, word)


def test_sixth_moment_of_a_gaussian_quadratic_form_by_its_cumulants():
    # Q = x^T A x with A = J - I and x standard Gaussian has cumulants
    # kappa_r = 2^(r-1) (r-1)! tr(A^r) (Mathai & Provost 1992, ch. 3)
    n = 5
    A = [[int(i != j) for j in range(n)] for i in range(n)]
    power, cums = A, [F(0)]
    for r in range(1, 7):
        cums.append(F(2 ** (r - 1) * math.factorial(r - 1) * sum(power[i][i] for i in range(n))))
        power = [[sum(power[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    moms = convert(cums, "cumulants_to_moments", "classical")
    assert (moms[4], moms[6]) == (17280, 26496000)
    spec = SumSpec(offdiag_kernel(n), gaussian(1, 12))
    assert moment_exact(spec, 4) == moms[4]
    assert moment_exact(spec, 6) == moms[6]


def test_wick_moment_single_index_lift():
    base = build_kernel(1, 1, [((1,), F(1))])
    for d, m in [(2, 2), (2, 3), (2, 4), (3, 2), (1, 6), (4, 2)]:
        lk = lift(base, (d,))
        assert wick_moment(lk, m, "free") == respectful_pairings(d, m, "noncrossing")
        assert wick_moment(lk, m, "classical") == respectful_pairings(d, m, "classical")


def test_wick_moment_tetilla_and_odd():
    lk = lift(ONE2, (1, 1))
    assert wick_moment(lk, 4, "free") * F(1, 4) == F(5, 2)
    assert wick_moment(lk, 3, "free") == 0
    assert wick_moment(lk, 2, "classical") == moment_exact(SumSpec(ONE2, gaussian(1, 8)), 2)


def test_wick_moment_of_a_constant_kernel():
    # total degree 0: no slots to pair, the functional is the constant itself
    const = build_kernel(3, 0, [((), F(5, 7))])
    for kind, law in (("classical", gaussian(1, 8)), ("free", semicircle(1, 8))):
        for m in range(4):
            assert wick_moment(lift(const, []), m, kind) == F(5, 7) ** m
            assert wick_moment(lift(const, []), m, kind) == moment_exact(SumSpec(const, law), m)
            assert wick_moment(lift(const, []), m, kind) == moment_oracle(SumSpec(const, law), m)
    assert wick_moment(lift(const, []), 3, "free") == F(125, 343)
    assert wick_moment(lift(build_kernel(3, 0, []), []), 2, "classical") == 0


def test_cross_engine_chi_square_and_free_poisson_identities():
    # H2(N) = N^2 - 1 has the centered chi-square(1) law and U2(S) the centered
    # free Poisson(1) law, so Wick moments of the order-2 lift must equal
    # lattice moments of the degree-1 sum driven by those laws.  Both routes
    # sum over the engine's orbits; the pairing referee of the next tests is
    # what keeps wick_moment apart from the lattice.
    from homsum.laws import gamma_f

    assert transformed_law("gaussian", 2, 6).moments == gamma_f(1, 6).moments
    f = build_kernel(3, 1, [((1,), F(1, 2)), ((2,), F(1, 3)), ((3,), F(-1, 4))])
    lk = lift(f, (2,))
    gf1 = gamma_f(1, 10)
    fp1 = free_poisson_centered(1, 10)
    for m in (1, 2, 3, 4, 5):
        assert wick_moment(lk, m, "classical") == moment_exact(SumSpec(f, gf1), m)
        assert wick_moment(lk, m, "free") == moment_exact(SumSpec(f, fp1), m)


def test_wick_moment_of_an_order_two_lift_in_two_variables():
    # He_2(N_i) He_2(N_j) and U_2(S_i) U_2(S_j): the lifted Wick value is the
    # lattice moment of the degree-2 sum over centered chi-square(1) or free
    # Poisson(1) entries; m = 3 sums the orbits of the respectful partitions
    # of three copies of two positions, each block weighted by its diagrams
    from homsum.laws import gamma_f

    f = build_kernel(3, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2)), ((1, 3), F(-1, 3)),
                            ((3, 1), F(-1, 3)), ((2, 3), F(1, 4)), ((3, 2), F(1, 4))])
    lk = lift(f, (2, 2))
    for m in (1, 2, 3):
        assert wick_moment(lk, m, "classical") == moment_exact(SumSpec(f, gamma_f(1, 14)), m)
        assert wick_moment(lk, m, "free") == moment_exact(SumSpec(f, free_poisson_centered(1, 14)), m)


WICK_ORDERS = [(1,), (2,), (3,), (1, 1), (2, 2), (3, 3), (1, 2, 1), (2, 1, 2), (1, 1, 1), (2, 3, 2), (1, 3, 1), (2, 2, 2)]


def test_wick_moment_matches_the_pairing_referee(wick_pairing_referee):
    # random diagonal-vanishing bases at every n = d..d+2 and m with
    # m * sum(orders) <= 12, both kinds; the referee's plain index sums keep
    # to at most 8 base arguments
    rnd = random.Random(23)
    cases = 0
    for orders in WICK_ORDERS:
        d = len(orders)
        for m in range(1, 12 // sum(orders) + 1):
            if m * d > 8:
                continue
            for n in range(d, d + 3):
                f = build_kernel(n, d, [(idx, F(rnd.randint(-3, 3), rnd.randint(1, 4)))
                                        for idx in itertools.permutations(range(1, n + 1), d) if rnd.random() < 0.7])
                for kind in ("classical", "free"):
                    want = wick_pairing_referee(lift(f, orders), m, kind)
                    assert wick_moment(lift(f, orders), m, kind) == want, (orders, n, m, kind)
                    cases += 1
    assert cases == 228


def test_wick_moment_of_order_one_lifts_at_the_cap():
    # He_1(N) = N and U_1(S) = S: with every order 1 only pairs carry weight,
    # so the lifted moment is the Gaussian or semicircular lattice moment;
    # m * sum(orders) = 14 is the default cap
    base = build_kernel(1, 1, [((1,), F(1))])
    assert wick_moment(lift(base, (1,)), 14, "classical") == respectful_pairings(1, 14, "classical") == 135135
    assert wick_moment(lift(base, (1,)), 14, "free") == respectful_pairings(1, 14, "noncrossing") == 429
    rnd = random.Random(5)
    f = build_kernel(3, 2, [(idx, F(rnd.randint(-3, 3), rnd.randint(1, 4))) for idx in itertools.permutations(range(1, 4), 2)])
    for kind, law in (("classical", gaussian(1, 14)), ("free", semicircle(1, 14))):
        assert wick_moment(lift(f, (1, 1)), 7, kind) == moment_exact(SumSpec(f, law), 7) != 0


def test_wick_moment_refuses_a_base_with_a_diagonal_entry():
    f = build_kernel(2, 2, [((1, 2), F(1)), ((2, 1), F(1)), ((2, 2), F(1, 3))])
    for kind in ("classical", "free"):
        with pytest.raises(ValueError, match="diagonal"):
            wick_moment(lift(f, (1, 1)), 2, kind)
    assert wick_moment(lift(f, (1, 1)), 0, "classical") == 1


def test_diagram_weights_are_the_cumulants_of_the_transformed_laws():
    # a block whose positions all carry order h weighs the k-th cumulant of
    # He_h(N) (classical) or U_h(S) (free), k its size: the first-block
    # recursion over position sets against convert on the respectful
    # pairing counts of k * h points, at every order the default cap allows
    checked = 0
    for base, free in (("gaussian", False), ("semicircle", True)):
        for h in range(1, 5):
            law = transformed_law(base, h)
            for k in range(1, law.max_order + 1):
                assert _diagram_weight((h,) * k, free) == law.cumulant(k), (base, h, k)
                checked += 1
    assert checked == 56


def test_wick_matches_transformed_law_hermite_sum():
    # Hermite-sum second moment via the lifted kernel equals the lifted Wick value
    f = build_kernel(2, 1, [((1,), F(1, 2)), ((2,), F(1, 3))])
    lk = lift(f, (2,))
    # Q = sum_i f(i) H_2(N_i): E[Q^2] = sum f^2 * E[H_2(N)^2] = 2 sum f^2
    assert wick_moment(lk, 2, "classical") == 2 * f.norm_sq()


def test_joint_moment_of_words_mixing_constants_and_positive_degrees():
    # a constant kernel in a word multiplies the moment of the rest
    n = 3
    f = build_kernel(n, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2)), ((2, 3), F(-2)), ((3, 2), F(-2))])
    h = build_kernel(n, 1, [((1,), F(1)), ((3,), F(-1, 3))])
    words = [(0, 1, 1), (1, 0, 1), (1, 1, 0, 0), (0, 2, 1, 2), (2, 0, 2)]
    for c in (F(5, 7), F(-2), F(0)):
        kernels = [build_kernel(n, 0, [((), c)]), f, h]
        for law in (centered_poisson(F(1, 2), 12), free_poisson_centered(F(2, 3), 12)):
            for word in words:
                rest = [s for s in word if s]
                want = c ** (len(word) - len(rest)) * joint_moment(kernels, rest, law)
                assert joint_moment(kernels, word, law) == want, (c, law.name, word)
    # the empty constant, and the cap refusal before a zero product
    zero = build_kernel(n, 0, [])
    assert joint_moment([zero, f], (0, 1, 1), gaussian(1, 8)) == 0
    assert joint_moment([zero, f], (0, 0), gaussian(1, 8)) == 0
    with pytest.raises(FeasibilityError):
        joint_moment([zero, f], (0, 1, 1), gaussian(1, 8), cap=3)


def test_joint_moment_consistency_and_covariance():
    s = semicircle(1, 10)
    assert joint_moment([ONE2, ONE2], (0, 1), s) == moment_exact(SumSpec(ONE2, s), 2)
    g = gaussian(1, 10)
    f2 = full_offdiag(3, 2)
    h2 = build_kernel(3, 2, [((1, 2), F(2)), ((2, 1), F(2)), ((1, 3), F(1)), ((3, 1), F(1))])
    cov = joint_moment([f2, h2], (0, 1), g)
    assert cov == math.factorial(2) * sum(f2(k) * h2(k) for k in f2.values)


def test_joint_moment_free_word_order():
    s = semicircle(1, 10)
    a = build_kernel(2, 1, [((1,), F(1)), ((2,), F(2))])
    b = build_kernel(2, 1, [((1,), F(3)), ((2,), F(1))])
    got = joint_moment([a, b], (0, 1, 0, 1), s)
    want = F(0)
    for i, j, k, l in itertools.product((1, 2), repeat=4):
        coeff = a((i,)) * b((j,)) * a((k,)) * b((l,))
        e = (1 if (i == j and k == l) else 0) + (1 if (i == l and j == k) else 0)
        want += coeff * e
    assert got == want


def test_third_moment_matches_reference_law():
    # E[Q_X^3] = E[Q_N^3] under vanishing third moments; phi(Q_Y^3) = phi(Q_S^3)
    rnd = random.Random(2)
    for _ in range(6):
        k = symmetric_random(3, 2, rnd)
        if not k.values:
            continue
        assert moment_exact(SumSpec(k, rademacher(10)), 3) == moment_exact(SumSpec(k, gaussian(1, 10)), 3)
        assert moment_exact(SumSpec(k, free_poisson_centered(1, 10)), 3) == \
            moment_exact(SumSpec(k, semicircle(1, 10)), 3)


def test_free_fourth_moment_formula_free_poisson():
    rec = fourth_moment_formula(SumSpec(ONE2, free_poisson_centered(1, 8)))
    assert rec["semicircular_term"] * F(1, 4) == F(5, 2)
    assert rec["correction"] * F(1, 4) == 1
    assert rec["total"] * F(1, 4) == F(7, 2)
    assert rec["total"] == moment_exact(SumSpec(ONE2, free_poisson_centered(1, 8)), 4)


def test_free_fourth_moment_linearity_random_symmetric():
    rnd = random.Random(3)
    s = semicircle(1, 10)
    for _ in range(6):
        n, d = rnd.choice([(3, 2), (4, 2), (4, 3)])
        k = symmetric_random(n, d, rnd)
        if not k.values:
            continue
        for law in (free_poisson_centered(1, 10), free_rademacher(10)):
            lhs = moment_exact(SumSpec(k, law), 4) - moment_exact(SumSpec(k, s), 4)
            rhs = law.cumulant(4) * sum(
                (moment_exact(SumSpec(slice_kernel(k, (j,)), s), 4)
                 if slice_kernel(k, (j,)).d > 0 and slice_kernel(k, (j,)).values
                 else slice_kernel(k, (j,))(()) ** 4 if slice_kernel(k, (j,)).d == 0 else F(0))
                for j in range(1, n + 1))
            assert lhs == rhs


def test_classical_fourth_moment_formula_and_discrepancy(fourth_class_referee):
    # totals agree with the lattice engine for m3 = 0 laws
    for law in (gaussian(1, 10), rademacher(10)):
        rec = fourth_moment_formula(SumSpec(HALF, law))
        assert rec["total"] == moment_exact(SumSpec(HALF, law), 4)
    rec = fourth_moment_formula(SumSpec(HALF, rademacher(10)))
    # d = m = 2: 8 respectful class-(4,4) partitions; the closed form sums the
    # one index set {1, 2}, with coefficient binom(2,2)^4 2!^4 / 2!
    assert rec["class_counts"] == (48, 8)
    assert rec["class_terms"][1] == 1
    assert (rec["gaussian_term"], rec["class_terms"], rec["class_counts"]) == fourth_class_referee(HALF)[:3]
    # oracle arbitration: E[Q^4] = (3 + chi4)^2 at n = 2
    chi4 = rademacher(10).cumulant(4)
    assert moment_oracle(SumSpec(HALF, rademacher(10)), 4) == (3 + chi4) ** 2


def nonsymmetric_random(n, d, rnd, density=0.8):
    entries = []
    for p in itertools.permutations(range(1, n + 1), d):
        if rnd.random() < density:
            entries.append((p, F(rnd.randint(-3, 3), rnd.randint(1, 4))))
    return build_kernel(n, d, entries)


def test_fourth_classes_match_a_per_class_referee(fourth_class_referee):
    # the closed form over index sets against the per-class enumeration of
    # the {2,4} respectful partitions of four copies, symmetric or not
    rnd = random.Random(11)
    shapes = [(4, 1), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3)]
    kernels = [symmetric_random(n, d, rnd, density=1.0) for n, d in shapes]
    kernels += [nonsymmetric_random(n, d, rnd) for n, d in shapes]
    kernels.append(nonsymmetric_random(4, 3, rnd, density=0.5))  # sparse: d = 3 block sums are slow
    for k in kernels:
        terms, got_counts = _fourth_class_sums(k, 14)
        base = _standard_fourth(k, "classical", 14)
        ref_base, ref_terms, ref_counts, census = fourth_class_referee(k)
        assert (base, terms, got_counts) == (ref_base, ref_terms, ref_counts), (k.n, k.d)
        assert sum(census.values()) == sum(got_counts) + census[(2,) * (2 * k.d)]
    assert sum(k.is_symmetric is False for k in kernels) >= 6


def test_standard_fourth_closed_forms_match_the_lattice():
    # degree 1: Q(h) is Gaussian (semicircular) with variance ||h||^2
    rnd = random.Random(17)
    laws = {"classical": gaussian(1, 8), "free": semicircle(1, 8)}
    for n in (1, 2, 3, 5):
        for _ in range(3):
            h = build_kernel(n, 1, [((i,), F(rnd.randint(-3, 3), rnd.randint(1, 4))) for i in range(1, n + 1)])
            for kind, law in laws.items():
                assert _standard_fourth(h, kind, 14) == moment_exact(SumSpec(h, law), 4), (n, kind)
    for kind in laws:
        assert _standard_fourth(build_kernel(3, 1, []), kind, 14) == 0
        assert _standard_fourth(build_kernel(3, 0, [((), F(-2, 3))]), kind, 14) == F(16, 81)


# f(1,2) = 1, f(2,3) = 2, f(3,1) = 1/2: no two entries share an orbit
CYCLIC = build_kernel(3, 2, [((1, 2), F(1)), ((2, 3), F(2)), ((3, 1), F(1, 2))])


def test_free_fourth_moment_formula_needs_a_symmetric_kernel():
    # the free identity sums slices f(k, .); it holds only for fully symmetric f
    mirror = build_kernel(4, 3, [((1, 2, 3), F(1)), ((3, 2, 1), F(1)), ((1, 3, 4), F(2)), ((4, 3, 1), F(2)),
                                 ((2, 1, 4), F(-1, 2)), ((4, 1, 2), F(-1, 2))])
    assert mirror.is_mirror_symmetric and not mirror.is_symmetric
    for k in (CYCLIC, mirror):
        for law in (tetilla(10), free_poisson_centered(1, 10)):
            with pytest.raises(AssumptionError):
                fourth_moment_formula(SumSpec(k, law))
    rnd = random.Random(19)
    checked = 0
    for n, d in [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]:
        k = symmetric_random(n, d, rnd)
        if not k.values:
            continue
        for law in (tetilla(10), free_poisson_centered(1, 10)):
            assert fourth_moment_formula(SumSpec(k, law))["total"] == moment_exact(SumSpec(k, law), 4), (n, d)
            checked += 1
    assert checked >= 8


def test_classical_formula_rejects_nonzero_third_moment():
    with pytest.raises(AssumptionError):
        fourth_moment_formula(SumSpec(HALF, centered_poisson(1, 10)))


def test_fmt_report_values_and_verdicts():
    rep = fmt_report(SumSpec(HALF, gaussian(1, 10)))
    assert rep["variance"] == 1
    assert rep["fourth_moment"] == 9
    assert rep["fourth_cumulant"] == 6
    assert rep["contraction_norms_sq"][1] == contraction(HALF, HALF, 1).norm_sq()
    assert not rep["verdicts"]["np_contraction"]["holds"]
    assert not rep["verdicts"]["de_jong"]["holds"]
    assert rep["spec_hash"] and rep["mode"] == "exact"
    # free fourth cumulant uses the semicircular target
    repf = fmt_report(SumSpec(ONE2, semicircle(1, 10)))
    assert repf["fourth_cumulant"] == repf["fourth_moment"] - 2 * repf["variance"] ** 2


def test_positive_fourth_cumulant_for_gaussian_sums():
    rnd = random.Random(8)
    for _ in range(8):
        k = symmetric_random(3, 2, rnd)
        if not k.values:
            continue
        rep = fmt_report(SumSpec(k, gaussian(1, 10)))
        assert rep["fourth_cumulant"] > 0


def test_noncentral_reports():
    nr = noncentral_report(SumSpec(HALF, gaussian(1, 10)), "gamma", F(1, 2))
    assert nr["statistic"] == 9 - 12 * 0
    assert nr["target_value"] == 12 * F(1, 4) - 48 * F(1, 2)
    assert nr["midpoint_norm_sq"] == (contraction(HALF, HALF, 1) - HALF).norm_sq()
    with pytest.raises(AssumptionError):
        d3 = build_kernel(3, 3, [(p, F(1)) for p in itertools.permutations((1, 2, 3))])
        noncentral_report(SumSpec(d3, gaussian(1, 12)), "gamma", 1)
    # free rearrangement: stat_Y - stat_S == kappa4(Y) * slice sum
    Y = free_poisson_centered(1, 8)
    S = semicircle(1, 8)
    nY = noncentral_report(SumSpec(ONE2, Y), "free_poisson", 1)
    nS = noncentral_report(SumSpec(ONE2, S), "free_poisson", 1)
    rec = fourth_moment_formula(SumSpec(ONE2, Y))
    assert nY["statistic"] - nS["statistic"] == rec["correction"]


def test_quadratic_inequalities_on_random_kernels():
    rnd = random.Random(13)
    checked = 0
    for _ in range(30):
        n = rnd.choice([3, 4])
        k = symmetric_random(n, 2, rnd)
        if not k.values:
            continue
        nsq = k.norm_sq()
        c2 = F(1, 2) / nsq  # classical admissible scaling: 2 c^2 nsq = 1
        alpha = sum((contraction(k, k, 1)((i, i)) ** 2 for i in range(1, n + 1)), F(0)) * c2**2
        for law in (gaussian(1, 10), rademacher(10), centered_poisson(1, 10)):
            chi4 = law.cumulant(4)
            if chi4 <= -1 or law.moment(3) != 0:
                continue
            m4 = moment_exact(SumSpec(k, law), 4) * c2**2
            assert m4 - 3 >= 48 * alpha * (1 + chi4)
        # free side: kappa4 > -1/2, unit variance scaling c2f = 1/nsq
        c2f = 1 / nsq
        alpha_f = sum(
            (sum((k((i, j)) ** 2 for j in range(1, n + 1)), F(0)) ** 2 for i in range(1, n + 1)),
            F(0),
        ) * c2f**2
        for law in (semicircle(1, 10), free_poisson_centered(1, 10), tetilla(10)):
            kappa4 = law.cumulant(4)
            if kappa4 <= F(-1, 2):
                continue
            m4 = moment_exact(SumSpec(k, law), 4) * c2f**2
            assert m4 >= 2 + alpha_f * (1 + 2 * kappa4)
        checked += 1
    assert checked >= 20


def test_quadratic_gap_closed_form():
    rnd = random.Random(4)
    kernels = [symmetric_random(4, 2, rnd) for _ in range(5)]
    # the class sums symmetrize, so the gap holds for any diagonal-vanishing f
    kernels += [CYCLIC] + [nonsymmetric_random(n, 2, random.Random(23 + n)) for n in (3, 4, 5)]
    for k in kernels:
        if not k.values:
            continue
        for a, b in [(gaussian(1, 10), rademacher(10)), (rademacher(10), gaussian(1, 10)),
                     (rademacher(10), uniform_centered(10))]:
            assert quadratic_fourth_moment_gap(k, a, b) == \
                moment_exact(SumSpec(k, a), 4) - moment_exact(SumSpec(k, b), 4)
    assert quadratic_fourth_moment_gap(CYCLIC, rademacher(10), gaussian(1, 10)) == F(-399, 2)
    for law in (centered_poisson(1, 10), semicircle(1, 10)):
        with pytest.raises(AssumptionError):
            quadratic_fourth_moment_gap(CYCLIC, gaussian(1, 10), law)


def test_stein_bound():
    e_abs3 = math.sqrt(8 / math.pi)  # E|N|^3
    rep = stein_wasserstein_bound(SumSpec(HALF, gaussian(1, 10)), abs_third_moment=e_abs3)
    assert rep["bound"] > 0
    # both drivers vanish -> zero bound
    zero = build_kernel(2, 2, [])
    rep0 = stein_wasserstein_bound(SumSpec(zero, gaussian(1, 10)), abs_third_moment=e_abs3)
    assert rep0["bound"] == 0.0
    with pytest.raises(AssumptionError):
        d3 = build_kernel(3, 3, [(p, F(1)) for p in itertools.permutations((1, 2, 3))])
        stein_wasserstein_bound(SumSpec(d3, gaussian(1, 12)), abs_third_moment=1.0)
    # P1 and m4 come from one entry law, so a per-index law list is refused
    k3 = build_kernel(3, 2, [((1, 2), F(1)), ((2, 1), F(1)), ((2, 3), F(1, 2)), ((3, 2), F(1, 2))])
    for laws in ((gaussian(1, 10), rademacher(10), rademacher(10)), (rademacher(10), gaussian(1, 10), gaussian(1, 10))):
        with pytest.raises(AssumptionError):
            stein_wasserstein_bound(SumSpec(k3, laws), abs_third_moment=1.0)
    # E[Q^4] - 3 is the fourth cumulant only when Var(Q) = 1: a law of
    # variance 4 (Var Q = 16 here) is refused, not given a bound of 695
    with pytest.raises(AssumptionError, match="unit variance"):
        stein_wasserstein_bound(SumSpec(HALF, gaussian(4, 10)), abs_third_moment=e_abs3)


def test_non_iid_fourth_moment_bound():
    from homsum.laws import LawSpec, convert
    from homsum.moments import fourth_moment_bound_non_iid

    moms = tuple(F(0) if k % 2 else F(4) ** (k // 2) * F(1, 4) for k in range(11))
    moms = (F(1),) + moms[1:]
    three_point = LawSpec("three_point", "classical", moms,
                          convert(moms, "moments_to_cumulants", "classical"))
    rnd = random.Random(6)
    checked = 0
    for _ in range(6):
        n = rnd.choice([2, 3])
        k = symmetric_random(n, 2, rnd)
        if not k.values:
            continue
        laws = tuple(rnd.choice([gaussian(1, 10), three_point]) for _ in range(n))
        rep = fourth_moment_bound_non_iid(SumSpec(k, laws))
        assert rep["holds"], rep
        assert rep["fourth_cumulant"] >= rep["lower_bound"]
        checked += 1
    assert checked >= 3
    with pytest.raises(AssumptionError):
        fourth_moment_bound_non_iid(SumSpec(HALF, gaussian(1, 10)))
    with pytest.raises(AssumptionError):
        # negative fourth cumulant is outside the bound's hypotheses
        fourth_moment_bound_non_iid(SumSpec(HALF, (rademacher(10), gaussian(1, 10))))


def test_non_iid_law_lists():
    laws = (rademacher(10), gaussian(1, 10))
    spec = SumSpec(HALF, laws)
    # Q = X1 X2 with X1 rademacher, X2 gaussian: E[Q^4] = 1 * 3
    assert moment_exact(spec, 4) == 3
    assert moment_oracle(spec, 4) == 3
    assert moment_exact(spec, 2) == 1


def test_star_family_tau_does_not_vanish():
    for n in (4, 8):
        f = star_kernel(n)
        rep = fmt_report(SumSpec(f, gaussian(1, 10)))
        # normalized by sum f^2 = 2(n-1): tau = 1
        assert rep["tau_max"] * F(1, 2 * (n - 1)) == 1


def test_fmt_family_report_trajectory():
    rows = [fmt_report(SumSpec(offdiag_kernel(n), gaussian(1, 10))) for n in (3, 4, 5)]
    assert [r["n"] for r in rows] == [3, 4, 5]
    # normalized tau = 2/n decays along the family
    taus = [r["tau_max"] * F(1, n * (n - 1)) for r, n in zip(rows, (3, 4, 5))]
    assert taus == [F(2, 3), F(1, 2), F(2, 5)]
    assert all(r["fourth_cumulant"] > 0 for r in rows)


def test_fmt_report_states_influence_normalization():
    rep = fmt_report(SumSpec(HALF, gaussian(1, 10)))
    assert "slot_summed" in rep["influence_normalization"]
    assert sum(rep["influences"]) == 2 * HALF.norm_sq()
    assert sum(rep["influences_first_slot"]) == HALF.norm_sq()
