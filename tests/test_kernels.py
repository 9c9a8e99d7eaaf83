import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsum.kernels import (
    Kernel,
    KernelError,
    _distinct_permutations,
    avoid_first_kernel,
    build_kernel,
    contraction,
    influence,
    influence_first_slot,
    kernel_from_json,
    kernel_to_json,
    offdiag_kernel,
    scale_to_unit_variance,
    star_contraction,
    star_kernel,
    validate,
)

from conftest import slice_kernel

HALF = build_kernel(2, 2, [((1, 2), F(1, 2)), ((2, 1), F(1, 2))])


def rational_kernel(n, d, rnd, density=0.6, mirror=False, symmetric=False):
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


def test_build_and_flags():
    assert HALF.is_symmetric and HALF.is_mirror_symmetric and HALF.vanishes_on_diagonals
    zero = build_kernel(3, 2, [])
    assert zero.norm_sq() == 0 and zero.is_symmetric
    asym = build_kernel(2, 2, [((1, 2), F(1))])
    assert asym.is_symmetric is False and asym.vanishes_on_diagonals


def test_symmetry_flags_are_exact_at_any_size():
    full = build_kernel(8, 8, [(p, F(1)) for p in itertools.permutations(range(1, 9))])
    assert len(full.values) == 40320
    assert full.is_symmetric is True and full.is_mirror_symmetric is True
    one = build_kernel(10, 10, [(tuple(range(1, 11)), F(1))])
    assert one.is_symmetric is False and one.is_mirror_symmetric is False
    assert validate(one, "mirror")["clauses"]["mirror_symmetric"] is False
    # a stored zero reads like an absent entry
    assert Kernel(2, 2, {(1, 2): F(0)}).is_symmetric is True
    assert Kernel(2, 2, {(1, 2): F(1), (2, 1): F(0)}).is_symmetric is False


def test_build_rejects_bad_entries():
    with pytest.raises(KernelError):
        build_kernel(2, 2, [((1, 3), F(1))])
    with pytest.raises(KernelError):
        build_kernel(2, 2, [((1, 2), F(1)), ((1, 2), F(2))])
    with pytest.raises(KernelError):
        build_kernel(2, 2, [((1, 2), 0.5)])  # float in exact mode
    # duplicate entries with equal values are fine
    k = build_kernel(2, 2, [((1, 2), F(1)), ((1, 2), F(1))])
    assert k((1, 2)) == 1


def test_symmetrize_replicates_single_entry():
    k = build_kernel(2, 2, [((1, 2), F(1, 2))], symmetrize=True)
    assert k((1, 2)) == F(1, 2) and k((2, 1)) == F(1, 2)
    # with both orbit members provided the standard average applies
    k2 = build_kernel(2, 2, [((1, 2), F(1, 2)), ((2, 1), F(0))], symmetrize=True)
    assert k2((1, 2)) == F(1, 4) and k2((2, 1)) == F(1, 4)


def test_distinct_permutations_of_a_multiset():
    for key in [(1,), (2, 2, 2), (1, 1, 2), (2, 1, 1), (3, 1, 2, 1), (1, 2, 2, 3, 3), (4, 3, 2, 1), (2, 1, 2, 1, 2)]:
        got = list(_distinct_permutations(key))
        assert got == sorted(set(itertools.permutations(key)))
    # one entry symmetrized over a degree-10 orbit writes its 10 distinct keys
    k = build_kernel(2, 10, [((1,) * 9 + (2,), 1)], symmetrize=True)
    assert set(k.values) == {tuple(2 if t == p else 1 for t in range(10)) for p in range(10)}
    assert k.is_symmetric


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_symmetrize_idempotent(rnd):
    k = rational_kernel(3, 2, rnd)
    once = build_kernel(3, 2, list(k.support()), symmetrize=True)
    twice = build_kernel(3, 2, list(once.support()), symmetrize=True)
    assert once == twice
    assert once.is_symmetric


def test_validate_flavors():
    rep = validate(HALF, "classical")
    assert rep["passed"] and rep["variance"] == 1
    repf = validate(HALF, "free")
    assert not repf["passed"] and repf["variance"] == F(1, 2)
    zero = build_kernel(2, 2, [])
    assert not validate(zero, "classical")["passed"]
    # off-diagonal 1/sqrt(2n(n-1)) style at n=3: exact variance check via scaling
    n = 3
    f1 = offdiag_kernel(n)
    assert math.factorial(2) * f1.norm_sq() * F(1, 2 * n * (n - 1)) == 1


def test_contraction_table_for_offdiag_kernel():
    # f(i,j) = 1/sqrt(n-2) off-diagonal: f contr1 f = 1 off-diagonal, (n-1)/(n-2) on it
    for n in (4, 5, 7):
        f = offdiag_kernel(n)
        g = contraction(f, f, 1)
        c2 = F(1, n - 2)
        assert g((1, 2)) * c2 == 1
        assert g((1, 1)) * c2 == F(n - 1, n - 2)


def test_star_kernel_contraction_norm():
    # || f contr1 f ||^2 = 2 (n-1)^2 / (n-2)^2 for the star family
    for n in (4, 5, 8):
        f = star_kernel(n)
        val = contraction(f, f, 1).norm_sq() * F(1, (n - 2) ** 2)
        assert val == F(2 * (n - 1) ** 2, (n - 2) ** 2)


def test_outer_product_and_scalar_contraction():
    scalar = build_kernel(2, 0, [((), F(3))])
    f = HALF
    out = contraction(f, scalar, 0)
    assert out.d == 2 and out((1, 2)) == F(3, 2)


def test_contraction_full_order_is_norm():
    for rnd_seed in (1, 2):
        import random

        rnd = random.Random(rnd_seed)
        f = rational_kernel(3, 2, rnd, mirror=True)
        full = contraction(f, f, 2)
        assert full.d == 0
        # mirror symmetry makes the reversed matching equal the plain norm
        assert full(()) == f.norm_sq()


def _naive_contraction(f, g, q):
    acc: dict = {}
    for fi, fv in f.values.items():
        for gi, gv in g.values.items():
            if gi[:q] == fi[f.d - q:][::-1]:
                key = fi[: f.d - q] + gi[q:]
                acc[key] = acc.get(key, f._zero) + fv * gv
    return {k: v for k, v in acc.items() if v}


def _naive_star_contraction(f, g, r):
    acc: dict = {}
    for fi, fv in f.values.items():
        gamma = fi[f.d - r]
        for gi, gv in g.values.items():
            if gi[: r - 1] == fi[f.d - r + 1:][::-1] and gi[r - 1] == gamma:
                key = fi[: f.d - r] + (gamma,) + gi[r:]
                acc[key] = acc.get(key, f._zero) + fv * gv
    return {k: v for k, v in acc.items() if v}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_contractions_match_the_naive_double_loop(mode):
    import random

    rnd = random.Random(7)
    for n, df, dg in [(4, 1, 2), (4, 2, 2), (5, 2, 3), (4, 3, 3), (6, 3, 2)]:
        f, g = rational_kernel(n, df, rnd, density=0.7), rational_kernel(n, dg, rnd, density=0.7)
        if mode == "float":
            # non-dyadic values, so that the order of summation shows in the bits
            f = Kernel(n, df, {k: rnd.uniform(-1, 1) for k in f.values}, "float")
            g = Kernel(n, dg, {k: rnd.uniform(-1, 1) for k in g.values}, "float")
        for q in range(min(df, dg) + 1):
            got = contraction(f, g, q).values
            assert list(got.items()) == list(_naive_contraction(f, g, q).items())
        for r in range(1, min(df, dg) + 1):
            got = star_contraction(f, g, r).values
            assert list(got.items()) == list(_naive_star_contraction(f, g, r).items())


def test_star_contraction_identities():
    f = offdiag_kernel(5)
    fc = contraction(f, f, 1)
    fs = star_contraction(f, f, 2)
    for g in range(1, 6):
        assert fs((g,)) == fc((g, g))
    fs1 = star_contraction(f, f, 1)
    assert fs1((2, 3, 4)) == f((2, 3)) * f((3, 4))
    zero = build_kernel(5, 2, [])
    assert star_contraction(zero, zero, 1).norm_sq() == 0


def test_influence_profiles():
    n = 6
    f1 = star_kernel(n)
    inf1 = [x * F(1, 2 * n - 2) for x in influence(f1)]
    assert inf1[0] == 1 and all(x == F(1, n - 1) for x in inf1[1:])
    f2 = offdiag_kernel(n)
    inf2 = [x * F(1, n * (n - 1)) for x in influence(f2)]
    assert all(x == F(2, n) for x in inf2)
    f3 = avoid_first_kernel(n)
    inf3 = [x * F(1, (n - 1) * (n - 2)) for x in influence(f3)]
    assert inf3[0] == 0 and all(x == F(2, n - 1) for x in inf3[1:])


@given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_influence_sum_identity(rnd, n, d):
    # slot-summed: sum_i Inf_i(f) = d * sum f^2; first-slot: sums to sum f^2
    f = rational_kernel(n, d, rnd)
    assert sum(influence(f)) == d * f.norm_sq()
    assert sum(influence_first_slot(f)) == f.norm_sq()
    if f.is_symmetric:
        assert influence(f) == [d * x for x in influence_first_slot(f)]


def test_degree_0_kernels_have_zero_influence_profiles():
    for f in (build_kernel(2, 0, [((), F(1, 2))]), build_kernel(3, 0, [((), 0.5)], mode="float")):
        assert influence_first_slot(f) == influence(f) == [f._zero] * f.n


def test_slice():
    f = HALF
    s = slice_kernel(f, (1,))
    assert s.d == 1 and s((2,)) == F(1, 2) and s((1,)) == 0
    assert slice_kernel(f, ()) == f
    assert slice_kernel(f, (1, 2))(()) == F(1, 2)
    with pytest.raises(KernelError):
        slice_kernel(f, (1, 2, 1))


def test_stimacontr_inequalities():
    import random

    rnd = random.Random(5)
    for _ in range(20):
        n, d = rnd.choice([(3, 2), (4, 2), (3, 3)])
        f = rational_kernel(n, d, rnd, mirror=True)
        if not f.values:
            continue
        for q in range(1, d):
            lhs = contraction(f, f, q).norm_sq()
            rhs = star_contraction(f, f, q + 1).norm_sq()
            assert lhs >= rhs
        assert contraction(f, f, d - 1).norm_sq() >= star_contraction(f, f, 1).norm_sq()


def test_magg_inequalities():
    import random

    rnd = random.Random(9)
    for _ in range(20):
        n, d = rnd.choice([(3, 2), (4, 2), (4, 3)])
        f = rational_kernel(n, d, rnd, symmetric=True)
        if not f.values:
            continue
        tau = max(influence(f))
        assert contraction(f, f, d - 1).norm_sq() >= tau * tau * F(1, d * d)
        if d == 2:
            assert (contraction(f, f, 1) - f).norm_sq() >= tau * tau * F(1, 4)


def test_json_roundtrip_bit_exact():
    f = build_kernel(3, 2, [((1, 2), F(1, 3)), ((2, 1), F(1, 3)), ((1, 3), F(-2, 7)), ((3, 1), F(-2, 7))])
    text = kernel_to_json(f)
    assert kernel_from_json(text) == f
    assert kernel_to_json(kernel_from_json(text)) == text
    g = f.to_float()
    assert kernel_from_json(kernel_to_json(g)).mode == "float"


def test_contraction_fixed_point_projection():
    # a projection-like kernel (rank-one, includes the diagonal) is a fixed
    # point of the order-1 contraction, so the midpoint diagnostic vanishes
    proj = Kernel(2, 2, {(i, j): F(1, 2) for i in (1, 2) for j in (1, 2)}, "exact")
    assert (contraction(proj, proj, 1) - proj).norm_sq() == 0


def test_scale_to_unit_variance():
    f = offdiag_kernel(4)
    c = scale_to_unit_variance(f, "classical")
    assert abs(math.factorial(2) * c.norm_sq() - 1) < 1e-12
    u = scale_to_unit_variance(f, "free")
    assert abs(u.norm_sq() - 1) < 1e-12
    with pytest.raises(KernelError):
        scale_to_unit_variance(build_kernel(2, 2, []), "free")


# Fraction referees: the plain double loop and plain sums, every product and
# sum a Fraction, for checking the integer-scaled exact layer by ==
def _referee_norm_sq(values):
    return sum((F(v) * F(v) for v in values.values()), F(0))


def _referee_influence(f, first_slot=False):
    out = [F(0)] * f.n
    for idx, v in f.values.items():
        for i in idx[:1] if first_slot else idx:
            out[i - 1] += F(v) * F(v)
    return out


def _fraction_referee(f):
    return Kernel(f.n, f.d, {k: F(v) for k, v in f.values.items()})


def _exact_cases():
    import random

    rnd = random.Random(11)
    coprime = (F(1, 7), F(1, 11), F(1, 13), F(-2, 7), F(3, 11), F(-5, 13))
    cases = []
    for n, d in [(3, 0), (3, 1), (3, 2), (4, 2), (3, 3), (4, 3)]:
        entries = {}
        for idx in itertools.product(range(1, n + 1), repeat=d):
            if rnd.random() < 0.7:
                entries[idx] = rnd.choice(coprime)
        cases.append(build_kernel(n, d, list(entries.items())))
    # f(1, j) = 1/7 and f(2, j) = -1/7 cancel in f *_1 g against g(j, k) = 1/11,
    # so those sums must come out absent, not stored as 0
    cancel = build_kernel(3, 2, [((1, 1), F(1, 7)), ((1, 2), F(-1, 7)), ((2, 1), F(1, 13)), ((2, 2), F(-1, 13))])
    flat = build_kernel(3, 2, [((j, k), F(1, 11)) for j in (1, 2) for k in (1, 2, 3)])
    cases += [cancel, flat, build_kernel(3, 2, []), build_kernel(3, 0, [])]
    # built directly, with plain int values
    cases += [Kernel(3, 2, {(1, 2): 2, (2, 1): -3, (3, 3): 1}), Kernel(3, 1, {(1,): 1, (3,): -2})]
    return cases, cancel, flat


def test_exact_layer_equals_the_fraction_referee():
    cases, cancel, flat = _exact_cases()
    for f in cases:
        ref = _fraction_referee(f)
        got = f.norm_sq()
        assert type(got) is F and got == _referee_norm_sq(f.values)
        for first_slot, fn in ((False, influence), (True, influence_first_slot)):
            if first_slot and f.d == 0:
                continue
            got = fn(f)
            assert all(type(x) is F for x in got) and got == _referee_influence(f, first_slot)
        for g in cases:
            if g.n != f.n:
                continue
            for q in range(min(f.d, g.d) + 1):
                got = contraction(f, g, q)
                want = _naive_contraction(ref, _fraction_referee(g), q)
                assert got.d == f.d + g.d - 2 * q
                assert list(got.values.items()) == list(want.items())
                assert all(type(v) is F and v for v in got.values.values())
                assert got.norm_sq() == _referee_norm_sq(want)
            for r in range(1, min(f.d, g.d) + 1):
                got = star_contraction(f, g, r)
                want = _naive_star_contraction(ref, _fraction_referee(g), r)
                assert list(got.values.items()) == list(want.items())
                assert all(type(v) is F and v for v in got.values.values())
    # the cancelling rows leave nothing at (1, k) and (2, k)
    out = contraction(cancel, flat, 1)
    assert out.values == {} and out.norm_sq() == 0
    # 1/7 * 1/11 sums over 7 * 11 = 77, not over 11 alone
    assert contraction(build_kernel(2, 1, [((1,), F(1, 7))]), build_kernel(2, 1, [((1,), F(1, 11))]), 1)(()) == F(1, 77)
    # the empty kernel contracts to the empty kernel of the right degree
    empty = build_kernel(3, 2, [])
    assert contraction(empty, flat, 1).values == {} and contraction(empty, flat, 0).d == 4
    assert influence(empty) == [0, 0, 0] and all(type(x) is F for x in influence(empty))


def test_float_norms_and_influences_match_the_plain_loops_bitwise():
    import random

    rnd = random.Random(3)
    for n, d in [(4, 0), (5, 1), (6, 2), (4, 3)]:
        vals = {idx: rnd.uniform(-1, 1) for idx in itertools.product(range(1, n + 1), repeat=d)
                if rnd.random() < 0.6}
        f = Kernel(n, d, vals, "float")
        assert f.norm_sq() == sum((v * v for v in vals.values()), 0.0)
        slots, first = [0.0] * n, [0.0] * n
        for idx, v in vals.items():
            sq = v * v
            for i in idx:
                slots[i - 1] += sq
            if d:
                first[idx[0] - 1] += v * v
        got = influence(f)
        assert all(type(x) is float for x in got) and got == slots
        if d:
            got = influence_first_slot(f)
            assert all(type(x) is float for x in got) and got == first
    # float sums that cancel exactly are absent too
    _, cancel, flat = _exact_cases()
    assert contraction(cancel.to_float(), flat.to_float(), 1).values == {}


def test_scaling_by_zero_gives_the_empty_kernel():
    f = build_kernel(3, 2, [((1, 1), 1), ((1, 2), 2)])
    assert f.vanishes_on_diagonals is False
    z = f.scaled(0)
    assert z.values == {} and z.vanishes_on_diagonals is True
    assert z == build_kernel(3, 2, [])
    assert '"entries": []' in kernel_to_json(z)
    assert f.to_float().scaled(0.0).values == {}
    assert f.scaled(F(1, 2))((1, 2)) == 1
