import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsum.laws import (
    LawError,
    builtin_law,
    builtin_law_names,
    centered_poisson,
    convert,
    free_charlier,
    free_poisson_centered,
    free_rademacher,
    gamma_f,
    gaussian,
    law_from_json,
    law_to_json,
    multivariate_cumulant,
    poly_eval_chebyshev,
    poly_eval_hermite,
    rademacher,
    semicircle,
    tetilla,
    transformed_law,
    uniform_centered,
)
from homsum.partitions import PartitionFilter, SizeCapError, catalan, enumerate_partitions


ALL_LAWS = [
    gaussian(1, 10),
    centered_poisson(1, 10),
    gamma_f(F(3), 10),
    rademacher(10),
    uniform_centered(10),
    semicircle(1, 10),
    free_poisson_centered(1, 10),
    free_rademacher(10),
    tetilla(10),
]


def test_gaussian_moments():
    g = gaussian(1, 8)
    assert g.moments == (1, 0, 1, 0, 3, 0, 15, 0, 105)
    g2 = gaussian(F(2), 4)
    assert g2.moment(2) == 2 and g2.moment(4) == 12


def test_poisson_cumulants_equal_rate():
    cp = centered_poisson(F(7, 2), 8)
    assert cp.cumulant(1) == 0
    assert all(cp.cumulant(k) == F(7, 2) for k in range(2, 9))


def test_free_poisson_moments_are_riordan():
    fp = free_poisson_centered(1, 8)
    assert fp.moments[2:9] == (1, 1, 3, 6, 15, 36, 91)


def test_semicircle_moments_are_catalan():
    s = semicircle(1, 8)
    assert s.moments == (1, 0, 1, 0, 2, 0, 5, 0, 14)


def test_tetilla():
    t = tetilla(8)
    assert t.moment(2) == 1
    assert t.moment(4) == F(5, 2)
    assert t.cumulant(4) == F(1, 2)
    # phi(T^{2n}) closed form at n=3: (1/(3*8)) sum_k 2^k C(6,k-1) C(3,k)
    want = F(1, 24) * sum(2**k * _comb(6, k - 1) * _comb(3, k) for k in range(1, 4))
    assert t.moment(6) == want


def _comb(n, k):
    import math

    return math.comb(n, k) if 0 <= k <= n else 0


def test_gamma_f_low_moments():
    gf = gamma_f(F(5), 4)
    assert gf.moment(1) == 0
    assert gf.moment(2) == 10
    assert gf.moment(3) == 40
    assert gf.moment(4) == 12 * 25 + 48 * 5


def test_free_rademacher_kurtosis():
    assert free_rademacher(6).cumulant(4) == -1


def test_infinite_divisibility_kurtosis_sign():
    assert gaussian(1, 6).cumulant(4) == 0
    assert centered_poisson(1, 6).cumulant(4) > 0
    assert free_poisson_centered(1, 6).cumulant(4) > 0


def test_builtin_registry():
    names = builtin_law_names()
    for name in ("gaussian", "centered_poisson", "gamma_f", "rademacher",
                 "semicircle", "free_poisson_centered", "free_rademacher", "tetilla"):
        assert name in names
    with pytest.raises(LawError):
        builtin_law("cauchy")
    with pytest.raises(LawError):
        builtin_law("gaussian", sigma2=0)


def test_stored_cumulants_match_conversion():
    for law in ALL_LAWS:
        assert convert(law.moments, "moments_to_cumulants", law.kind) == law.cumulants


def test_convert_roundtrip_builtin():
    for law in ALL_LAWS:
        back = convert(convert(law.cumulants, "cumulants_to_moments", law.kind),
                       "moments_to_cumulants", law.kind)
        assert back == law.cumulants


def test_convert_matches_raw_enumeration():
    cums = [F(0), F(1, 2), F(1), F(-2), F(3), F(1, 3), F(0), F(5)]
    for kind in ("classical", "free"):
        got = convert(cums, "cumulants_to_moments", kind)
        filt = PartitionFilter(noncrossing=(kind == "free"))
        for n in range(1, 8):
            brute = F(0)
            for sig in enumerate_partitions(n, filt):
                term = F(1)
                for b in sig.blocks:
                    term *= cums[len(b)]
                brute += term
            assert got[n] == brute


def test_convert_matches_the_class_sum_referee_on_builtin_laws(convert_referee):
    # every built-in law's sequences to order 30, read under both kinds; the
    # conversion is triangular, so each prefix converts to the same prefix
    for name in builtin_law_names():
        law = builtin_law(name, 30, **({"nu": F(3)} if name == "gamma_f" else {}))
        for kind in ("classical", "free"):
            for direction, seq in (("moments_to_cumulants", law.moments), ("cumulants_to_moments", law.cumulants)):
                got = convert(seq, direction, kind)
                assert got == convert_referee(seq, direction, kind), (name, kind, direction)
                for order in range(31):
                    assert convert(seq[: order + 1], direction, kind) == got[: order + 1]


@given(st.lists(st.fractions(max_denominator=7), min_size=0, max_size=12))
@settings(max_examples=40, deadline=None)
def test_convert_matches_the_class_sum_referee(convert_referee, tail):
    seq = [F(1)] + tail
    for kind in ("classical", "free"):
        for direction in ("moments_to_cumulants", "cumulants_to_moments"):
            assert convert(seq, direction, kind) == convert_referee(seq, direction, kind)


def _random_block_oracle(rng, values):
    """Position-dependent joint moments: an independent rational per block, drawn on first use."""
    table = {}

    def oracle(block):
        if block not in table:
            table[block] = F(rng.choice(values), rng.randint(1, 6))
        return table[block]

    return oracle


def test_joint_cumulant_matches_the_moebius_referee(cumulant_referee):
    rng = random.Random(20170)
    for kind in ("classical", "free"):
        for n in range(1, 9):
            # wide values, then values with many zeros so that zero cumulants occur
            for values in (range(-20, 21), (-1, 0, 0, 1)):
                oracle = _random_block_oracle(rng, values)
                asked = []

                def counting(block):
                    asked.append(block)
                    return oracle(block)

                got = multivariate_cumulant(counting, n, kind)
                assert got == cumulant_referee(oracle, n, kind), (kind, n)
                assert isinstance(got, F)
                assert len(asked) == len(set(asked))  # one call per distinct block
                assert all(list(b) == sorted(b) and 1 <= b[0] and b[-1] <= n for b in asked)


def test_joint_cumulant_errors():
    same = lambda b: F(1)
    for kind in ("classical", "free"):
        with pytest.raises(ValueError, match="n must be >= 1"):
            multivariate_cumulant(same, 0, kind)
        with pytest.raises(SizeCapError):
            multivariate_cumulant(same, 5, kind, cap=4)
        with pytest.raises(SizeCapError):
            multivariate_cumulant(same, 15, kind)
        assert multivariate_cumulant(same, 4, kind, cap=4) == 0
    with pytest.raises(LawError):
        multivariate_cumulant(same, 2, "boolean")


def test_gaussian_from_cumulants():
    moms = convert((0, 0, 1, 0, 0, 0, 0, 0, 0), "cumulants_to_moments", "classical")
    assert moms == gaussian(1, 8).moments


def test_catalan_from_free_cumulants():
    moms = convert((0, 0, 1, 0, 0, 0, 0, 0, 0), "cumulants_to_moments", "free")
    assert moms == (1, 0, 1, 0, 2, 0, 5, 0, 14)


def test_kurtosis_formula():
    r = rademacher(4)
    assert r.cumulant(4) == r.moment(4) - 3 * r.moment(2) ** 2 == -2


@given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_convert_roundtrip_property(cs):
    cums = tuple([F(0)] + [F(c) for c in cs])
    for kind in ("classical", "free"):
        back = convert(convert(cums, "cumulants_to_moments", kind),
                       "moments_to_cumulants", kind)
        assert back == cums


def test_transformed_laws():
    u2 = transformed_law("semicircle", 2, 6)
    assert u2.moments == free_poisson_centered(1, 6).moments
    h2 = transformed_law("gaussian", 2, 4)
    assert h2.moment(2) == 2 and h2.moment(4) == 60
    u1 = transformed_law("semicircle", 1, 8)
    assert u1.moments == semicircle(1, 8).moments
    assert transformed_law("gaussian", 3, 4).moment(3) == 0  # odd h*k
    with pytest.raises(LawError):
        transformed_law("gaussian", 2, max_order=20)


def test_multivariate_cumulants():
    r = rademacher(8)

    def same(b):
        return r.moment(len(b))

    assert multivariate_cumulant(same, 2, "classical") == 1  # Var(X)
    assert multivariate_cumulant(same, 4, "classical") == r.cumulant(4)

    def indep(b):
        c1 = sum(1 for j in b if j <= 1)
        return r.moment(c1) * r.moment(len(b) - c1)

    assert multivariate_cumulant(indep, 2, "classical") == 0

    fp = free_poisson_centered(1, 8)
    assert multivariate_cumulant(lambda b: fp.moment(len(b)), 4, "free") == 1


def test_polynomials():
    assert poly_eval_chebyshev(0, F(7)) == 1
    assert poly_eval_chebyshev(2, F(3)) == 8            # x^2 - 1
    assert poly_eval_chebyshev(3, F(2)) == 4            # x^3 - 2x
    assert poly_eval_hermite(2, F(3)) == 8              # x^2 - 1
    assert poly_eval_hermite(3, F(2)) == 2              # x^3 - 3x
    assert free_charlier(0, F(5), F(1)) == 1
    assert free_charlier(1, F(5), F(1)) == 5


def test_charlier_chebyshev_identity():
    for k in range(6):
        for x in (-2, -1, 0, 1, 2):
            lhs = free_charlier(k, poly_eval_chebyshev(2, F(x)), F(1))
            assert lhs == poly_eval_chebyshev(2 * k, F(x))


def test_law_from_json_is_not_bounded_by_the_size_cap():
    # free Rademacher: kappa_{2k} = (-1)^(k-1) Cat_{k-1}, odd cumulants 0
    moms = [str(1 - k % 2) for k in range(21)]
    law = law_from_json(json.dumps({"name": "fr20", "kind": "free", "moments": moms}))
    assert law.cumulants == convert([F(m) for m in moms], "moments_to_cumulants", "free")
    want = [0] + [0 if k % 2 else (-1) ** (k // 2 - 1) * catalan(k // 2 - 1) for k in range(1, 21)]
    assert list(law.cumulants) == want


def test_conversion_order_limit():
    assert len(convert([1] + [0] * 30, "moments_to_cumulants", "classical")) == 31
    with pytest.raises(LawError, match="order 31 exceeds the conversion limit 30"):
        convert([1] + [0] * 31, "moments_to_cumulants", "classical")
    with pytest.raises(LawError, match="conversion limit"):
        rademacher(31)


def test_empty_sequences_and_negative_orders_are_law_errors():
    for kind in ("classical", "free"):
        for direction in ("moments_to_cumulants", "cumulants_to_moments"):
            with pytest.raises(LawError, match="order-0 entry"):
                convert([], direction, kind)
            assert len(convert([1], direction, kind)) == 1
    for name in builtin_law_names():
        params = {"nu": F(3)} if name == "gamma_f" else {}
        with pytest.raises(LawError, match="max_order must be >= 0"):
            builtin_law(name, max_order=-1, **params)
        assert builtin_law(name, max_order=0, **params).max_order == 0
    for ctor in (gaussian, semicircle):  # the two that fill both sequences themselves
        with pytest.raises(LawError, match="same order"):
            ctor(1, max_order=-1)


def test_law_json_roundtrip():
    t = tetilla(8)
    back = law_from_json(law_to_json(t))
    assert back.moments == t.moments and back.kind == "free" and back.name == "tetilla"
