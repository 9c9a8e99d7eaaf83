import itertools
import math
import random
from fractions import Fraction
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homsum import orthopoly
from homsum.cli import run
from homsum.laws import (
    builtin_law,
    builtin_law_names,
    centered_poisson,
    free_poisson_centered,
    gamma_f,
    gaussian,
    rademacher,
    semicircle,
    tetilla,
    uniform_centered,
)
from homsum.orthopoly import (
    EXPECTATION_GUARD,
    DegenerateError,
    MomentFunctional,
    MultiMomentFunctional,
    OrthopolyError,
    discriminant_moment,
    discriminant_product_poly,
    exact_det,
    gops_determinant,
    gops_expectation,
    gops_route_ratio,
    hankel_det,
    multi_gops_determinant,
    multi_indices_upto,
    orthogonality_check,
    poly_deg,
    poly_mul,
    poly_roots,
    poly_trim,
    quadrature_rule,
    recurrence_coeffs,
    sylvester_decompose,
    translated_moment_poly,
    _perm_sign,
    _pfaffian,
    _row_cofactors,
)

from conftest import multi_orthogonality_check

G = MomentFunctional.from_law(gaussian(1, 14))


def with_shifted_aux(law, shifts=(1, 2, 3)):
    main = MomentFunctional.from_law(law)
    groups = [main.groups[0]]
    for t in shifts:
        groups.append(main.shifted(t).groups[0])
    return MomentFunctional(tuple(groups))


@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_exact_det_matches_numpy(n, rnd):
    rows = [[F(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    got = exact_det(rows)
    want = np.linalg.det(np.array([[float(x) for x in r] for r in rows]))
    assert abs(float(got) - want) < 1e-8 * max(1.0, abs(want))


def test_hankel():
    rep = hankel_det(G, 2)
    assert rep["det"] == 1 and rep["vandermonde_sq_expectation"] == 2
    assert hankel_det(G, 1)["det"] == 1
    assert hankel_det(MomentFunctional.from_law(rademacher(10)), 3)["det"] == 0
    with pytest.raises(OrthopolyError):
        hankel_det(MomentFunctional.from_law(gaussian(1, 4)), 4)


def test_gops_determinant_gaussian():
    assert gops_determinant(G, 2, 1) == (F(-1), F(0), F(1))  # x^2 - 1, constant +1


def test_gops_expectation_proportional():
    p = gops_expectation(G, 2, 1)
    assert poly_trim(p) == (F(-2), F(0), F(2))
    assert gops_route_ratio(gops_determinant(G, 2, 1), p, 2, 1) == 2


def test_single_group_orthogonality_m1():
    for law in [gaussian(1, 14), centered_poisson(1, 14), gamma_f(F(3), 14),
                semicircle(1, 14), free_poisson_centered(1, 14), tetilla(14),
                uniform_centered(14)]:
        Fm = MomentFunctional.from_law(law)
        for n in range(1, 5):
            p = gops_determinant(Fm, n, 1)
            chk = orthogonality_check(Fm, p, n, 1)
            assert chk["orthogonal"] and chk["nonvanishing_next"], (law.name, n)
            assert gops_route_ratio(p, gops_expectation(Fm, n, 1), n, 1) == math.factorial(n)


def test_route_ratio_other_than_the_andreief_constant_raises():
    # a route off by 3 instead of 2! = 2 is a disagreement, not a new constant
    p = gops_determinant(G, 2, 1)
    with pytest.raises(OrthopolyError, match="not 2 times"):
        gops_route_ratio(p, tuple(3 * c for c in p), 2, 1)


PERMUTATION_GUARD = 10**7


def permutation_expectation(F: MomentFunctional, n: int, m: int):
    """The expectation route as a permutation expansion, without exact_det:
    E_0[Delta(X_1..X_{n-m+1}) Delta(x_0, X_1..X_n)], expanded over
    permutations and factorized by independence.

    X_1..X_{n-m+1} follow the main group; X_{n-m+1+t} follows group t+1.
    """
    if not (1 <= m <= n):
        raise OrthopolyError("need 1 <= m <= n")
    r = n - m + 1
    if math.factorial(r) * math.factorial(n + 1) > PERMUTATION_GUARD:
        raise OrthopolyError("permutation expansion exceeds the feasibility guard")

    def group_of(j: int) -> int:
        # X_1..X_r share group 0 and X_{r+t} (t >= 1) uses group t; F.moment
        # reads a missing group as group 0
        return 0 if j <= r else j - r

    coeffs = [Fraction(0)] * (n + 1)
    small = list(itertools.permutations(range(r)))
    for tau in itertools.permutations(range(n + 1)):
        sgn_tau = _perm_sign(tau)
        # exponent of X_j (j = 0..n) from the big Vandermonde
        for sigma in small:
            sgn = sgn_tau * _perm_sign(sigma)
            term = Fraction(sgn)
            for j in range(1, n + 1):
                e = tau[j] + (sigma[j - 1] if j <= r else 0)
                term *= F.moment(group_of(j), e)
                if term == 0:
                    break
            else:
                coeffs[tau[0]] += term
    p = poly_trim(coeffs)
    if poly_deg(p) != n:
        raise DegenerateError(
            f"expectation route gives degree {poly_deg(p)} != {n} (degenerate moment data)"
        )
    return p


def assert_routes_agree(Fm, n, m):
    try:
        want = permutation_expectation(Fm, n, m)
    except DegenerateError:
        with pytest.raises(DegenerateError):
            gops_expectation(Fm, n, m)
    else:
        assert gops_expectation(Fm, n, m) == want, (n, m)


def test_expectation_route_equals_the_permutation_expansion():
    params = {"gamma_f": {"nu": F(3)}}
    functionals = [
        MomentFunctional.from_law(builtin_law(name, 14, **params.get(name, {})))
        for name in builtin_law_names()
    ]
    functionals.append(with_shifted_aux(gaussian(1, 14)))
    for Fm in functionals:
        for n in range(1, 5):
            for m in range(1, n + 1):
                assert_routes_agree(Fm, n, m)


def test_expectation_route_equals_the_permutation_expansion_on_bench_shapes():
    gauss = MomentFunctional.from_law(gaussian(1, 14))
    assert_routes_agree(gauss, 5, 1)
    assert_routes_agree(MomentFunctional.from_law(gaussian(1, 14), centered_poisson(2, 14)), 5, 2)
    extras = (centered_poisson(2, 14), gamma_f(F(3), 14), uniform_centered(14))
    assert_routes_agree(MomentFunctional.from_law(gaussian(1, 14), *extras), 6, 4)


def test_degenerate_data_raises_on_both_routes():
    Fm = MomentFunctional.from_law(rademacher(14))
    with pytest.raises(DegenerateError):
        permutation_expectation(Fm, 3, 1)
    with pytest.raises(DegenerateError):
        gops_expectation(Fm, 3, 1)


def test_expectation_guard_admits_every_shape_the_permutation_guard_did():
    for n in range(1, 13):
        for m in range(1, n + 1):
            r = n - m + 1
            if math.factorial(r) * math.factorial(n + 1) <= PERMUTATION_GUARD:
                assert math.factorial(r) * (n + 1) <= 5040 <= EXPECTATION_GUARD, (n, m)


def test_expectation_guard_refuses_before_any_determinant(monkeypatch):
    import homsum.orthopoly as O

    def no_det(rows):
        raise AssertionError("determinant work before the guard")

    monkeypatch.setattr(O, "exact_det", no_det)
    monkeypatch.setattr(O, "_row_cofactors", no_det)
    # 7! * 8 = 40320 determinants, counted as before although the route takes 7! eliminations
    with pytest.raises(OrthopolyError, match="guard"):
        gops_expectation(G, 7, 1)


def test_expectation_route_reads_each_group_to_its_order():
    n, m = 4, 2
    main = gaussian(1, 14).moments
    extra = centered_poisson(2, 14).moments
    want = gops_expectation(MomentFunctional((main, extra)), n, m)
    # the main group to order 2n - m, each extra group to order n
    assert gops_expectation(MomentFunctional((main[:2 * n - m + 1], extra[:n + 1])), n, m) == want
    with pytest.raises(OrthopolyError, match="need 6"):
        gops_expectation(MomentFunctional((main[:2 * n - m], extra)), n, m)
    with pytest.raises(OrthopolyError, match="need 4"):
        gops_expectation(MomentFunctional((main, extra[:n])), n, m)


@pytest.mark.parametrize("n, m", [(4, 2), (4, 3), (5, 3)])
def test_determinant_route_reads_each_group_to_its_order(n, m):
    # the main group to order 2n - m and each extra group to order n, not
    # every group to the shortest group's order
    main = gaussian(1, 14).moments
    extras = [centered_poisson(2, 14).moments, gamma_f(3, 14).moments][: m - 1]
    exact = [main[: 2 * n - m + 1]] + [g[: n + 1] for g in extras]
    want = gops_determinant(MomentFunctional((main, *extras)), n, m)
    Fe = MomentFunctional(tuple(exact))
    assert gops_determinant(Fe, n, m) == want
    assert gops_route_ratio(want, gops_expectation(Fe, n, m), n, m) == math.factorial(n - m + 1)
    for j in range(m):
        short = list(exact)
        short[j] = short[j][:-1]
        with pytest.raises(OrthopolyError, match=f"order {2 * n - m}" if j == 0 else f"group {j} .* need {n}"):
            gops_determinant(MomentFunctional(tuple(short)), n, m)


def test_determinant_route_equals_the_expectation_route_with_a_short_extra_group():
    Fs = MomentFunctional((gaussian(1, 14).moments, centered_poisson(2, 14).moments[:5]))
    assert gops_expectation(Fs, 4, 2) == (72, 180, -144, -60, 24)
    assert gops_determinant(Fs, 4, 2) == (12, 30, -24, -10, 4)
    assert gops_route_ratio(gops_determinant(Fs, 4, 2), gops_expectation(Fs, 4, 2), 4, 2) == 6


def test_recurrence_reads_the_main_group_only():
    N = 4
    main = gaussian(1, 2 * N).moments
    want = recurrence_coeffs(G, N)
    assert recurrence_coeffs(MomentFunctional((main, (F(1),))), N) == want
    with pytest.raises(OrthopolyError, match=f"order {2 * N}"):
        recurrence_coeffs(MomentFunctional((main[: 2 * N],)), N)


def test_single_group_higher_m_is_degenerate():
    # with identical auxiliary rows the determinant has two equal rows
    with pytest.raises(DegenerateError):
        gops_determinant(G, 2, 2)


def test_multi_group_orthogonality():
    FM = with_shifted_aux(gaussian(1, 14))
    for n in range(1, 5):
        for m in range(1, n + 1):
            p = gops_determinant(FM, n, m)
            chk = orthogonality_check(FM, p, n, m)
            assert chk["orthogonal"], (n, m)
            assert gops_route_ratio(p, gops_expectation(FM, n, m), n, m) == math.factorial(n - m + 1)


def test_rademacher_hankel_degeneracy_detected():
    Fm = MomentFunctional.from_law(rademacher(14))
    with pytest.raises(DegenerateError):
        gops_determinant(Fm, 3, 1)


def test_recurrences():
    rec = recurrence_coeffs(G, 5)
    assert all(a == 0 for a in rec["alphas"])
    assert rec["betas"][1:] == (1, 2, 3, 4)
    recS = recurrence_coeffs(MomentFunctional.from_law(semicircle(1, 12)), 5)
    assert all(a == 0 for a in recS["alphas"]) and recS["betas"][1:] == (1, 1, 1, 1)
    # charlier-type: validate orthogonality only
    P = MomentFunctional.from_law(centered_poisson(1, 12))
    recP = recurrence_coeffs(P, 4)
    for i in range(5):
        for j in range(i):
            prod = poly_mul(recP["polys"][i], recP["polys"][j])
            val = sum((c * P.moment(0, k) for k, c in enumerate(prod)), F(0))
            assert val == 0
    with pytest.raises(DegenerateError):
        recurrence_coeffs(MomentFunctional.from_law(rademacher(14)), 4)


@st.composite
def cofactor_matrices(draw):
    """n x (n+1) Fraction matrices, n = 1..7, with zero and negative entries,
    and sometimes a duplicated row (rank n - 1), two dependent row pairs (rank
    below n - 1) or a zero first column."""
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
    rows = [draw(st.lists(entry, min_size=n + 1, max_size=n + 1)) for _ in range(n)]
    shape = draw(st.sampled_from(["generic", "duplicate", "two_pairs", "zero_column"]))
    rnd = draw(st.randoms(use_true_random=False))
    if shape == "duplicate" and n >= 2:
        i, j = rnd.sample(range(n), 2)
        rows[j] = list(rows[i])
    elif shape == "two_pairs" and n >= 4:
        a, b, c, d = rnd.sample(range(n), 4)
        rows[b] = [-x for x in rows[a]]
        rows[d] = [F(2, 3) * x for x in rows[c]]
    elif shape == "zero_column":
        for row in rows:
            row[0] = F(0)
    return rows


@given(cofactor_matrices())
@settings(max_examples=300, deadline=None)
@example([])
@example([[F(0), F(0)]])
@example([[F(1), F(2), F(3)], [F(2), F(4), F(6)]])
@example([[F(0), F(1), F(2)], [F(0), F(3), F(-1)]])
def test_row_cofactors_equal_the_per_column_determinants(cofactor_referee, rows):
    assert _row_cofactors(rows) == cofactor_referee(rows)


def test_route_ratio_at_n6():
    assert gops_route_ratio(gops_determinant(G, 6, 1), gops_expectation(G, 6, 1), 6, 1) == 720


def three_atom_law():
    """Moments to order 30 of the law with atoms -1, 0, 2 and weights 1/4,
    1/2, 1/4: <p_3, p_3> = 0, so the recurrence stops at step 3."""
    atoms = ((F(-1), F(1, 4)), (F(0), F(1, 2)), (F(2), F(1, 4)))
    return MomentFunctional((tuple(sum(w * x**k for x, w in atoms) for k in range(31)),))


def recurrence_or_error(route, func, N):
    try:
        return route(func, N)
    except DegenerateError as exc:
        return str(exc)


def test_recurrence_equals_the_stieltjes_referee_on_every_builtin_law(recurrence_referee):
    params = {"gamma_f": {"nu": F(3)}}
    for name in builtin_law_names():
        Fm = MomentFunctional.from_law(builtin_law(name, 30, **params.get(name, {})))
        for N in range(16):
            got = recurrence_or_error(recurrence_coeffs, Fm, N)
            assert got == recurrence_or_error(recurrence_referee, Fm, N), (name, N)
            if isinstance(got, dict):
                assert all(type(c) is F for p in got["polys"] for c in p)


def test_recurrence_degenerates_at_the_referee_step(recurrence_referee):
    rad, atoms3 = MomentFunctional.from_law(rademacher(30)), three_atom_law()
    want = {(rad, 3): 2, (atoms3, 4): 3}
    for (Fm, N), step in want.items():
        for route in (recurrence_coeffs, recurrence_referee):
            with pytest.raises(DegenerateError, match=rf"^Hankel degeneracy at step {step}: <p_k, p_k> = 0$"):
                route(Fm, N)
    # three atoms carry a full recurrence to N = 3
    assert recurrence_coeffs(atoms3, 3) == recurrence_referee(atoms3, 3)


def test_recurrence_reproduces_determinant_up_to_normalization():
    for law in (gaussian(1, 12), centered_poisson(1, 12)):
        Fm = MomentFunctional.from_law(law)
        rec = recurrence_coeffs(Fm, 4)
        for n in range(1, 5):
            monic = rec["polys"][n]
            det = gops_determinant(Fm, n, 1)
            ratio = det[-1]
            assert tuple(c * ratio for c in monic) == det


def test_h5_roots():
    rec = recurrence_coeffs(G, 5)
    H5 = rec["polys"][5]
    assert H5 == (F(0), F(15), F(0), F(-10), F(0), F(1))
    rts = poly_roots(H5)
    want = sorted([0.0, math.sqrt(5 - math.sqrt(10)), -math.sqrt(5 - math.sqrt(10)),
                   math.sqrt(5 + math.sqrt(10)), -math.sqrt(5 + math.sqrt(10))])
    assert rts["all_simple"]
    assert all(abs(z.real - w) < 1e-9 and abs(z.imag) < 1e-12 for z, w in zip(rts["roots"], want))


def test_a6_roots_match_reported_values():
    A6 = translated_moment_poly(G, 6)
    assert A6 == (F(15), F(0), F(45), F(0), F(15), F(0), F(1))
    r6 = poly_roots(A6)
    mods = sorted(abs(z.imag) for z in r6["roots"])
    want = sorted([0.6167065905] * 2 + [1.889175878] * 2 + [3.324257434] * 2)
    assert all(abs(a - b) < 1e-6 for a, b in zip(mods, want))
    assert all(abs(z.real) < 1e-6 for z in r6["roots"])


def test_quadrature_rules():
    rule2 = quadrature_rule(G, 2)
    assert rule2.node_kind == "real-simple"
    assert sorted(z.real for z in rule2.nodes) == [-1.0, 1.0]
    assert all(abs(w.real - 0.5) < 1e-12 for w in rule2.weights)
    rule5 = quadrature_rule(G, 5)
    ws = sorted(w.real for w in rule5.weights)
    want = sorted([0.5333333333, 0.2220759228, 0.2220759228, 0.01125741133, 0.01125741133])
    assert all(abs(a - b) < 1e-8 for a, b in zip(ws, want))
    assert rule5.max_residual < 1e-9
    assert rule5.exactness_degree == 9


def test_quadrature_weight_translation_invariance():
    for law in (gaussian(1, 14), centered_poisson(1, 14)):
        Fm = MomentFunctional.from_law(law)
        for n in (2, 3):
            w0 = sorted(z.real for z in quadrature_rule(Fm, n).weights)
            ws = sorted(z.real for z in quadrature_rule(Fm.shifted(F(3, 2)), n).weights)
            assert all(abs(a - b) < 1e-9 for a, b in zip(w0, ws))


# quadrature_rule passes its exactness check at every n up to these
QUADRATURE_REACH = [
    (centered_poisson(1, 30), 15),
    (gamma_f(F(3, 2), 30), 15),
    (uniform_centered(30), 15),
    (free_poisson_centered(1, 30), 15),
    (semicircle(1, 30), 15),
    (tetilla(30), 14),
    (gaussian(1, 30), 10),
]


@pytest.mark.parametrize("law, reach", QUADRATURE_REACH, ids=lambda v: getattr(v, "name", str(v)))
def test_quadrature_rule_reach(law, reach):
    Fm = MomentFunctional.from_law(law)
    for n in range(1, reach + 1):
        assert quadrature_rule(Fm, n).node_kind == "real-simple", (law.name, n)


# m_{2j} (-1)^j from the standard Gaussian: the moments of iZ, a
# quasi-definite functional with beta_k = -k.  Its Gauss rule has the
# nodes i x_j and the weights of the Gauss-Hermite rule.
IZ = MomentFunctional((tuple(m * (-1) ** (j // 2) for j, m in enumerate(G.groups[0])),))


def test_quadrature_rule_with_complex_nodes():
    for n in range(2, 8):
        rule = quadrature_rule(IZ, n)
        assert rule.node_kind == "complex"
        x, w = np.polynomial.hermite_e.hermegauss(n)
        w = w / math.sqrt(2 * math.pi)
        got = sorted(zip(rule.nodes, rule.weights), key=lambda nw: nw[0].imag)
        for (z, wz), xj, wj in zip(got, x, w):
            assert abs(z - 1j * xj) < 1e-12 and abs(wz - wj) < 1e-12, (n, z, wz)


def test_gauss_rules_equal_the_numpy_referee(gauss_rule_referee, monkeypatch):
    # wherever both routes pass quadrature_rule's exactness check
    cases = [(Fm, range(1, 16)) for Fm in builtin_functionals(30)] + [(IZ, range(2, 8))]

    def rules():
        out = {}
        for i, (Fm, ns) in enumerate(cases):
            for n in ns:
                try:
                    out[i, n] = quadrature_rule(Fm, n)
                except OrthopolyError:
                    pass
        return out

    ours = rules()
    monkeypatch.setattr(orthopoly, "_gauss_nodes_weights", gauss_rule_referee)
    theirs = rules()
    both = ours.keys() & theirs.keys()
    assert {(len(cases) - 1, n) for n in range(2, 8)} <= both
    assert {i for i, _ in both} == set(range(len(cases)))
    for key in sorted(both):
        got, want = ours[key], theirs[key]
        assert got.node_kind == want.node_kind, key
        for a, b in zip(got.nodes + got.weights, want.nodes + want.weights):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (key, a, b)


def test_ql_sweep_cap_raises_and_the_cli_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(orthopoly, "QL_SWEEPS", 1)
    with pytest.raises(OrthopolyError, match="did not converge in 1 sweeps"):
        quadrature_rule(G, 4)
    assert run(["quadrature", "--law", "gaussian", "--n", "4"]) == 2
    assert "did not converge" in capsys.readouterr().out


def test_a_beta_below_the_float_range_is_degenerate():
    # atoms -1, 0, 1 with P(0) = 10^-400: beta_2 = 10^-400 is 0.0 as a float
    eps = F(1, 10**400)
    Fm = MomentFunctional(((F(1), *(1 - eps if j % 2 == 0 else F(0) for j in range(1, 7))),))
    assert recurrence_coeffs(Fm, 3)["betas"][2] == eps
    with pytest.raises(DegenerateError, match="underflows a float"):
        quadrature_rule(Fm, 3)


def test_imaginary_nodes_and_roots_come_in_increasing_im():
    # a real part of rounding size counts as 0, so purely imaginary nodes and
    # roots sort by their imaginary parts alone
    nodes = quadrature_rule(IZ, 5).nodes
    x = np.polynomial.hermite_e.hermegauss(5)[0]
    assert all(abs(z - 1j * xj) < 1e-12 for z, xj in zip(nodes, x)), nodes
    roots = poly_roots((F(0), F(4), F(0), F(5), F(0), F(1)))["roots"]  # x^5 + 5x^3 + 4x
    assert all(abs(z - w) < 1e-12 for z, w in zip(roots, (-2j, -1j, 0, 1j, 2j))), roots
    # real rules keep their increasing order
    real = quadrature_rule(G, 5).nodes
    assert list(real) == sorted(real, key=lambda z: z.real)


def test_discriminant_moment_three_routes():
    assert discriminant_moment(G, 2, 1, "expansion") == 2
    assert discriminant_moment(G, 2, 2, "expansion") == 12
    assert discriminant_moment(G, 3, 2, "expansion") == 4320
    assert discriminant_moment(G, 2, 2, "lu_gaussian") == 12
    assert discriminant_moment(G, 3, 2, "lu_gaussian") == 4320
    assert abs(discriminant_moment(G, 2, 2, "quadrature") - 12) < 12e-6
    assert abs(discriminant_moment(G, 3, 2, "quadrature") - 4320) < 4320e-6
    for law in (centered_poisson(1, 10), rademacher(10), uniform_centered(10)):
        assert discriminant_moment(MomentFunctional.from_law(law), 2, 1, "expansion") == 2
    # scaled Gaussian: the closed form tracks sigma^{N(N-1)k}
    G2 = MomentFunctional.from_law(gaussian(F(4), 14))
    assert discriminant_moment(G2, 2, 2, "lu_gaussian") == 12 * 4**2
    assert discriminant_moment(G2, 2, 2, "expansion") == 12 * 4**2


BUILTIN_PARAMS = {"gamma_f": {"nu": F(3)}}


def builtin_functionals(max_order):
    return [
        MomentFunctional.from_law(builtin_law(name, max_order, **BUILTIN_PARAMS.get(name, {})))
        for name in builtin_law_names()
    ]


@pytest.mark.parametrize("law", [gaussian(1, 14), uniform_centered(14), centered_poisson(1, 14)], ids=lambda l: l.name)
def test_discriminant_quadrature_equals_the_tensor_rule(law, tensor_rule_referee):
    Fm = MomentFunctional.from_law(law)
    for N in range(1, 5):
        for k in (1, 2):
            want = tensor_rule_referee(Fm, N, k)
            assert abs(discriminant_moment(Fm, N, k, "quadrature") - want) <= 1e-12 * abs(want), (N, k)


def test_discriminant_quadrature_equals_the_exact_routes():
    # wherever the Gauss rule with k(N-1)+1 nodes passes its check
    reached = set()
    for Fm in builtin_functionals(30):
        for N in range(1, 9):
            for k in (1, 2):
                try:
                    quadrature_rule(Fm, k * (N - 1) + 1)
                except OrthopolyError:
                    continue
                want = float(discriminant_moment(Fm, N, k, "expansion"))
                got = discriminant_moment(Fm, N, k, "quadrature")
                assert abs(got - want) <= 1e-12 * abs(want), (Fm, N, k, got, want)
                reached.add((N, k))
    assert (8, 2) in reached


def test_discriminant_determinant_forms_equal_the_monomial_expansion(discriminant_referee):
    for Fm in builtin_functionals(16):
        for N in range(1, 6):
            assert discriminant_moment(Fm, N, 1) == discriminant_referee.moment(Fm, N, 1), (Fm, N)
            assert discriminant_product_poly(Fm, N, 1) == discriminant_referee.product_poly(Fm, N, 1), (Fm, N)
        for N in range(1, 5):
            assert discriminant_moment(Fm, N, 2) == discriminant_referee.moment(Fm, N, 2), (Fm, N)


def test_sixth_discriminant_moment_and_product_polys_equal_the_referee(discriminant_referee):
    for Fm in builtin_functionals(16):
        for N in range(1, 4):
            assert discriminant_moment(Fm, N, 3) == discriminant_referee.moment(Fm, N, 3), (Fm, N)
        for n, k in [(2, 2), (3, 2), (2, 3)]:
            assert discriminant_product_poly(Fm, n, k) == discriminant_referee.product_poly(Fm, n, k), (Fm, n, k)


def test_sixth_discriminant_moment_reaches_the_gaussian_closed_form():
    for s2 in (1, F(4)):
        Fm = MomentFunctional.from_law(gaussian(s2, 18))
        for N in range(1, 5):
            assert discriminant_moment(Fm, N, 3) == discriminant_moment(Fm, N, 3, "lu_gaussian"), (s2, N)


def test_monomial_guard_refuses_before_any_moment_is_read(monkeypatch):
    import homsum.orthopoly as O

    monkeypatch.setattr(O, "MONOMIAL_GUARD", 20)
    m0_only = MomentFunctional(((F(1),),))
    with pytest.raises(OrthopolyError, match="feasibility guard"):
        discriminant_moment(m0_only, 3, 3)
    with pytest.raises(OrthopolyError, match="feasibility guard"):
        discriminant_product_poly(m0_only, 2, 2)
    # (X_2 - X_1)^6 has 7 monomials, and X_2 - X_1 ~ N(0, 2) gives 15 * 2^3
    assert discriminant_moment(G, 2, 3) == 120


# small rationals with zeros and signs: the drawn functionals need not be
# positive, so Hankel and Pfaffian pivots vanish and the Pfaffian swaps
DRAWN_MOMENTS = st.lists(
    st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5)]),
    min_size=8, max_size=8,
)


@given(DRAWN_MOMENTS, st.integers(min_value=1, max_value=4))
@example([F(x) for x in (0, 0, 1, 0, 2, 1, 0, 0)], 3)  # the Pfaffian swaps a pivot in; E[Delta^4] = 162
@settings(max_examples=60, deadline=None)
def test_discriminant_determinant_forms_equal_the_expansion_on_drawn_moments(
    discriminant_referee, tail, n
):
    Fm = MomentFunctional(((F(1), *tail),))
    assert discriminant_moment(Fm, n, 1) == discriminant_referee.moment(Fm, n, 1)
    assert discriminant_product_poly(Fm, n, 1) == discriminant_referee.product_poly(Fm, n, 1)
    if n <= 3:
        assert discriminant_moment(Fm, n, 2) == discriminant_referee.moment(Fm, n, 2)


def matching_pfaffian(a):
    """Pfaffian by expansion along the first row over perfect matchings."""
    if not a:
        return F(1)
    total = F(0)
    for j in range(1, len(a)):
        rest = [i for i in range(1, len(a)) if i != j]
        minor = [[a[r][c] for c in rest] for r in rest]
        total += (-1) ** (j + 1) * a[0][j] * matching_pfaffian(minor)
    return total


@given(st.integers(min_value=0, max_value=3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_pfaffian_equals_the_matching_expansion(half, rnd):
    n = 2 * half
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rnd.choice([0, 0, 0, 1, -1, 2, -3]), rnd.choice([1, 1, 2, 3]))
            a[i][j], a[j][i] = v, -v
    assert _pfaffian(a) == matching_pfaffian(a)


def test_discriminant_determinant_forms_reach_the_gaussian_closed_form():
    # the Mehta closed form is an independent route; the monomial expansion
    # already took seconds at N = 6, k = 1
    Fm = MomentFunctional.from_law(gaussian(1, 28))
    for k in (1, 2):
        for N in range(1, 9):
            assert discriminant_moment(Fm, N, k, "expansion") == discriminant_moment(Fm, N, k, "lu_gaussian"), (N, k)


@pytest.mark.parametrize("N, k", [(3, 1), (4, 1), (2, 2), (3, 2)])
def test_discriminant_reads_moments_to_order_2k_n_minus_1(N, k):
    # E[Delta^(2k)] reads m_0 .. m_{2k(N-1)}: exactly that many suffice, one fewer raises
    need = 2 * k * (N - 1)
    moments = gaussian(1, need).moments
    want = discriminant_moment(G, N, k, "lu_gaussian")
    assert discriminant_moment(MomentFunctional((moments,)), N, k) == want
    # only the main group is read: a short extra group does not matter
    assert discriminant_moment(MomentFunctional((moments, (F(1),))), N, k) == want
    with pytest.raises(OrthopolyError):
        discriminant_moment(MomentFunctional((moments[:need],)), N, k)


def test_discriminant_product_poly_reads_moments_to_order_2n_minus_1():
    moments = gaussian(1, 7).moments
    assert discriminant_product_poly(MomentFunctional((moments,)), 4, 1) == discriminant_product_poly(G, 4, 1)
    with pytest.raises(OrthopolyError):
        discriminant_product_poly(MomentFunctional((moments[:7],)), 4, 1)


@pytest.mark.parametrize("N, k", [(0, 1), (-1, 2), (2, 0), (3, -1)])
def test_discriminant_refuses_n_or_k_below_1(N, k):
    with pytest.raises(OrthopolyError, match="need N >= 1 and k >= 1"):
        discriminant_moment(G, N, k)


def test_sylvester_appel_a3():
    dec = sylvester_decompose(G, 2, mode="appel")
    assert dec.consistent and dec.residual < 1e-9
    nw = sorted((round(z.real, 9), round(w.real, 9)) for z, w in zip(dec.nodes, dec.weights))
    assert nw == [(-1.0, 0.5), (1.0, 0.5)]
    # A_3(x) = -(x^3 + 3x)
    assert dec.poly == (F(0), F(-3), F(0), F(-1))


def test_sylvester_appel_a5():
    dec = sylvester_decompose(G, 3, mode="appel")
    assert dec.consistent and dec.residual < 1e-9
    nw = sorted((z.real, w.real) for z, w in zip(dec.nodes, dec.weights))
    assert abs(nw[0][0] + math.sqrt(3)) < 1e-9 and abs(nw[0][1] - 1 / 6) < 1e-9
    assert abs(nw[1][0]) < 1e-9 and abs(nw[1][1] - 2 / 3) < 1e-9
    assert abs(nw[2][0] - math.sqrt(3)) < 1e-9 and abs(nw[2][1] - 1 / 6) < 1e-9
    assert dec.poly == (F(0), F(-15), F(0), F(-10), F(0), F(-1))  # A_5 = -(x^5+10x^3+15x)


def test_sylvester_discriminant_mode():
    dd = sylvester_decompose(G, 2, 2, mode="discriminant")
    # expansion-oracle polynomial; see the decisions ledger for the printed-
    # source discrepancy on the x^2 coefficient (90 there, 180 by two oracles);
    # with the corrected coefficient the power-sum system is fully consistent
    assert dd.poly == (F(-360), F(0), F(180), F(0), F(0), F(0), F(12))
    assert abs(dd.weight_sum.real - 12) < 1e-5 and abs(dd.weight_sum.imag) < 1e-5
    assert dd.target == 12
    assert dd.consistent and dd.residual < 1e-6
    d1 = sylvester_decompose(G, 2, 1, mode="discriminant")
    assert d1.consistent and abs(d1.weight_sum.real - 2) < 1e-9
    # odd-degree case n=3, k=1 stays consistent with the expansion target
    d31 = sylvester_decompose(G, 3, 1, mode="discriminant")
    want = float(discriminant_moment(G, 3, 1, "expansion"))
    assert d31.consistent and abs(d31.weight_sum.real - want) < 1e-6


def test_sylvester_target_is_the_expansion_moment(discriminant_referee):
    # the target is read off the leading coefficient of p_{n,k}; it is 0
    # where p_{n,k} is trimmed below degree m (rademacher at n >= 3)
    for Fm in builtin_functionals(14):
        for n, k in [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)]:
            dec = sylvester_decompose(Fm, n, k, mode="discriminant")
            assert dec.target == discriminant_referee.moment(Fm, n, k), (Fm, n, k)


# the appel decomposition is consistent at every n up to these
APPEL_CONSISTENT_TO = {
    "centered_poisson": 8, "free_poisson_centered": 10, "free_rademacher": 2, "gamma_f": 5,
    "gaussian": 10, "rademacher": 2, "semicircle": 12, "tetilla": 12, "uniform_centered": 13,
}


@pytest.mark.parametrize("name", builtin_law_names())
def test_sylvester_appel_stays_consistent(name):
    law = builtin_law(name, 30, **({"nu": F(3, 2)} if name == "gamma_f" else {}))
    Fm = MomentFunctional.from_law(law)
    for n in range(1, APPEL_CONSISTENT_TO[name] + 1):
        assert sylvester_decompose(Fm, n, mode="appel").consistent, (name, n)


@pytest.mark.parametrize("k", [0, 2, 3])
def test_sylvester_appel_refuses_k_other_than_1(k):
    with pytest.raises(OrthopolyError, match="k = 1"):
        sylvester_decompose(G, 2, k, mode="appel")


def test_p22_polynomial_against_numeric_integration():
    # independent check of the x^2 coefficient of p_{2,2}: 40-node
    # Gauss-Hermite integration of E[(X1-x)^3 (X2-x)^3 (X1-X2)^4]
    p = discriminant_product_poly(G, 2, 2)
    x, w = np.polynomial.hermite_e.hermegauss(40)
    w = w / np.sqrt(2 * np.pi)
    X1, X2 = np.meshgrid(x, x)
    W = np.outer(w, w)
    for xx in (0.0, 1.0, -0.7, 2.0):
        numeric = float(((X1 - xx) ** 3 * (X2 - xx) ** 3 * (X1 - X2) ** 4 * W).sum())
        assert abs(np.polyval([float(c) for c in reversed(p)], xx) - numeric) < 1e-6 * max(1.0, abs(numeric))


def test_multivariate_reduces_to_univariate():
    M1 = MultiMomentFunctional.from_product_laws([gaussian(1, 12)], (4,), shifts=(1, 2, 3))
    for n in range(1, 5):
        pm = multi_gops_determinant(M1, (n,), (1,))
        flat = poly_trim(tuple(pm.get((k,), F(0)) for k in range(n + 1)))
        assert flat == gops_determinant(MomentFunctional.from_law(gaussian(1, 12)), n, 1)


def test_multivariate_orthogonality():
    shifts = ((1, 2), (2, 1), (3, 5), (5, 3), (1, 7), (7, 1), (2, 9), (9, 2))
    MP = MultiMomentFunctional.from_product_laws(
        [gaussian(1, 12), gaussian(1, 12)], (2, 2), shifts=shifts
    )
    for n in [(1, 1), (2, 1), (2, 2)]:
        for m in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
            if any(mi > ni for mi, ni in zip(m, n)) or all(x == 0 for x in m):
                continue
            p = multi_gops_determinant(MP, n, m)
            chk = multi_orthogonality_check(MP, p, n, m)
            assert chk["orthogonal"], (n, m)
    mixed = MultiMomentFunctional.from_product_laws(
        [gaussian(1, 12), centered_poisson(1, 12)], (2, 2), shifts=shifts
    )
    p = multi_gops_determinant(mixed, (1, 1), (1, 1))
    assert multi_orthogonality_check(mixed, p, (1, 1), (1, 1))["orthogonal"]


def test_graded_lex_order():
    got = multi_indices_upto((1, 1))
    assert got == ((0, 0), (0, 1), (1, 0), (1, 1))
    got2 = multi_indices_upto((2, 1))
    assert got2[0] == (0, 0) and got2[-1] == (2, 1)
    assert [sum(k) for k in got2] == sorted(sum(k) for k in got2)
