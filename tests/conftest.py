import itertools
import math
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest

from homsum.kernels import Kernel, KernelError
from homsum.laws import LawError, _law_from_moments, _partition_classes
from homsum.moments import _block_sum, _integer_scaled
from homsum.orthopoly import (
    ROOT_TOL,
    DegenerateError,
    OrthopolyError,
    _node_key,
    exact_det,
    multi_indices_upto,
    poly_mul,
    poly_trim,
    quadrature_rule,
    recurrence_coeffs,
)
from homsum.partitions import (
    DEFAULT_SIZE_CAP,
    PartitionFilter,
    SetPartition,
    _factor_layout,
    _union_classes,
    enumerate_partitions,
    interval_partition,
    moebius_to_top,
    respectful_pairings,
)


def slice_kernel(f, prefix):
    """f with its first len(prefix) arguments fixed, of degree d - len(prefix):
    the slices the fourth-moment identities are stated with."""
    m = len(prefix)
    if m > f.d:
        raise KernelError("prefix longer than kernel degree")
    if any(not (1 <= i <= f.n) for i in prefix):
        raise KernelError("prefix index out of range")
    prefix = tuple(prefix)
    return Kernel(f.n, f.d - m, {idx[m:]: v for idx, v in f.values.items() if idx[:m] == prefix}, f.mode)


def kernel_of(indices):
    """Partition of positions: p ~ q iff indices[p] == indices[q]."""
    seq = tuple(indices)
    if not seq:
        raise ValueError("empty index sequence")
    first_pos = {}
    groups = []
    for pos, v in enumerate(seq, start=1):
        if v in first_pos:
            groups[first_pos[v]].append(pos)
        else:
            first_pos[v] = len(groups)
            groups.append([pos])
    return SetPartition(map(tuple, groups))


def transformed_law(base, h, max_order=None, cap=DEFAULT_SIZE_CAP):
    """Law of U_h(S) (base='semicircle') or He_h(N) (base='gaussian').

    The k-th moment is the respectful pairing count |NC2*(h^(x)k)| resp.
    |P2*(h^(x)k)|; odd h*k gives 0.  Orders are limited by h*k <= cap.  Its
    cumulants referee ``moments._diagram_weight`` on (h,)*k signatures.
    """
    if h < 1:
        raise LawError("h must be >= 1")
    if base not in ("semicircle", "gaussian"):
        raise LawError("base must be 'semicircle' or 'gaussian'")
    kind = "free" if base == "semicircle" else "classical"
    mode = "noncrossing" if kind == "free" else "classical"
    if max_order is None:
        max_order = cap // h
    if h * max_order > cap:
        raise LawError(f"h*max_order = {h * max_order} exceeds cap {cap}")
    moms = [F(1)]
    for k in range(1, max_order + 1):
        moms.append(F(respectful_pairings(h, k, mode, cap)))
    name = f"U{h}(S)" if kind == "free" else f"H{h}(N)"
    return _law_from_moments(name, kind, moms)


def per_class_enumeration(k):
    """The classical fourth-moment decomposition of k by enumeration.

    Enumerates the respectful partitions of four copies of k's d positions
    into blocks of sizes 2 and 4, groups them by their block-size census and
    sums each group on its own.  Returns (the pairings' sum, the class sums
    and the class counts for m = 1..d 4-blocks, every census with its count).
    """
    d, n = k.d, k.n
    table, den = _integer_scaled(k.values)
    units = [(i, 1) for i in range(1, n + 1)]
    filt = PartitionFilter(allowed_block_sizes={2, 4}, respects=interval_partition(d, 4))
    sums, counts = {}, {}
    for p in enumerate_partitions(4 * d, filt):
        cls = p.partition_class()
        counts[cls] = counts.get(cls, 0) + 1
        sums[cls] = sums.get(cls, 0) + _block_sum((table,) * 4, (d,) * 4, p.blocks, [units] * len(p))
    classes = [(4,) * m + (2,) * (2 * (d - m)) for m in range(d + 1)]
    terms = [F(sums.get(c, 0), den**4) for c in classes]
    return terms[0], tuple(terms[1:]), tuple(counts.get(c, 0) for c in classes[1:]), counts


@pytest.fixture
def fourth_class_referee():
    return per_class_enumeration


def wick_by_pairings(lk, m, mode):
    """m-th Wick moment of a lifted kernel by the slot pairings.

    Walks every (non-crossing, for mode='free') pairing of the m * sum(orders)
    slots that pairs no two slots of one base argument, joins the paired
    base arguments into classes and counts the pairings per class.  Each
    class is then evaluated by a plain sum, over every map from its classes
    to [n], of the product of the m copies' entries.  The route
    ``wick_moment`` took before the lattice orbits and diagram weights, kept
    as its referee.
    """
    f, d, n = lk.base, lk.base.d, lk.base.n
    if m == 0:
        return F(1)
    if d == 0:
        return f(()) ** m
    # slots are laid out copy by copy, base argument by base argument
    star = _factor_layout(lk.orders * m)
    filt = PartitionFilter(noncrossing=(mode == "free"), allowed_block_sizes={2}, respects=star)
    arg_of = star.block_of
    counts = Counter()
    for pairing in enumerate_partitions(star.n, filt):
        links = ((arg_of[u] + 1, arg_of[v] + 1) for u, v in pairing)
        counts[tuple(map(tuple, _union_classes(m * d, links)))] += 1
    total = F(0)
    for classes, count in counts.items():
        class_of = {a: c for c, args in enumerate(classes) for a in args}
        keys = [[class_of[copy * d + t + 1] for t in range(d)] for copy in range(m)]
        for idx in itertools.product(range(1, n + 1), repeat=len(classes)):
            term = F(count)
            for key in keys:
                term *= f(tuple(idx[c] for c in key))
                if not term:
                    break
            total += term
    return total


@pytest.fixture(scope="session")
def wick_pairing_referee():
    return wick_by_pairings


def class_sum_convert(seq, direction, kind):
    """Moments <-> cumulants by sums over block-size classes.

    The n-th moment is the sum, over the block-size classes of P([n]) (NC([n])
    for the free kind) from ``laws._partition_classes``, of the class's
    multiplicity times its product of cumulants; the inverse direction solves
    the same sum for its one-block term.  The class-sum route ``convert`` ran
    on before the first-block recursion, kept as its referee.
    """

    def class_sum(cums, n, skip_top):
        # the class terms sum in integers, over one common denominator per block count
        den = math.lcm(*(c.denominator for c in cums[: n + 1]))
        ints = [c.numerator * (den // c.denominator) for c in cums[: n + 1]]
        by_blocks = [0] * (n + 1)
        for lam, mult in _partition_classes(n, kind):
            if skip_top and len(lam) == 1:
                continue
            term = mult
            for part in lam:
                term *= ints[part]
                if not term:
                    break
            by_blocks[len(lam)] += term
        return sum((F(s, den**b) for b, s in enumerate(by_blocks) if s), F(0))

    N = len(seq) - 1
    if direction == "cumulants_to_moments":
        cums = [F(0)] + [F(x) for x in seq[1:]]
        return tuple([F(1)] + [class_sum(cums, n, False) for n in range(1, N + 1)])
    moments, cums = [F(x) for x in seq], [F(0)]
    for n in range(1, N + 1):
        cums.append(F(0))  # placeholder so class_sum can index it
        cums[n] = moments[n] - class_sum(cums, n, True)
    return tuple(cums)


def moebius_cumulant(oracle, n, kind):
    """Joint cumulant of n positions by Moebius inversion on the kind's lattice.

    The sum over P([n]) (NC([n]) for the free kind) of mu(sigma, 1) times the
    oracle's moment of every block of sigma: the route
    ``multivariate_cumulant`` ran on before the first-block recursion, kept as
    its referee.
    """
    filt = PartitionFilter(noncrossing=(kind == "free"))
    mode = "noncrossing" if kind == "free" else "classical"
    total = F(0)
    for sigma in enumerate_partitions(n, filt):
        term = moebius_to_top(sigma, mode)
        for b in sigma.blocks:
            term *= oracle(b)
        total += term
    return total


def coarsenings_of(sigma, noncrossing=False):
    """All partitions tau >= sigma, made by merging whole blocks of sigma
    along every partition of its blocks; optionally non-crossing ones only."""
    for merge in enumerate_partitions(len(sigma)):
        tau = SetPartition.from_blocks(sigma.n, [[x for i in group for x in sigma[i - 1]] for group in merge])
        if not noncrossing or tau.is_noncrossing():
            yield tau


@pytest.fixture(scope="session")
def coarsenings():
    return coarsenings_of


@pytest.fixture(scope="session")
def convert_referee():
    return class_sum_convert


@pytest.fixture(scope="session")
def cumulant_referee():
    return moebius_cumulant


@lru_cache(maxsize=None)
def _vandermonde_monomials(n, k, x_power):
    """prod_i (x_i - x)^x_power * prod_{i<j} (x_j - x_i)^(2k) expanded into
    integer-coefficient monomials over x_0..x_{n-1} and x (the last slot)."""
    poly = {(0,) * (n + 1): 1}

    def times_difference(poly, a, b):
        out = {}
        for e, c in poly.items():
            for v, term in ((a, c), (b, -c)):
                f = e[:v] + (e[v] + 1,) + e[v + 1:]
                out[f] = out.get(f, 0) + term
        return {e: c for e, c in out.items() if c}

    for j in range(n):
        for i in range(j):
            for _ in range(2 * k):
                poly = times_difference(poly, j, i)
        for _ in range(x_power):
            poly = times_difference(poly, j, n)
    return tuple(poly.items())


def monomial_expectation(func, n, k, x_power):
    """E[prod_i (X_i - x)^x_power Delta(X_1..X_n)^(2k)] for X_i i.i.d. under
    the main group of the moment functional ``func``, as coefficients in x
    (lowest first, trimmed): the Vandermonde power expanded monomial by
    monomial and factorized by independence.  A copy, written apart from the
    library's, of the route ``discriminant_moment(..., "expansion")`` and
    ``discriminant_product_poly`` took for every k before the Heine and de
    Bruijn forms (they still take it for k >= 3 and p_{n,k>=2}), kept as
    their referee."""
    coeffs = [F(0)] * (n * x_power + 1)
    for e, c in _vandermonde_monomials(n, k, x_power):
        term = F(c)
        for power in e[:n]:
            term *= func.moment(0, power)
            if not term:
                break
        coeffs[e[n]] += term
    return poly_trim(coeffs)


class DiscriminantReferee:
    @staticmethod
    def moment(func, N, k):
        """E[Delta(X_1..X_N)^(2k)] by monomial expansion."""
        return monomial_expectation(func, N, k, 0)[0]

    @staticmethod
    def product_poly(func, n, k):
        """p_{n,k}(x) = E[prod_i (X_i - x)^(2k-1) Delta^(2k)] by monomial expansion."""
        return monomial_expectation(func, n, k, 2 * k - 1)


@pytest.fixture(scope="session")
def discriminant_referee():
    return DiscriminantReferee


def tensor_rule_discriminant(func, N, k):
    """E[Delta(X_1..X_N)^(2k)] by the tensorized Gauss rule with n = k(N-1)+1
    nodes: prod_i w_i Delta(x_1..x_N)^(2k) summed over all n^N node tuples,
    repeated nodes included.  The route ``discriminant_moment(...,
    "quadrature")`` took before the sum over sets of distinct nodes, kept as
    its referee."""
    rule = quadrature_rule(func, k * (N - 1) + 1)
    total = 0j
    for combo in itertools.product(range(rule.n), repeat=N):
        w = delta = 1.0 + 0j
        for i in combo:
            w *= rule.weights[i]
        for i, j in itertools.combinations(combo, 2):
            delta *= rule.nodes[j] - rule.nodes[i]
        total += w * delta ** (2 * k)
    return total


def numpy_gauss_rule(func, n):
    """Golub & Welsch (Math. Comp. 23, 1969) through numpy: the nodes are the
    eigenvalues of the Jacobi matrix, alpha_k on the diagonal and
    sqrt(beta_k) beside it, and an eigenvector v gives the weight
    m_0 v_0^2 / (v^T v), m_0 = 1.  All beta_k > 0 make it real symmetric
    (``eigh``); a quasi-definite functional makes it complex symmetric
    (``eig``, v^T v without conjugation).  The route ``_gauss_nodes_weights``
    took before its implicit QL loop in plain floats, kept as its referee."""
    rec = recurrence_coeffs(func, n)
    betas = [float(b) for b in rec["betas"][1:]]
    definite = all(b > 0 for b in betas)
    off = np.sqrt(np.array(betas, dtype=float if definite else complex))
    J = np.diag([float(a) for a in rec["alphas"]]) + np.diag(off, 1) + np.diag(off, -1)
    nodes, V = np.linalg.eigh(J) if definite else np.linalg.eig(J)
    order = sorted(range(n), key=lambda j: _node_key(complex(nodes[j])))
    nodes, V = tuple(complex(z) for z in nodes[order]), V[:, order]
    if any(abs(a - b) <= ROOT_TOL for a, b in itertools.combinations(nodes, 2)):
        raise DegenerateError("the Jacobi matrix has (numerically) repeated eigenvalues; no Gauss rule")
    return nodes, tuple(complex(w) for w in V[0] ** 2 / (V * V).sum(axis=0))


@pytest.fixture(scope="session")
def gauss_rule_referee():
    return numpy_gauss_rule


@pytest.fixture(scope="session")
def tensor_rule_referee():
    return tensor_rule_discriminant


def per_column_cofactors(rows):
    """c_j = (-1)^j det(rows without column j) for an n x (n+1) matrix, one
    ``exact_det`` per column: the route ``_cofactors`` and ``gops_expectation``
    took before ``_row_cofactors``, kept as its referee."""
    return [(-1) ** j * exact_det([row[:j] + row[j + 1:] for row in rows]) for j in range(len(rows) + 1)]


@pytest.fixture(scope="session")
def cofactor_referee():
    return per_column_cofactors


def multi_orthogonality_check(func, p, n, m):
    """E[X^k p(X)] for every multi-index k <= n - m, and whether all vanish:
    the referee of ``multi_gops_determinant``."""
    vals = {}
    for k in multi_indices_upto(tuple(ni - mi for ni, mi in zip(n, m))):
        acc = F(0)
        for h, c in p.items():
            acc += c * func.moment(0, tuple(a + b for a, b in zip(k, h)))
        vals[k] = acc
    return {"values": vals, "orthogonal": all(v == 0 for v in vals.values())}


def stieltjes_recurrence(func, N):
    """Monic orthogonal polynomials and their recurrence coefficients by the
    Stieltjes procedure on exact polynomials: alpha_k = <x p_k, p_k>/<p_k, p_k>
    and beta_k = <p_k, p_k>/<p_{k-1}, p_{k-1}>, each inner product summed over
    a polynomial product.  The route ``recurrence_coeffs`` took before the
    Chebyshev algorithm, kept as its referee."""
    if N < 0:
        raise OrthopolyError("N must be >= 0")
    if len(func.groups[0]) <= 2 * N:
        raise OrthopolyError(f"need moments to order {2 * N}")

    def inner(p, q):
        return sum((c * func.moment(0, k) for k, c in enumerate(poly_mul(p, q))), F(0))

    polys, alphas, betas = [(F(1),)], [], []
    norms = [inner(polys[0], polys[0])]
    for k in range(N):
        pk, nk = polys[k], norms[k]
        if nk == 0:
            raise DegenerateError(f"Hankel degeneracy at step {k}: <p_k, p_k> = 0")
        xpk = poly_mul((F(0), F(1)), pk)
        alpha = inner(xpk, pk) / nk
        beta = nk / norms[k - 1] if k >= 1 else F(0)
        nxt = [F(0)] * (k + 2)
        for c, p in ((1, xpk), (-alpha, pk), (-beta, polys[k - 1] if k >= 1 else ())):
            for i, x in enumerate(p):
                nxt[i] += c * x
        alphas.append(alpha)
        betas.append(beta)
        polys.append(poly_trim(nxt))
        norms.append(inner(nxt, nxt))
    return {"alphas": tuple(alphas), "betas": tuple(betas), "polys": tuple(polys)}


@pytest.fixture(scope="session")
def recurrence_referee():
    return stieltjes_recurrence
