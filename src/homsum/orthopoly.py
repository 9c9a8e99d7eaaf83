"""Generalized orthogonal polynomials, Gauss quadrature, random-discriminant
moments and Sylvester power-sum decompositions.

Polynomials are coefficient tuples of Fractions, lowest degree first.
Determinants and recurrence coefficients stay exact; Gauss rules come from
the eigenvectors of the Jacobi matrix, and everything past that step is
float with verified residuals.

numpy is imported inside the three routines that compute in floating point:
``poly_roots``, ``_gauss_nodes_weights`` and ``sylvester_decompose``.
Importing this module and every exact route (determinants, GOPs,
recurrences, the discriminant by expansion or closed form) leave numpy
unloaded.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import record
from .laws import LawSpec, _binomial_shift

if TYPE_CHECKING:
    import numpy as np

Poly = tuple[Fraction, ...]
MultiPoly = dict[tuple[int, ...], Fraction]

# most exact determinants the expectation route may take, r!(n+1); it runs r!
# eliminations, each giving the n+1 determinants of one n x (n+1) matrix
EXPECTATION_GUARD = 10**4
# most monomials a Vandermonde-power expansion may hold; only E[Delta^(2k)]
# for k >= 3 and p_{n,k} for k >= 2 expand, the lower powers have determinant forms
MONOMIAL_GUARD = 2 * 10**6
# roots closer than this are not simple; imaginary parts below it are real nodes
ROOT_TOL = 1e-8
# relative exactness residual allowed in a Gauss rule, and the relative
# imaginary part below which a quadrature discriminant moment is real
QUADRATURE_TOL = 1e-9
# a Sylvester decomposition is consistent when its residual is at most this
SYLVESTER_RESIDUAL_TOL = 1e-6


class OrthopolyError(ValueError):
    pass


class DegenerateError(OrthopolyError):
    """A Hankel minor or leading coefficient that must be nonzero vanished."""


# ---------------------------------------------------------------------------
# exact polynomial helpers


def poly_trim(p: Sequence[Fraction]) -> Poly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return tuple(q) if q else (Fraction(0),)


def poly_deg(p: Sequence[Fraction]) -> int:
    p = poly_trim(p)
    return len(p) - 1


def poly_mul(p, q) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_to_strings(p) -> list[str]:
    return [f"{c.numerator}/{c.denominator}" for c in p]


# ---------------------------------------------------------------------------
# exact determinants


def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], Fraction]:
    """The integer rows left by clearing each row's denominators, and the
    product of those denominators."""
    scale = Fraction(1)
    m: list[list[int]] = []
    for row in rows:
        row = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        scale *= den
        m.append([x.numerator * (den // x.denominator) for x in row])
    return m, scale


def exact_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square Fraction matrix: denominators are cleared per
    row, the integer core goes through fraction-free Bareiss elimination, and
    the scaling is divided back out."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m, scale = _cleared(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1]) / scale


def _row_cofactors(rows: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """c_j = (-1)^j det(rows without column j) for an n x (n+1) Fraction
    matrix, from one elimination instead of n+1 determinants.

    Denominators are cleared per row, as in ``exact_det``.  One fraction-free
    Gauss-Jordan pass (Bareiss) with row swaps then picks pivot columns left
    to right.  When every row gets a pivot, the one column f without a pivot
    ends as the column v = d B^-1 f of Cramer numerators, where d = det B is
    the pivot block's determinant (after the swaps) and every pivot-row
    diagonal reads d.  So c_f is (-1)^f d and each pivot column's c_j is
    -(-1)^f v_t, both times the swap sign over the row scale.  A second
    column without a pivot means rank < n, and every c_j is 0."""
    n = len(rows)
    m, scale = _cleared(rows)
    sign, prev, free = 1, 1, None
    pivots: list[int] = []
    for col in range(n + 1):
        k = len(pivots)
        if k == n:
            break
        if m[k][col] == 0:
            i = next((i for i in range(k + 1, n) if m[i][col]), None)
            if i is None:
                if free is not None:
                    return [Fraction(0)] * (n + 1)
                free = col
                continue
            m[k], m[i] = m[i], m[k]
            sign = -sign
        # only the free column and the columns still to come change; pivot
        # columns hold prev on their row's diagonal (now the new pivot) and 0 elsewhere
        live = list(range(col + 1, n + 1)) if free is None else [free, *range(col + 1, n + 1)]
        pk, piv = m[k], m[k][col]
        for i in range(n):
            if i == k:
                continue
            ri = m[i]
            a = ri[col]
            for j in live:
                ri[j] = (ri[j] * piv - a * pk[j]) // prev
        prev = piv
        pivots.append(col)
    if free is None:
        free = n
    unit = Fraction((-1) ** free * sign) / scale
    out = [Fraction(0)] * (n + 1)
    out[free] = prev * unit
    for t, j in enumerate(pivots):
        out[j] = -m[t][free] * unit
    return out


def _cofactors(
    moment: Callable, ks: Sequence[tuple[int, ...]], hs: Sequence[tuple[int, ...]]
) -> list[Fraction]:
    """Cofactors along the symbolic monomial row of the generalized moment
    determinant with columns ``ks``: below that row come the main group's
    rows shifted by every h in ``hs``, then one unshifted row per extra group
    1, 2, ... to square the matrix.  ``moment(g, k)`` reads group g.  One
    ``_row_cofactors`` elimination yields them all."""
    rows = [[moment(0, tuple(a + b for a, b in zip(k, h))) for k in ks] for h in hs]
    rows += [[moment(g, k) for k in ks] for g in range(1, len(ks) - len(hs))]
    return _row_cofactors(rows)


def _pfaffian(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Pfaffian of a skew-symmetric Fraction matrix of even order by skew
    Gaussian elimination: each step pivots on entry (k, k+1), swapping a later
    index into k+1 (which flips the sign) when it is zero, and the trailing
    block becomes A_ij - (A_ki A_k+1,j - A_k+1,i A_kj) / A_k,k+1.  A row with
    no pivot makes the Pfaffian 0."""
    a = [list(row) for row in rows]
    n = len(a)
    pf = Fraction(1)
    for k in range(0, n - 1, 2):
        p = next((j for j in range(k + 1, n) if a[k][j]), None)
        if p is None:
            return Fraction(0)
        if p != k + 1:
            a[k + 1], a[p] = a[p], a[k + 1]
            for row in a:
                row[k + 1], row[p] = row[p], row[k + 1]
            pf = -pf
        rk, rk1, piv = a[k], a[k + 1], a[k][k + 1]
        pf *= piv
        for i in range(k + 2, n):
            for j in range(i + 1, n):
                v = a[i][j] - (rk[i] * rk1[j] - rk1[i] * rk[j]) / piv
                a[i][j], a[j][i] = v, -v
    return pf


# ---------------------------------------------------------------------------
# moment functionals


@record
class MomentFunctional:
    """Per-group exact moment sequences a_{jk} (group j, order k).

    Group 0 is the main law; the default single-group functional uses it for
    every row of the generalized determinant.  a_{j0} must be 1.
    """

    groups: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for g in self.groups:
            if not g or g[0] != 1:
                raise OrthopolyError("every moment sequence must start at a_0 = 1")

    @staticmethod
    def from_law(law: LawSpec, *extra_laws: LawSpec) -> "MomentFunctional":
        return MomentFunctional(tuple(l.moments for l in (law, *extra_laws)))

    def moment(self, j: int, k: int) -> Fraction:
        j = j if j < len(self.groups) else 0
        seq = self.groups[j]
        if k >= len(seq):
            raise OrthopolyError(
                f"group {j} holds moments only to order {len(seq) - 1}, need {k}"
            )
        return seq[k]

    def shifted(self, t) -> "MomentFunctional":
        """Moments of X + t for every group (binomial transform); exact."""
        return MomentFunctional(tuple(_binomial_shift(g, Fraction(t)) for g in self.groups))


def hankel_det(F: MomentFunctional, n: int) -> dict:
    """det(a_{i+j})_{i,j=0..n-1} plus the squared-Vandermonde expectation
    E[Delta(X_1, ..., X_n)^2] = n! det."""
    if n < 1:
        raise OrthopolyError("n must be >= 1")
    if len(F.groups[0]) < 2 * n - 1:
        raise OrthopolyError(f"need moments to order {2 * n - 2}")
    rows = [[F.moment(0, i + j) for j in range(n)] for i in range(n)]
    det = exact_det(rows)
    return {"det": det, "vandermonde_sq_expectation": math.factorial(n) * det}


# ---------------------------------------------------------------------------
# generalized orthogonal polynomials (univariate)


def gops_determinant(F: MomentFunctional, n: int, m: int) -> Poly:
    """Generalized orthogonal polynomial p_{nm} by cofactor expansion of the
    moment determinant: one symbolic monomial row, the main group's moments
    shifted 0..n-m, then one unshifted row per extra group 1..m-1.  Reads the
    main group to order 2n - m and each extra group to order n.

    Raises DegenerateError when the leading coefficient vanishes.
    """
    if not (1 <= m <= n):
        raise OrthopolyError("need 1 <= m <= n")
    if len(F.groups[0]) <= 2 * n - m:
        raise OrthopolyError(f"need main-group moments to order {2 * n - m}")
    p = poly_trim(_gops_cofactors(F, n, m))
    if poly_deg(p) != n:
        raise DegenerateError(
            f"leading coefficient of p_{{{n},{m}}} vanishes (degenerate moment data)"
        )
    return p


def _gops_cofactors(F: MomentFunctional, n: int, m: int) -> list[Fraction]:
    """Unnormalized coefficients of p_{n,m}, lowest degree first."""
    ks, hs = multi_indices_upto((n,)), multi_indices_upto((n - m,))
    return _cofactors(lambda g, k: F.moment(g, k[0]), ks, hs)


def gops_expectation(F: MomentFunctional, n: int, m: int) -> Poly:
    """The same polynomial through the conditional-expectation form
    E_0[Delta(X_1..X_r) Delta(x_0, X_1..X_n)] with r = n - m + 1, expanded
    by the Andreief (Heine) identity: the expectation of a determinant with
    independent columns is the determinant of the column expectations
    (Andreief 1883; Deift, Orthogonal Polynomials and Random Matrices, 1999).

    For each sigma in S_r, E[Delta(x_0, X) prod_{j<=r} X_j^sigma_j] is the
    (n+1)x(n+1) determinant whose column j >= 1 holds E[X_j^(i+sigma_j)] for
    i = 0..n (sigma_j = 0 for j > r).  Expanding it along the x_0 column
    gives coefficient i as sum_sigma sgn(sigma) (-1)^i times the n x n minor
    without row i.  The n + 1 minors of one sigma come from one
    ``_row_cofactors`` elimination of the n x (n+1) column matrix: r!
    eliminations instead of r!(n+1)! moment products.

    X_1..X_r follow the main group; X_{r+t} follows group t.  Reads the main
    group to order 2n - m and each extra group to order n.
    """
    if not (1 <= m <= n):
        raise OrthopolyError("need 1 <= m <= n")
    r = n - m + 1
    if math.factorial(r) * (n + 1) > EXPECTATION_GUARD:
        raise OrthopolyError("determinant expansion exceeds the feasibility guard")
    main = [F.moment(0, i) for i in range(n + r)]
    extra = [[F.moment(t, i) for i in range(n + 1)] for t in range(1, m)]
    coeffs = [Fraction(0)] * (n + 1)
    for sigma in itertools.permutations(range(r)):
        cols = [main[s:s + n + 1] for s in sigma] + extra
        sgn = _perm_sign(sigma)
        for i, c in enumerate(_row_cofactors(cols)):
            coeffs[i] += sgn * c
    p = poly_trim(coeffs)
    if poly_deg(p) != n:
        raise DegenerateError(
            f"expectation route gives degree {poly_deg(p)} != {n} (degenerate moment data)"
        )
    return p


@lru_cache(maxsize=100000)
def _perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def gops_route_ratio(F: MomentFunctional, n: int, m: int) -> Fraction:
    """Exact ratio expectation-route / determinant-route, which Andreief's
    identity (Andreief 1883; Heine's formula for m = 1) fixes at r! with
    r = n - m + 1: for each sigma in S_r, E[Delta(x_0, X) prod_j X_j^sigma_j]
    is the moment determinant with row j shifted by sigma_j, and putting
    those rows back in order costs the sign of sigma, so all r! terms of
    Delta(X_1..X_r) give the determinant route.

    Raises OrthopolyError unless every coefficient of the expectation route
    is r! times the determinant route's."""
    return _andreief_ratio(gops_determinant(F, n, m), gops_expectation(F, n, m), n, m)


def _andreief_ratio(pd: Poly, pe: Poly, n: int, m: int) -> Fraction:
    """(n - m + 1)! when the expectation route ``pe`` is that multiple of the
    determinant route ``pd``, coefficient by coefficient; raises otherwise."""
    ratio = Fraction(math.factorial(n - m + 1))
    if any(a != ratio * b for a, b in zip(pe, pd)):
        raise OrthopolyError(f"expectation route is not {ratio} times the determinant route")
    return ratio


def orthogonality_check(F: MomentFunctional, p: Poly, n: int, m: int) -> dict:
    """E[x^k p(x)] for k = 0..n-m+1 against the defining relations."""
    vals = {}
    for k in range(n - m + 2):
        acc = Fraction(0)
        for h, c in enumerate(p):
            acc += c * F.moment(0, k + h)
        vals[k] = acc
    return {
        "values": vals,
        "orthogonal": all(vals[k] == 0 for k in range(n - m + 1)),
        "nonvanishing_next": vals[n - m + 1] != 0,
    }


def recurrence_coeffs(F: MomentFunctional, N: int) -> dict:
    """Monic orthogonal polynomials with their Jacobi-Szego coefficients:
    p_{k+1} = (x - alpha_{k+1}) p_k - beta_{k+1} p_{k-1}.  Reads the main
    group only, to order 2N.

    The coefficients come from the moments alone by the Chebyshev algorithm
    (Gautschi, Orthogonal Polynomials: Computation and Approximation, 2004,
    sec. 2.1.7), in O(N^2) exact operations: with the mixed moments
    s_{k,l} = <p_k, x^l>,
    s_{k,l} = s_{k-1,l+1} - alpha_{k-1} s_{k-1,l} - beta_{k-1} s_{k-2,l},
    alpha_k = s_{k,k+1}/s_{k,k} - s_{k-1,k}/s_{k-1,k-1} and
    beta_k = s_{k,k}/s_{k-1,k-1}.  s_{k,k} is <p_k, p_k>, so a zero one is
    the Hankel degeneracy.  The polynomials follow from the recurrence."""
    if N < 0:
        raise OrthopolyError("N must be >= 0")
    if len(F.groups[0]) <= 2 * N:
        raise OrthopolyError(f"need moments to order {2 * N}")
    # s_{k,l} for l = k .. 2N-1-k, stored at index l - k; s_{-1,l} = 0
    before: list[Fraction] = [Fraction(0)] * (2 * N)
    row: list[Fraction] = [F.moment(0, l) for l in range(2 * N)]
    polys: list[Poly] = [(Fraction(1),)]
    alphas: list[Fraction] = []
    betas: list[Fraction] = []
    for k in range(N):
        nk = row[0]
        if nk == 0:
            raise DegenerateError(f"Hankel degeneracy at step {k}: <p_k, p_k> = 0")
        if k == 0:
            alpha, beta = row[1] / nk, Fraction(0)
        else:
            alpha = row[1] / nk - before[1] / before[0]
            beta = nk / before[0]
        alphas.append(alpha)
        betas.append(beta)
        # row k+1 at l = k+1+t reads row k at l + 1 and l, row k-1 at l (index t + 2)
        before, row = row, [
            row[t + 2] - alpha * row[t + 1] - beta * before[t + 2] for t in range(len(row) - 2)
        ]
        pk, pprev = polys[k], polys[k - 1] if k else ()
        nxt = [Fraction(0), *pk]
        for i, c in enumerate(pk):
            nxt[i] -= alpha * c
        for i, c in enumerate(pprev):
            nxt[i] -= beta * c
        polys.append(tuple(nxt))
    return {"alphas": tuple(alphas), "betas": tuple(betas), "polys": tuple(polys)}


# ---------------------------------------------------------------------------
# multivariate generalized orthogonal polynomials


def multi_indices_upto(n: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All multi-indices 0 <= k <= n (componentwise), in graded lexicographic order."""
    ranges = [range(x + 1) for x in n]
    idx = [tuple(k) for k in itertools.product(*ranges)]
    return tuple(sorted(idx, key=lambda k: (sum(k), k)))


@record
class MultiMomentFunctional:
    """Joint-moment tables per group: a maps a multi-index to E[X^k] exactly."""

    nvars: int
    groups: tuple[dict[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_product_laws(
        laws: Sequence[LawSpec],
        up_to: tuple[int, ...],
        shifts: Sequence = (),
    ) -> "MultiMomentFunctional":
        """Product functional of independent coordinate laws: a_k = prod_j m_{k_j}.

        Each entry of ``shifts`` adds an auxiliary group whose coordinates are
        the main laws translated by that amount (distinct rows keep the
        generalized determinants nonsingular).
        """
        def table(per_coord_moments):
            out = {}
            for k in itertools.product(*[range(2 * u + 1) for u in up_to]):
                v = Fraction(1)
                for seq, e in zip(per_coord_moments, k):
                    v *= seq[e]
                out[tuple(k)] = v
            return out

        groups = [table([list(l.moments) for l in laws])]
        # the table reads coordinate j to order 2 up_to[j], and order k of a
        # shift reads only moments <= k, so only those orders are shifted
        for t in shifts:
            per = tuple(t) if isinstance(t, (tuple, list)) else (t,) * len(laws)
            groups.append(table([
                _binomial_shift(l.moments[:2 * u + 1], Fraction(ti)) for l, ti, u in zip(laws, per, up_to)
            ]))
        return MultiMomentFunctional(len(laws), tuple(groups))

    def moment(self, j: int, k: tuple[int, ...]) -> Fraction:
        g = self.groups[j if j < len(self.groups) else 0]
        try:
            return g[tuple(k)]
        except KeyError:
            raise OrthopolyError(f"multivariate moment {k} not available in group {j}") from None


def multi_gops_determinant(
    F: MultiMomentFunctional, n: tuple[int, ...], m: tuple[int, ...]
) -> MultiPoly:
    """Multivariate generalized orthogonal polynomial by cofactor expansion.

    Columns run over the graded-lex multi-indices k <= n; after the symbolic
    monomial row come the main group's rows shifted by every h <= n - m, then
    one unshifted row per extra group to square the matrix.
    """
    if len(n) != F.nvars or len(m) != F.nvars:
        raise OrthopolyError("multi-index arity mismatch")
    if any(mi < 0 or mi > ni for mi, ni in zip(m, n)):
        raise OrthopolyError("need 0 <= m <= n componentwise")
    if all(mi == 0 for mi in m):
        raise OrthopolyError("m must be nonzero")
    ks = multi_indices_upto(n)
    hs = multi_indices_upto(tuple(ni - mi for ni, mi in zip(n, m)))
    coeffs: MultiPoly = {k: v for k, v in zip(ks, _cofactors(F.moment, ks, hs)) if v}
    if coeffs.get(tuple(n), Fraction(0)) == 0:
        raise DegenerateError("leading multivariate coefficient vanishes")
    return coeffs


# ---------------------------------------------------------------------------
# roots and quadrature


def _node_key(z: complex) -> tuple[float, float]:
    """Roots and Gauss nodes sort by (Re, Im), a real part of rounding size
    (within ROOT_TOL * max(1, |z|) of zero) counting as 0."""
    return (0.0 if abs(z.real) <= ROOT_TOL * max(1.0, abs(z)) else z.real), z.imag


def poly_roots(p: Sequence[Fraction]) -> dict:
    """Roots via the (balanced) companion matrix, ordered by ``_node_key``;
    simplicity means pairwise distance > ROOT_TOL."""
    import numpy as np

    p = poly_trim(p)
    if poly_deg(p) < 1:
        raise OrthopolyError("degree must be >= 1")
    arr = np.array([float(c) for c in reversed(p)], dtype=float)
    roots = np.roots(arr)
    roots = sorted((complex(r) for r in roots), key=_node_key)
    simple = all(
        abs(a - b) > ROOT_TOL for a, b in itertools.combinations(roots, 2)
    )
    return {"roots": tuple(roots), "all_simple": simple, "tol": ROOT_TOL}


@record
class QuadratureRule:
    nodes: tuple[complex, ...]
    weights: tuple[complex, ...]
    exactness_degree: int
    node_kind: str  # 'real-simple' | 'complex'
    max_residual: float

    @property
    def n(self) -> int:
        return len(self.nodes)


def _gauss_nodes_weights(F: MomentFunctional, n: int) -> tuple[tuple[complex, ...], np.ndarray]:
    """Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix, alpha_k on the diagonal and sqrt(beta_k) beside it,
    and an eigenvector v gives the weight m_0 v_0^2 / (v^T v), m_0 = 1.  All
    beta_k > 0 make it real symmetric (``eigh``); a quasi-definite functional
    makes it complex symmetric (``eig``, v^T v without conjugation)."""
    import numpy as np

    rec = recurrence_coeffs(F, n)
    betas = [float(b) for b in rec["betas"][1:]]
    definite = all(b > 0 for b in betas)
    off = np.sqrt(np.array(betas, dtype=float if definite else complex))
    J = np.diag([float(a) for a in rec["alphas"]]) + np.diag(off, 1) + np.diag(off, -1)
    nodes, V = np.linalg.eigh(J) if definite else np.linalg.eig(J)
    order = sorted(range(n), key=lambda j: _node_key(complex(nodes[j])))
    nodes, V = tuple(complex(z) for z in nodes[order]), V[:, order]
    if any(abs(a - b) <= ROOT_TOL for a, b in itertools.combinations(nodes, 2)):
        raise DegenerateError("the Jacobi matrix has (numerically) repeated eigenvalues; no Gauss rule")
    return nodes, (V[0] ** 2 / (V * V).sum(axis=0)).astype(complex)


def quadrature_rule(F: MomentFunctional, n: int, tol: float = QUADRATURE_TOL) -> QuadratureRule:
    """Gauss rule with n nodes (``_gauss_nodes_weights``): the zeros of the
    degree-n monic orthogonal polynomial with their Christoffel numbers,
    verified exact through degree 2n - 1."""
    if n < 1:
        raise OrthopolyError("n must be >= 1")
    if not (math.isfinite(tol) and tol >= 0):
        raise OrthopolyError(f"tol must be finite and >= 0, got {tol}")
    nodes, weights = _gauss_nodes_weights(F, n)
    max_resid = 0.0
    for k in range(2 * n):
        got = sum(w * node**k for w, node in zip(weights, nodes))
        want = float(F.moment(0, k))
        scale = max(1.0, abs(want))
        max_resid = max(max_resid, abs(got - want) / scale)
    if max_resid > tol:
        raise OrthopolyError(
            f"quadrature exactness residual {max_resid:.3e} exceeds tolerance {tol:.1e}"
        )
    kind = "real-simple" if all(abs(z.imag) < ROOT_TOL for z in nodes) else "complex"
    if kind == "real-simple":
        nodes = tuple(complex(z.real, 0.0) for z in nodes)
        weights = weights.real.astype(complex)
    return QuadratureRule(tuple(nodes), tuple(weights), 2 * n - 1, kind, max_resid)


# ---------------------------------------------------------------------------
# random discriminants


def _vandermonde_expectation(F: MomentFunctional, n: int, k: int, p: int) -> Poly:
    """E[Delta(X_1..X_n)^(2k) prod_i (X_i - x)^p] as a polynomial in x, for
    X_1..X_n i.i.d. under the main group; reads moments to order 2k(n-1) + p.

    The integer polynomial is multiplied out one linear factor at a time,
    refusing more than MONOMIAL_GUARD monomials, and each monomial is then
    factorized by independence.  A monomial is stored as one integer, the sum
    of exponent * base^slot with X_1..X_n in slots 0..n-1 and x in slot n;
    no exponent reaches the base."""
    base = 2 * k * (n - 1) + p + 1
    factors = [(j, i) for i in range(n) for j in range(i + 1, n) for _ in range(2 * k)]
    factors += [(i, n) for i in range(n) for _ in range(p)]
    acc = {0: 1}
    for plus, minus in factors:  # times (x_plus - x_minus)
        up, down = base**plus, base**minus
        out = {e + up: c for e, c in acc.items()}
        for e, c in acc.items():
            out[e + down] = out.get(e + down, 0) - c
        acc = {e: c for e, c in out.items() if c}
        if len(acc) > MONOMIAL_GUARD:
            raise OrthopolyError("monomial expansion exceeds the feasibility guard")
    moments = [F.moment(0, s) for s in range(base)]
    coeffs = [Fraction(0)] * (n * p + 1)
    for e, c in acc.items():
        power, e = divmod(e, base**n)
        term = Fraction(c)
        while term and e:
            e, s = divmod(e, base)
            term *= moments[s]
        coeffs[power] += term
    return poly_trim(coeffs)


def discriminant_moment(
    F: MomentFunctional,
    N: int,
    k: int,
    method: str = "expansion",
    sigma2=None,
):
    """E[Delta(X_1, ..., X_N)^(2k)] for an i.i.d. sample of the main law.

    method='expansion' is exact for any law and reads moments to order
    2k(N-1):
    - k = 1: Heine's formula E[Delta^2] = N! det(m_{i+j})_{i,j<N}, the
      Andreief identity for the squared Vandermonde (Deift, Orthogonal
      Polynomials and Random Matrices, 1999);
    - k = 2: Delta^4 is the confluent Vandermonde determinant with rows x^j
      and j x^(j-1) for each node, so de Bruijn's identity (J. Indian Math.
      Soc. 19, 1955) gives E[Delta^4] = N! Pf(A) with
      A_ij = (j - i) m_{i+j-1}, i, j = 0..2N-1;
    - k >= 3: no determinant form exists, so the Vandermonde power is
      expanded into monomials and factorized by independence.
    method='quadrature': the tensorized Gauss rule with n = k(N-1)+1 nodes
    (2k(N-1) <= 2n-1).  Delta^(2k) is symmetric and vanishes on a repeated
    node, so its sum over the n^N node tuples is N! times the sum of
    prod_i w_i Delta^(2k) over the C(n, N) sets of distinct nodes.
    method='lu_gaussian': the Gaussian closed form sigma^(N(N-1)k)
    prod_j j^(jk) prod_{i<j} Gamma(k + i/j)/Gamma(i/j), exact for integer k;
    sigma^2 defaults to the functional's second moment.
    """
    if N < 1 or k < 1:
        raise OrthopolyError("need N >= 1 and k >= 1")
    if method == "expansion":
        if k == 1:
            return hankel_det(F, N)["vandermonde_sq_expectation"]
        if k == 2:
            m = [F.moment(0, s) for s in range(4 * N - 3)]
            a = [[(j - i) * m[i + j - 1] if i != j else Fraction(0) for j in range(2 * N)]
                 for i in range(2 * N)]
            return math.factorial(N) * _pfaffian(a)
        return _vandermonde_expectation(F, N, k, 0)[0]
    if method == "quadrature":
        rule = quadrature_rule(F, k * (N - 1) + 1)
        x, w = rule.nodes, rule.weights
        val = math.factorial(N) * sum(
            math.prod(w[i] for i in S)
            * math.prod(x[j] - x[i] for i, j in itertools.combinations(S, 2)) ** (2 * k)
            for S in itertools.combinations(range(rule.n), N)
        )
        return val.real if abs(val.imag) < QUADRATURE_TOL * max(1.0, abs(val)) else val
    if method == "lu_gaussian":
        s2 = Fraction(sigma2) if sigma2 is not None else F.moment(0, 2)
        # sigma^{N(N-1)k} with N(N-1) even, so an integer power of sigma^2
        out = s2 ** (N * (N - 1) * k // 2)
        for j in range(1, N + 1):
            out *= Fraction(j) ** (j * k)
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                frac = Fraction(i, j)
                for l in range(k):
                    out *= frac + l
        return out
    raise OrthopolyError("method must be 'expansion', 'quadrature' or 'lu_gaussian'")


# ---------------------------------------------------------------------------
# Sylvester decompositions


def translated_moment_poly(F: MomentFunctional, m: int) -> Poly:
    """A_m(x) = E[(X - x)^m] as an exact polynomial in x (lowest degree first)."""
    coeffs = []
    for h in range(m + 1):
        coeffs.append(Fraction(math.comb(m, h) * (-1) ** h) * F.moment(0, m - h))
    return poly_trim(coeffs)


def discriminant_product_poly(F: MomentFunctional, n: int, k: int) -> Poly:
    """p_{n,k}(x) = E[(X_1-x)^{2k-1} ... (X_n-x)^{2k-1} Delta(X_1..X_n)^{2k}].

    k = 1 by Heine's formula: p_{n,1} is n! times the unnormalized cofactor
    polynomial of p_{n,1} in ``gops_determinant`` (the monomial row on top
    carries the sign (-1)^n of prod (X_i - x)).  A degenerate law, whose
    Hankel determinant D_n vanishes, gives the zero polynomial.  k >= 2 by
    monomial expansion and independence factorization.  Reads moments to
    order 2kn - 1."""
    if n < 1 or k < 1:
        raise OrthopolyError("need n >= 1 and k >= 1")
    if k == 1:
        return poly_trim([math.factorial(n) * c for c in _gops_cofactors(F, n, 1)])
    return _vandermonde_expectation(F, n, k, 2 * k - 1)


@record
class SylvesterDecomposition:
    """A power-sum decomposition p(x) ~ sum_j weights[j] (nodes[j] - x)^degree.

    ``residual`` is the absolute error on the held-out top power-sum
    equation; ``weight_sum`` should match ``target`` (E[Delta^{2k}] for the
    discriminant mode, exact reproduction for the translated-moment mode).
    A large residual is a reported outcome (complex-node systems can be
    inconsistent beyond the leading coefficient), not an exception.
    """

    mode: str
    degree: int
    poly: Poly
    nodes: tuple[complex, ...]
    weights: tuple[complex, ...]
    weight_sum: complex
    target: Optional[Fraction]
    residual: float
    consistent: bool


def sylvester_decompose(
    F: MomentFunctional,
    n: int,
    k: int = 1,
    mode: str = "discriminant",
) -> SylvesterDecomposition:
    """Sylvester-style decompositions attached to the main law.

    mode='discriminant': decompose p_{n,k} (``discriminant_product_poly``:
    Heine's formula for k = 1, the monomial expansion for k >= 2) over the
    roots of the translated moment polynomial A_m, m = n(2k-1): solve the
    power sums sum_j c_j r_j^p = b_p for p = 0..m-1 and verify the held-out
    p = m equation; the weight sum equals E[Delta(X_1..X_n)^{2k}], which is
    (-1)^m times the leading coefficient of p_{n,k} (the ``target``).

    mode='appel' (the k' = 1 classical case): decompose A_{2n-1} over the
    roots of the degree-n orthogonal polynomial with Christoffel-number
    weights; this decomposition is exact and reproduces Gauss quadrature.
    It is defined for k = 1 only.
    """
    import numpy as np

    if mode == "appel" and k != 1:
        raise OrthopolyError("the appel decomposition is defined for k = 1 only")
    if n < 1 or k < 1:
        raise OrthopolyError("need n >= 1 and k >= 1")
    if mode == "appel":
        m = 2 * n - 1
        nodes, weights = _gauss_nodes_weights(F, n)
        a_poly = translated_moment_poly(F, m)
        # residual: worst coefficient error of A_{2n-1}(x) - sum c_j (r_j - x)^{2n-1}
        resid = 0.0
        for h in range(m + 1):
            decomp_coeff = sum(
                w * math.comb(m, h) * (-1) ** h * node ** (m - h)
                for w, node in zip(weights, nodes)
            )
            want = float(a_poly[h]) if h < len(a_poly) else 0.0
            resid = max(resid, abs(decomp_coeff - want))
        wsum = complex(sum(weights))
        return SylvesterDecomposition(
            "appel", m, a_poly, tuple(nodes), tuple(complex(w) for w in weights),
            wsum, Fraction(1), resid, resid <= SYLVESTER_RESIDUAL_TOL,
        )

    if mode != "discriminant":
        raise OrthopolyError("mode must be 'discriminant' or 'appel'")
    m = n * (2 * k - 1)
    pnk = discriminant_product_poly(F, n, k)
    a_m = translated_moment_poly(F, m)
    rt = poly_roots(a_m)
    if not rt["all_simple"]:
        raise DegenerateError("A_m has (numerically) multiple roots")
    nodes = rt["roots"]
    # b_p from the binomial coefficient convention p(x) = sum_h C(m,h)(-1)^h b_{m-h} x^h
    b = [Fraction(0)] * (m + 1)
    for h in range(m + 1):
        c_h = pnk[h] if h < len(pnk) else Fraction(0)
        b[m - h] = c_h * (-1) ** h / math.comb(m, h)
    M = np.array([[node**p for node in nodes] for p in range(m)], dtype=complex)
    rhs = np.array([float(x) for x in b[:m]], dtype=complex)
    weights = np.linalg.solve(M, rhs)
    top = sum(w * node**m for w, node in zip(weights, nodes))
    residual = abs(top - float(b[m]))
    # the x^m coefficient of p_{n,k} is (-1)^m E[Delta^{2k}]
    target = (-1) ** m * pnk[m] if m < len(pnk) else Fraction(0)
    wsum = complex(sum(weights))
    return SylvesterDecomposition(
        "discriminant", m, pnk, tuple(nodes), tuple(complex(w) for w in weights),
        wsum, target, residual, residual <= SYLVESTER_RESIDUAL_TOL,
    )
