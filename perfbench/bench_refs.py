"""Reference values from routes that share no code with the homsum package.

Every check in the benchmark compares a package output against one of these
routes (or against a value that `refgen.py` computed with them and committed
to `references.json`):

* closed-form counts: Bell (Bell triangle), Catalan, (2k-1)!!, Riordan
  (three-term recurrence), respectful pairings (bitmask and interval DP);
* NC Moebius values from the Kreweras complement, mu(sigma, 1) =
  prod over blocks V of K(sigma) of (-1)^(|V|-1) Cat_(|V|-1);
* moment/cumulant sequences from the first-block recursions (classical and
  free) instead of partition-class sums;
* orthogonal-polynomial data from the classical families (Hermite, Chebyshev,
  Charlier, Laguerre, Legendre) and discriminant moments from the Mehta and
  Selberg integrals;
* exact moments of homogeneous sums by commutative polynomial expansion
  (classical) and by a non-crossing word recursion keyed by the per-index law
  itself (free), plus the Gaussian and semicircular trace forms for quadratic
  kernels;
* dense float64 contractions and influences through numpy.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class Mismatch(AssertionError):
    """A package output differs from its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def expect_eq(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def expect_close(got, want, what: str, rel: float = 1e-9) -> None:
    got, want = complex(got), complex(want)
    if not abs(got - want) <= rel * max(1.0, abs(want)):
        raise Mismatch(f"{what}: got {got!r}, want {want!r} (rel {rel})")


def digest(values) -> str:
    """sha256 of raw bytes, or of the repr of a nested structure of floats and ints."""
    data = values if isinstance(values, bytes) else repr(values).encode()
    return hashlib.sha256(data).hexdigest()[:20]


# ---------------------------------------------------------------------------
# counts


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def catalan(k: int) -> int:
    return math.factorial(2 * k) // (math.factorial(k) * math.factorial(k + 1))


def odd_double_factorial(n: int) -> int:
    """(n-1)!! for even n: the number of pairings of [n]."""
    return math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0


def riordan(n: int) -> int:
    r = [1, 0]
    for k in range(2, n + 1):
        r.append((k - 1) * (2 * r[k - 1] + 3 * r[k - 2]) // (k + 1))
    return r[n]


def _colours(d: int, m: int) -> tuple[int, ...]:
    return tuple(p // d for p in range(d * m))


def pairings_across(d: int, m: int) -> int:
    """Perfect matchings of m groups of d consecutive points with no pair inside a group."""
    col = _colours(d, m)

    @lru_cache(maxsize=None)
    def count(mask: int) -> int:
        if mask == 0:
            return 1
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        total = 0
        j = rest
        while j:
            b = (j & -j).bit_length() - 1
            if col[b] != col[i]:
                total += count(rest & ~(1 << b))
            j &= j - 1
        return total

    return count((1 << len(col)) - 1)


def nc_pairings_across(d: int, m: int) -> int:
    """Non-crossing matchings of the same points (interval dynamic programme)."""
    col = _colours(d, m)

    @lru_cache(maxsize=None)
    def count(i: int, j: int) -> int:  # points i..j-1
        if i >= j:
            return 1
        return sum(
            count(i + 1, k) * count(k + 1, j)
            for k in range(i + 1, j, 2)
            if col[k] != col[i]
        )

    return count(0, len(col))


def kreweras_blocks(blocks, n: int) -> list[list[int]]:
    """Blocks of the Kreweras complement K(sigma) = sigma^{-1} gamma, gamma = (1 2 ... n)."""
    inv = {}
    for b in blocks:
        b = sorted(b)
        for x, y in zip(b, b[1:] + b[:1]):
            inv[y] = x
    seen, out = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = inv[x % n + 1]
        out.append(cyc)
    return out


def nc_moebius_to_top(blocks, n: int) -> int:
    out = 1
    for v in kreweras_blocks(blocks, n):
        out *= (-1) ** (len(v) - 1) * catalan(len(v) - 1)
    return out


# ---------------------------------------------------------------------------
# moment / cumulant sequences


def _conv_powers(m: list[Fraction], n: int) -> list[list[Fraction]]:
    """P[s][t] = sum over i_1 + ... + i_s = t of m_{i_1} ... m_{i_s}, t <= n."""
    P = [[Fraction(1)] + [Fraction(0)] * n]
    for _ in range(n):
        prev = P[-1]
        P.append([sum((prev[a] * m[t - a] for a in range(t + 1)), Fraction(0)) for t in range(n + 1)])
    return P


def moments_from_cumulants(kappa, kind: str) -> tuple[Fraction, ...]:
    """kappa[0] is ignored; returns m_0..m_N."""
    N = len(kappa) - 1
    m = [Fraction(1)]
    for n in range(1, N + 1):
        if kind == "classical":
            m.append(sum((math.comb(n - 1, j - 1) * kappa[j] * m[n - j] for j in range(1, n + 1)), Fraction(0)))
        else:
            # first-block recursion: the block of 1 has size s and splits the rest into s gaps
            P = _conv_powers(m + [Fraction(0)], n)
            m.append(sum((kappa[s] * P[s][n - s] for s in range(1, n + 1)), Fraction(0)))
    return tuple(m)


def cumulants_from_moments(m, kind: str) -> tuple[Fraction, ...]:
    N = len(m) - 1
    kappa = [Fraction(0)]
    for n in range(1, N + 1):
        if kind == "classical":
            rest = sum((math.comb(n - 1, j - 1) * kappa[j] * m[n - j] for j in range(1, n)), Fraction(0))
        else:
            P = _conv_powers(list(m[:n]) + [Fraction(0)] * (N - n + 1), n)
            rest = sum((kappa[s] * P[s][n - s] for s in range(1, n)), Fraction(0))
        kappa.append(Fraction(m[n]) - rest)
    return tuple(kappa)


def _frozen(p: dict) -> tuple:
    return tuple(sorted((k, tuple(v) if isinstance(v, (list, tuple)) else Fraction(v)) for k, v in p.items()))


def law_moments(name: str, order: int, **p) -> tuple[Fraction, ...]:
    """m_0..m_order of a built-in law, each from its defining closed form."""
    return _law_moments(name, order, _frozen(p))


def law_cumulants(name: str, order: int, **p) -> tuple[Fraction, ...]:
    return _law_cumulants(name, order, _frozen(p))


@lru_cache(maxsize=None)
def _law_moments(name: str, order: int, frozen: tuple) -> tuple[Fraction, ...]:
    p = dict(frozen)
    F = Fraction
    if name == "gaussian":
        s2 = F(p.get("sigma2", 1))
        return tuple(F(0) if k % 2 else s2 ** (k // 2) * odd_double_factorial(k) for k in range(order + 1))
    if name == "semicircle":
        s2 = F(p.get("sigma2", 1))
        return tuple(F(0) if k % 2 else s2 ** (k // 2) * catalan(k // 2) for k in range(order + 1))
    if name in ("rademacher", "free_rademacher"):
        return tuple(F(1 - k % 2) for k in range(order + 1))
    if name == "uniform_centered":
        return tuple(F(0) if k % 2 else F(3 ** (k // 2), k + 1) for k in range(order + 1))
    if name == "discrete":
        vals = [F(v) for v in p["values"]]
        probs = [F(q) for q in p["probs"]]
        return tuple(sum((q * v**k for q, v in zip(probs, vals)), F(0)) for k in range(order + 1))
    if name not in ("centered_poisson", "gamma_f", "free_poisson_centered", "tetilla"):
        raise ValueError(f"no closed form for law {name!r}")
    kind = "free" if name in ("free_poisson_centered", "tetilla") else "classical"
    return moments_from_cumulants(law_cumulants(name, order, **p), kind)


@lru_cache(maxsize=None)
def _law_cumulants(name: str, order: int, frozen: tuple) -> tuple[Fraction, ...]:
    p = dict(frozen)
    F = Fraction
    if name in ("centered_poisson", "free_poisson_centered"):
        lam = F(p.get("lam", 1))
        return tuple(F(0) if k < 2 else lam for k in range(order + 1))
    if name == "tetilla":
        return tuple(F(0) if k % 2 or k == 0 else F(2) ** (1 - k // 2) for k in range(order + 1))
    if name == "gamma_f":
        a = F(p["nu"]) / 2  # F = 2 G(a) - nu, kappa_k(G) = a (k-1)!
        return tuple(F(0) if k < 2 else 2**k * a * math.factorial(k - 1) for k in range(order + 1))
    if name in ("gaussian", "semicircle"):
        s2 = F(p.get("sigma2", 1))
        return tuple(s2 if k == 2 else F(0) for k in range(order + 1))
    if name not in ("rademacher", "free_rademacher", "uniform_centered", "discrete"):
        raise ValueError(f"no closed form for law {name!r}")
    kind = "free" if name == "free_rademacher" else "classical"
    return cumulants_from_moments(law_moments(name, order, **p), kind)


# ---------------------------------------------------------------------------
# orthogonal-polynomial data of the classical families


def recurrence(name: str, N: int, **p) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Monic three-term coefficients (alpha_k, beta_k), k = 0..N-1, beta_0 = 0."""
    F = Fraction
    al, be = [], []
    for k in range(N):
        if name == "gaussian":
            a, b = F(0), F(p.get("sigma2", 1)) * k
        elif name == "semicircle":
            a, b = F(0), F(p.get("sigma2", 1)) if k else F(0)
        elif name == "centered_poisson":
            a, b = F(k), F(p.get("lam", 1)) * k
        elif name == "gamma_f":
            A = F(p["nu"]) / 2
            a, b = 2 * (2 * k + A) - F(p["nu"]), 4 * k * (k + A - 1)
        elif name == "uniform_centered":
            a, b = F(0), F(3 * k * k, 4 * k * k - 1)
        else:
            raise ValueError(name)
        al.append(a)
        be.append(b)
    return tuple(al), tuple(be)


def monic_ops(alphas, betas) -> list[tuple[Fraction, ...]]:
    """p_0..p_N from the three-term recurrence, coefficients lowest degree first."""
    polys = [(Fraction(1),)]
    prev = (Fraction(0),)
    for k, (a, b) in enumerate(zip(alphas, betas)):
        cur = polys[-1]
        nxt = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] += c
            nxt[i] -= a * c
        if k:
            for i, c in enumerate(prev):
                nxt[i] -= b * c
        prev = cur
        polys.append(tuple(nxt))
    return polys


def hankel_det(name: str, n: int, **p) -> Fraction:
    """det(m_{i+j})_{i,j<n} = product of the monic norms beta_1 ... products."""
    _, be = recurrence(name, n, **p)
    det, h = Fraction(1), Fraction(1)
    for k in range(n):
        if k:
            h *= be[k]
        det *= h
    return det


def fraction_det(rows) -> Fraction:
    """Plain Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return det


def mehta_gaussian(N: int, k: int, sigma2=1) -> Fraction:
    """E[Delta^(2k)] for N i.i.d. N(0, sigma2): sigma^(N(N-1)k) prod_j (jk)!/k!."""
    out = Fraction(sigma2) ** (N * (N - 1) * k // 2)
    for j in range(1, N + 1):
        out *= Fraction(math.factorial(j * k), math.factorial(k))
    return out


def selberg_uniform(N: int, k: int) -> Fraction:
    """E[Delta^(2k)] for N i.i.d. uniform on [-sqrt3, sqrt3] (Selberg, alpha = beta = 1)."""
    f = math.factorial
    out = Fraction(1)
    for j in range(N):
        out *= Fraction(f(j * k) ** 2 * f((j + 1) * k), f(1 + (N + j - 1) * k) * f(k))
    return out * Fraction(12) ** (k * N * (N - 1) // 2)


def discrete_discriminant(values, probs, N: int, k: int) -> Fraction:
    out = Fraction(0)
    for combo in itertools.product(range(len(values)), repeat=N):
        w = math.prod(Fraction(probs[i]) for i in combo)
        xs = [Fraction(values[i]) for i in combo]
        delta = math.prod(xs[j] - xs[i] for i in range(N) for j in range(i + 1, N))
        out += w * delta ** (2 * k)
    return out


# ---------------------------------------------------------------------------
# moments of homogeneous sums


def classical_moment(factors: list, law_moms) -> Fraction:
    """E[Q_1 ... Q_k] by commutative expansion of the product with collected
    monomials; each factor is a kernel's {index tuple: value} map.

    ``law_moms(i)`` gives the moment sequence of X_i.  Monomials are sorted
    tuples of (index, exponent) pairs.
    """
    def mono(idx):
        out: dict[int, int] = {}
        for i in idx:
            out[i] = out.get(i, 0) + 1
        return tuple(sorted(out.items()))

    def mul(a, b):
        d = dict(a)
        for i, e in b:
            d[i] = d.get(i, 0) + e
        return tuple(sorted(d.items()))

    poly = {(): Fraction(1)}
    for values in factors:
        q: dict = {}
        for idx, v in values.items():
            k = mono(idx)
            q[k] = q.get(k, Fraction(0)) + v
        nxt: dict = {}
        for a, ca in poly.items():
            for b, cb in q.items():
                k = mul(a, b)
                nxt[k] = nxt.get(k, Fraction(0)) + ca * cb
        poly = nxt
    total = Fraction(0)
    for k, c in poly.items():
        e = c
        for i, p in k:
            e *= law_moms(i)[p]
            if e == 0:
                break
        total += e
    return total


def free_moment(factors: list, law_cums) -> Fraction:
    """phi(Q_1 ... Q_k) for freely independent entries by expanding words.

    phi of a word is the sum over non-crossing partitions with letter-constant
    blocks of the free cumulants; the recursion picks the block of the first
    letter, whose gaps are independent sub-words.  ``law_cums(i)`` gives the
    free cumulant sequence of X_i, so two indices that share a law name but
    not its parameters stay distinct.
    """
    @lru_cache(maxsize=None)
    def phi(word: tuple[int, ...]) -> Fraction:
        if not word:
            return Fraction(1)
        a, L = word[0], len(word)
        kap = law_cums(a)
        total = Fraction(0)
        # choose the other positions of the first block: increasing subsets of equal letters
        pos = [p for p in range(1, L) if word[p] == a]
        for r in range(len(pos) + 1):
            for chosen in itertools.combinations(pos, r):
                c = kap[r + 1]
                if c == 0:
                    continue
                term = c
                cuts = (0,) + chosen + (L,)
                for lo, hi in zip(cuts, cuts[1:]):
                    term *= phi(word[lo + 1: hi])
                    if term == 0:
                        break
                total += term
        return total

    total = Fraction(0)
    for combo in itertools.product(*(list(f.items()) for f in factors)):
        coeff = Fraction(1)
        word: list[int] = []
        for idx, v in combo:
            coeff *= v
            word.extend(idx)
        total += coeff * phi(tuple(word))
    return total


def _sym_matrix(values: dict, n: int, weights) -> list[list[Fraction]]:
    """B = A W with A the symmetrized quadratic kernel and W = diag(weights)."""
    A = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in values.items():
        A[i - 1][j - 1] += v / 2
        A[j - 1][i - 1] += v / 2
    return [[A[i][j] * weights[j] for j in range(n)] for i in range(n)]


def _traces(B, rmax: int) -> list[Fraction]:
    n = len(B)
    P = [row[:] for row in B]
    out = [Fraction(n), sum((B[i][i] for i in range(n)), Fraction(0))]
    for _ in range(2, rmax + 1):
        P = [[sum((P[i][k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
        out.append(sum((P[i][i] for i in range(n)), Fraction(0)))
    return out


def gaussian_quadratic_moment(values: dict, n: int, variances, m: int) -> Fraction:
    """E[Q^m] for Q = X^T A X, X_i ~ N(0, variances[i]): kappa_r = 2^(r-1) (r-1)! tr((A S)^r)."""
    t = _traces(_sym_matrix(values, n, variances), m)
    kappa = [Fraction(0)] + [2 ** (r - 1) * math.factorial(r - 1) * t[r] for r in range(1, m + 1)]
    return moments_from_cumulants(kappa, "classical")[m]


def semicircle_quadratic_moment(values: dict, n: int, variances, m: int) -> Fraction:
    """phi(Q^m), m <= 4, for a symmetric quadratic kernel and free semicircular entries:
    the respectful non-crossing pairings give tr B^2, tr B^3 and 2 (tr B^2)^2 + tr B^4."""
    t = _traces(_sym_matrix(values, n, variances), 4)
    return {1: Fraction(0), 2: t[2], 3: t[3], 4: 2 * t[2] ** 2 + t[4]}[m]


# ---------------------------------------------------------------------------
# kernels (dense float64)


def dense(values: dict, n: int, d: int) -> np.ndarray:
    a = np.zeros((n,) * d)
    for idx, v in values.items():
        a[tuple(i - 1 for i in idx)] = float(v)
    return a


def dense_contraction(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """sum over u of f[t, u] g[reversed(u), s]."""
    if q == 0:
        return np.multiply.outer(f, g)
    g = np.transpose(g, tuple(reversed(range(q))) + tuple(range(q, g.ndim)))
    return np.tensordot(f, g, axes=(list(range(f.ndim - q, f.ndim)), list(range(q))))


def dense_star(f: np.ndarray, g: np.ndarray, r: int) -> np.ndarray:
    """f *_r^{r-1} g: r-1 summed indices and a shared index between the groups."""
    fd, gd = f.ndim, g.ndim
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    t = [next(letters) for _ in range(fd - r)]
    gam = next(letters)
    u = [next(letters) for _ in range(r - 1)]
    s = [next(letters) for _ in range(gd - r)]
    spec = f"{''.join(t)}{gam}{''.join(u)},{''.join(reversed(u))}{gam}{''.join(s)}->{''.join(t)}{gam}{''.join(s)}"
    return np.einsum(spec, f, g)


def dense_influence(f: np.ndarray) -> np.ndarray:
    sq = f * f
    return sum(sq.sum(axis=tuple(a for a in range(f.ndim) if a != l)) for l in range(f.ndim))


def expect_dense(got_values: dict, want: np.ndarray, what: str, rel: float = 1e-9) -> None:
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    seen = 0
    for idx, v in got_values.items():
        w = want[tuple(i - 1 for i in idx)]
        if abs(float(v) - w) > rel * scale:
            raise Mismatch(f"{what}: entry {idx} got {float(v)!r}, want {w!r}")
        seen += 1
    nonzero = int(np.count_nonzero(np.abs(want) > rel * scale))
    expect(seen == nonzero, f"{what}: {seen} entries, want {nonzero}")
