"""Exact moment and cumulant sequences for the built-in classical and free laws.

Moments and cumulants are tied together by the partition-lattice formulas:
the n-th raw moment is the sum over partitions of [n] (non-crossing
partitions in the free case) of products of per-block cumulants.  Law
conversion and joint cumulants solve them by the first-block recursion, which
enumerates neither set partitions nor block-size classes; a fixed order limit
bounds the conversion and the partition size cap the joint cumulant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .partitions import DEFAULT_SIZE_CAP, _check_cap, respectful_pairings

DEFAULT_MAX_ORDER = 10
# Law files and the CLI's --n/--N/--k set the conversion order from outside,
# so it is bounded.  The free recursion takes O(N^3) operations on rationals
# that grow with N: order 30 converts in tens of milliseconds, order 120 in
# seconds.  The limit stays at 30, the refusal point the README documents.
CONVERT_MAX_ORDER = 30


class LawError(ValueError):
    pass


@dataclass(frozen=True)
class LawSpec:
    """A probability law given by exact moment and cumulant sequences.

    ``moments[k]`` is the k-th raw moment (moments[0] == 1); ``cumulants[k]``
    is the k-th cumulant (cumulants[0] is a 0 placeholder).  Both run to
    ``max_order`` and are mutually consistent under the kind's
    moment-cumulant formula.
    """

    name: str
    kind: str  # 'classical' | 'free'
    moments: tuple[Fraction, ...]
    cumulants: tuple[Fraction, ...]

    def __post_init__(self):
        if self.kind not in ("classical", "free"):
            raise LawError("kind must be 'classical' or 'free'")
        if not self.moments or self.moments[0] != 1:
            raise LawError("moments[0] must be 1")
        if len(self.cumulants) != len(self.moments):
            raise LawError("moments and cumulants must run to the same order")

    @property
    def max_order(self) -> int:
        return len(self.moments) - 1

    def moment(self, k: int) -> Fraction:
        if k > self.max_order:
            raise LawError(f"law {self.name!r} holds moments only to order {self.max_order}")
        return self.moments[k]

    def cumulant(self, k: int) -> Fraction:
        if k > self.max_order:
            raise LawError(f"law {self.name!r} holds cumulants only to order {self.max_order}")
        return self.cumulants[k]


def _integer_partitions(n: int, max_part: Optional[int] = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=64)
def _partition_classes(n: int, kind: str) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Block-size classes of P([n]) or NC([n]) with exact multiplicities.

    Only the tests' class-sum referee of :func:`convert` reads this table;
    the benchmark harness reads its cache counters.

    A class lambda = (1^{r_1} 2^{r_2} ...) occurs n! / prod_j (j!^{r_j} r_j!)
    times among set partitions, and n! / ((n-b+1)! prod_j r_j!) times among
    non-crossing partitions (b = number of blocks).
    """
    out = []
    for lam in _integer_partitions(n):
        counts: dict[int, int] = {}
        for part in lam:
            counts[part] = counts.get(part, 0) + 1
        b = len(lam)
        if kind == "classical":
            denom = 1
            for j, r in counts.items():
                denom *= math.factorial(j) ** r * math.factorial(r)
            mult = math.factorial(n) // denom
        else:
            denom = math.factorial(n - b + 1)
            for r in counts.values():
                denom *= math.factorial(r)
            mult = math.factorial(n) // denom
        out.append((lam, mult))
    return tuple(out)


def convert(seq: Sequence[Fraction], direction: str, kind: str) -> tuple[Fraction, ...]:
    """Convert between moments and cumulants by the first-block recursion.

    Splitting off the block of 1, of size s, gives m_n = kappa_n +
    sum_{s<n} kappa_s c(n, s), with c(n, s) = C(n-1, s-1) m_{n-s} for the
    classical kind (Speed 1983) and c(n, s) = [z^{n-s}] M(z)^s, M(z) =
    sum_k m_k z^k, for the free kind (Nica & Speicher 2006, Lecture 11).
    The free power coefficients are tabled as each m_n becomes known.  One
    loop serves both directions: O(N^2) Fraction operations (classical),
    O(N^3) (free); orders above CONVERT_MAX_ORDER are refused.

    ``seq`` is indexed from 0; for 'moments_to_cumulants' seq[0] must be 1,
    for 'cumulants_to_moments' seq[0] is ignored (placeholder).
    """
    if kind not in ("classical", "free"):
        raise LawError("kind must be 'classical' or 'free'")
    if len(seq) == 0:
        raise LawError("the sequence needs its order-0 entry")
    N = len(seq) - 1
    if N > CONVERT_MAX_ORDER:
        raise LawError(f"order {N} exceeds the conversion limit {CONVERT_MAX_ORDER}")
    given = [Fraction(x) for x in seq]
    to_moments = direction == "cumulants_to_moments"
    if to_moments:
        moms, cums = [Fraction(1)], [Fraction(0)] + given[1:]
    elif direction == "moments_to_cumulants":
        if given[0] != 1:
            raise LawError("moments[0] must be 1")
        moms, cums = given, [Fraction(0)]
    else:
        raise LawError("direction must be 'moments_to_cumulants' or 'cumulants_to_moments'")

    powers = [None, moms]  # free: powers[s][k] = [z^k] M(z)^s, M^1 = moms
    for n in range(1, N + 1):
        if kind == "classical":
            lower = sum(
                math.comb(n - 1, s - 1) * cums[s] * moms[n - s] for s in range(1, n) if cums[s] and moms[n - s]
            )
        else:
            if n >= 3:
                powers.append([Fraction(1)])  # M^(n-1) enters at [z^0] = 1
            for s in range(2, n):
                prev, k = powers[s - 1], n - s
                powers[s].append(sum(prev[i] * moms[k - i] for i in range(k + 1) if prev[i] and moms[k - i]))
            lower = sum(cums[s] * powers[s][n - s] for s in range(1, n) if cums[s])
        if to_moments:
            moms.append(cums[n] + lower)
        else:
            cums.append(moms[n] - lower)
    return tuple(moms if to_moments else cums)


def _law_from_cumulants(name, kind, cums, max_order) -> LawSpec:
    cums = tuple(cums[: max_order + 1])
    moments = convert(cums, "cumulants_to_moments", kind)
    return LawSpec(name, kind, moments, cums)


def _law_from_moments(name, kind, moms) -> LawSpec:
    moms = tuple(moms)
    cums = convert(moms, "moments_to_cumulants", kind)
    return LawSpec(name, kind, moms, cums)


def gaussian(sigma2=1, max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    s2 = Fraction(sigma2)
    if s2 <= 0:
        raise LawError("sigma2 must be > 0")
    moms = [Fraction(1)]
    for k in range(1, max_order + 1):
        if k % 2 == 1:
            moms.append(Fraction(0))
        else:
            df = 1
            for j in range(k - 1, 1, -2):
                df *= j
            moms.append(s2 ** (k // 2) * df)
    cums = [Fraction(0)] * (max_order + 1)
    if max_order >= 2:
        cums[2] = s2
    return LawSpec("gaussian", "classical", tuple(moms), tuple(cums))


def centered_poisson(lam=1, max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    lam = Fraction(lam)
    if lam <= 0:
        raise LawError("lambda must be > 0")
    cums = [Fraction(0), Fraction(0)] + [lam] * (max_order - 1)
    return _law_from_cumulants("centered_poisson", "classical", cums, max_order)


def gamma_f(nu, max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    """The law of F(nu) = 2 G(nu/2) - nu with G(a) ~ Gamma(a, 1).

    Orders 1..4 agree with the stated values (0, 2 nu, 8 nu, 12 nu^2 + 48 nu);
    beyond order 4 the moments rest on the Gamma product-moment formula
    E[G(a)^k] = a (a+1) ... (a+k-1), not on a bespoke identity.
    """
    nu = Fraction(nu)
    if nu <= 0:
        raise LawError("nu must be > 0")
    a = nu / 2
    gamma_moms = [Fraction(1)]
    for k in range(1, max_order + 1):
        gamma_moms.append(gamma_moms[-1] * (a + k - 1))
    moms = []
    for k in range(max_order + 1):
        acc = Fraction(0)
        for j in range(k + 1):
            acc += math.comb(k, j) * (Fraction(2) ** j) * gamma_moms[j] * ((-nu) ** (k - j))
        moms.append(acc)
    return _law_from_moments("gamma_f", "classical", moms)


def rademacher(max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    moms = tuple(Fraction(1 - k % 2) for k in range(max_order + 1))
    return _law_from_moments("rademacher", "classical", moms)


def uniform_centered(max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    """Uniform on [-sqrt(3), sqrt(3)]: centered, unit variance; m_{2k} = 3^k/(2k+1)."""
    moms = [Fraction(1)]
    for k in range(1, max_order + 1):
        moms.append(Fraction(0) if k % 2 else Fraction(3 ** (k // 2), k + 1))
    return _law_from_moments("uniform_centered", "classical", moms)


def semicircle(sigma2=1, max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    s2 = Fraction(sigma2)
    if s2 <= 0:
        raise LawError("sigma2 must be > 0")
    moms = [Fraction(1)]
    for k in range(1, max_order + 1):
        if k % 2 == 1:
            moms.append(Fraction(0))
        else:
            m = k // 2
            moms.append(s2**m * Fraction(math.comb(2 * m, m), m + 1))
    cums = [Fraction(0)] * (max_order + 1)
    if max_order >= 2:
        cums[2] = s2
    return LawSpec("semicircle", "free", tuple(moms), tuple(cums))


def free_poisson_centered(lam=1, max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    lam = Fraction(lam)
    if lam <= 0:
        raise LawError("lambda must be > 0")
    cums = [Fraction(0), Fraction(0)] + [lam] * (max_order - 1)
    return _law_from_cumulants("free_poisson_centered", "free", cums, max_order)


def free_rademacher(max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    moms = tuple(Fraction(1 - k % 2) for k in range(max_order + 1))
    return _law_from_moments("free_rademacher", "free", moms)


def tetilla(max_order: int = DEFAULT_MAX_ORDER) -> LawSpec:
    """Standardized commutator of two free semicirculars: even free cumulants 2^(1-m/2)."""
    cums = [Fraction(0)]
    for m in range(1, max_order + 1):
        cums.append(Fraction(0) if m % 2 else Fraction(2) ** (1 - m // 2))
    return _law_from_cumulants("tetilla", "free", cums, max_order)


_BUILTIN: dict[str, Callable[..., LawSpec]] = {
    "gaussian": gaussian,
    "centered_poisson": centered_poisson,
    "gamma_f": gamma_f,
    "rademacher": rademacher,
    "uniform_centered": uniform_centered,
    "semicircle": semicircle,
    "free_poisson_centered": free_poisson_centered,
    "free_rademacher": free_rademacher,
    "tetilla": tetilla,
}


def builtin_law(name: str, max_order: int = DEFAULT_MAX_ORDER, **params) -> LawSpec:
    try:
        ctor = _BUILTIN[name]
    except KeyError:
        raise LawError(f"unknown law {name!r}; known: {sorted(_BUILTIN)}") from None
    if max_order < 0:
        raise LawError("max_order must be >= 0")
    return ctor(max_order=max_order, **params)


def builtin_law_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN))


def transformed_law(
    base: str,
    h: int,
    max_order: Optional[int] = None,
    cap: int = DEFAULT_SIZE_CAP,
) -> LawSpec:
    """Law of U_h(S) (base='semicircle') or H_h(N) (base='gaussian').

    The k-th moment is the respectful pairing count |NC2*(h^(x)k)| resp.
    |P2*(h^(x)k)|; odd h*k gives 0.  Orders are limited by h*k <= cap.
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
    moms = [Fraction(1)]
    for k in range(1, max_order + 1):
        moms.append(Fraction(respectful_pairings(h, k, mode, cap)))
    name = f"U{h}(S)" if kind == "free" else f"H{h}(N)"
    return _law_from_moments(name, kind, moms)


def multivariate_cumulant(
    joint_moment_oracle: Callable[[tuple[int, ...]], Fraction],
    n: int,
    kind: str,
    cap: int = DEFAULT_SIZE_CAP,
) -> Fraction:
    """Joint cumulant of (X_1, ..., X_n) by the first-block recursion.

    The oracle maps a sorted position block B to E[prod_{j in B} X_j] (for the
    free kind, the product is taken in increasing position order) and is
    called once per distinct block.  For each position set S holding 1,
    m(S) = sum over B with 1 in B, B in S, of kappa(B) R(S \\ B): R is m(S \\ B)
    for the classical kind and, for the free kind, the product of m over the
    gaps of S \\ B, the parts of S between consecutive elements of B or after
    the last.  Solving for kappa(S) in increasing S takes 3^(n-1) terms;
    n above ``cap`` is refused.
    """
    if kind not in ("classical", "free"):
        raise LawError("kind must be 'classical' or 'free'")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n, cap)
    moments: dict[int, Fraction] = {0: Fraction(1)}  # by position bitmask, bit j-1 for X_j

    def m(mask: int) -> Fraction:
        if mask not in moments:
            moments[mask] = joint_moment_oracle(tuple(j + 1 for j in range(n) if mask >> j & 1))
        return moments[mask]

    def times_rest(c: Fraction, S: int, B: int) -> Fraction:
        """c R(S \\ B); B is a proper subset of S, so S \\ B is not empty."""
        T = S ^ B
        if kind == "classical":
            return c * m(T)
        while B:
            low = B & -B
            B ^= low
            gap = T & ((B & -B or 1 << n) - (low << 1))  # T after low, below the next element of B
            if gap:
                c *= m(gap)
        return c

    kappa: dict[int, Fraction] = {}
    for S in range(1, 1 << n, 2):  # the sets that hold position 1; subsets come first
        total = Fraction(0)
        others = S ^ 1
        sub = others
        while sub:
            sub = (sub - 1) & others
            B = sub | 1
            if kappa[B]:
                total += times_rest(kappa[B], S, B)
        kappa[S] = m(S) - total
    return kappa[(1 << n) - 1]


def poly_eval_chebyshev(h: int, x):
    """Chebyshev polynomial of the second kind U_h at x (three-term recurrence)."""
    if h < 0:
        raise LawError("h must be >= 0")
    prev, cur = 1, x
    if h == 0:
        return prev * 1
    for _ in range(h - 1):
        prev, cur = cur, x * cur - prev
    return cur


def poly_eval_hermite(h: int, x):
    """Monic (probabilists') Hermite polynomial H_h at x."""
    if h < 0:
        raise LawError("h must be >= 0")
    prev, cur = 1, x
    if h == 0:
        return prev * 1
    for k in range(1, h):
        prev, cur = cur, x * cur - k * prev
    return cur


def free_charlier(k: int, x, t):
    """Free Charlier polynomial C_{0,k}(x, t): C_0 = 1, C_1 = x,
    C_{m+1} = (x - 1) C_m - t C_{m-1}."""
    if k < 0:
        raise LawError("k must be >= 0")
    prev, cur = 1, x
    if k == 0:
        return prev * 1
    for _ in range(k - 1):
        prev, cur = cur, (x - 1) * cur - t * prev
    return cur


def law_to_json(law: LawSpec) -> str:
    return json.dumps(
        {
            "name": law.name,
            "kind": law.kind,
            "moments": [f"{m.numerator}/{m.denominator}" for m in law.moments],
        },
        indent=2,
    )


def law_from_json(text: str) -> LawSpec:
    """Parse the law JSON format; any malformed document raises LawError."""
    try:
        obj = json.loads(text)
        name, kind, moms = obj["name"], obj["kind"], obj["moments"]
        if not isinstance(name, str) or not isinstance(moms, list) or not moms:
            raise LawError("need a string 'name' and a non-empty 'moments' list")
        return _law_from_moments(name, kind, (Fraction(m) for m in moms))
    except LawError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as e:
        raise LawError(f"malformed law JSON: {type(e).__name__}: {e}") from None
