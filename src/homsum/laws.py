"""Exact moment and cumulant sequences for the built-in classical and free laws.

Moments and cumulants are tied together by the partition-lattice formulas:
the n-th raw moment is the sum over partitions of [n] (non-crossing
partitions in the free case) of products of per-block cumulants, and the
inverse direction is a triangular back-substitution on the same sums.  One
code path serves both.  It sums over block-size classes with closed-form
multiplicities and never enumerates a set partition, so the partition size cap
does not bound it; a fixed order limit does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .partitions import (
    DEFAULT_SIZE_CAP,
    PartitionFilter,
    enumerate_partitions,
    moebius_to_top,
    respectful_pairings,
)

DEFAULT_MAX_ORDER = 10
# Law files and the CLI's --n/--N/--k set the conversion order from outside.
# The class sums grow with the number of integer partitions of each order
# (5604 of 30): order 30 converts in about a second, cold, and a larger order
# is refused rather than left to run for minutes.
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
    """Convert between moments and cumulants by partition summation:
    m_n = sum over partitions of [n] (non-crossing partitions for the free
    kind) of per-block cumulant products, aggregated over block-size classes
    with exact multiplicities; the inverse direction is the triangular
    back-substitution of the same sums.  No set partition is enumerated;
    orders above CONVERT_MAX_ORDER are refused.

    ``seq`` is indexed from 0; for 'moments_to_cumulants' seq[0] must be 1,
    for 'cumulants_to_moments' seq[0] is ignored (placeholder).
    """
    if kind not in ("classical", "free"):
        raise LawError("kind must be 'classical' or 'free'")
    N = len(seq) - 1
    if N > CONVERT_MAX_ORDER:
        raise LawError(f"order {N} exceeds the conversion limit {CONVERT_MAX_ORDER}")

    def class_sum(cums: list[Fraction], n: int, skip_top: bool) -> Fraction:
        total = Fraction(0)
        for lam, mult in _partition_classes(n, kind):
            if skip_top and len(lam) == 1:
                continue
            term = Fraction(mult)
            for part in lam:
                term *= cums[part]
                if term == 0:
                    break
            total += term
        return total

    if direction == "cumulants_to_moments":
        cums = [Fraction(0)] + [Fraction(x) for x in seq[1:]]
        moments = [Fraction(1)]
        for n in range(1, N + 1):
            moments.append(class_sum(cums, n, skip_top=False))
        return tuple(moments)

    if direction == "moments_to_cumulants":
        if seq[0] != 1:
            raise LawError("moments[0] must be 1")
        moments = [Fraction(x) for x in seq]
        cums: list[Fraction] = [Fraction(0)]
        for n in range(1, N + 1):
            cums.append(Fraction(0))  # placeholder so class_sum can index it
            cums[n] = moments[n] - class_sum(cums, n, skip_top=True)
        return tuple(cums)

    raise LawError("direction must be 'moments_to_cumulants' or 'cumulants_to_moments'")


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
    """Joint cumulant of (X_1, ..., X_n) by Moebius inversion on the kind's lattice.

    The oracle maps a sorted position block B to E[prod_{j in B} X_j] (for the
    free kind, the product is taken in increasing position order).
    """
    if kind not in ("classical", "free"):
        raise LawError("kind must be 'classical' or 'free'")
    filt = PartitionFilter(noncrossing=(kind == "free"))
    mode = "noncrossing" if kind == "free" else "classical"
    total = Fraction(0)
    for sigma in enumerate_partitions(n, filt, cap):
        mu = moebius_to_top(sigma, mode)
        term = mu
        for b in sigma.blocks:
            term *= joint_moment_oracle(b)
            if term == 0:
                break
        total += term
    return total


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
