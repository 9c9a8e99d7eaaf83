"""Discrete coefficient kernels f: [n]^d -> R and their contraction calculus.

Kernels are stored as immutable maps from 1-based index tuples to scalars;
absent tuples are zero.  Exact mode keeps every value a Fraction so that
contraction identities and norms can be asserted with ==; float mode is for
simulation-facing code.  Norms are reported squared in exact mode.

Exact contractions, norms and influences sum in integers: each kernel is
scaled once to integer numerators over the least common denominator of its
values (:func:`_integer_scaled`, the scaling the lattice moment engine also
uses), the products and sums run on those integers, and each result is
divided back out once, as one Fraction.  Float kernels run the same loops on
their own values, in the same order, with nothing to divide out.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from . import record

Scalar = Fraction | float


class KernelError(ValueError):
    pass


def _as_scalar(v, mode: str) -> Scalar:
    if mode == "exact":
        if isinstance(v, float):
            raise KernelError("float value in exact mode; pass Fraction, int or 'p/q' string")
        return Fraction(v)
    return float(v)


@record
class Kernel:
    n: int
    d: int
    values: Mapping[tuple[int, ...], Scalar]
    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise KernelError("mode must be 'exact' or 'float'")
        if self.n < 1 or self.d < 0:
            raise KernelError("need n >= 1 and d >= 0")

    def __call__(self, idx: tuple[int, ...]) -> Scalar:
        return self.values.get(tuple(idx), self._zero)

    @property
    def _zero(self) -> Scalar:
        return Fraction(0) if self.mode == "exact" else 0.0

    def support(self):
        return self.values.items()

    @cached_property
    def is_symmetric(self) -> bool:
        """Every permutation orbit of the nonzero support is fully present
        and holds one value."""
        return all(
            len(vs) == _orbit_size(key) and all(v == vs[0] for v in vs)
            for key, vs in _orbits((i, v) for i, v in self.values.items() if v).items()
        )

    @cached_property
    def is_mirror_symmetric(self) -> bool:
        return all(self.values.get(idx[::-1], self._zero) == v for idx, v in self.values.items())

    @cached_property
    def vanishes_on_diagonals(self) -> bool:
        return all(len(set(idx)) == len(idx) for idx in self.values)

    def norm_sq(self) -> Scalar:
        if self.mode == "float":
            return sum((v * v for v in self.values.values()), 0.0)
        table, den = _integer_scaled(self.values)
        return Fraction(sum(v * v for v in table.values()), den * den)

    def scaled(self, c: Scalar) -> "Kernel":
        c = _as_scalar(c, self.mode)
        if not c:
            return Kernel(self.n, self.d, {}, self.mode)
        return Kernel(self.n, self.d, {k: v * c for k, v in self.values.items()}, self.mode)

    def __sub__(self, other: "Kernel") -> "Kernel":
        if (self.n, self.d, self.mode) != (other.n, other.d, other.mode):
            raise KernelError("kernel shape/mode mismatch in subtraction")
        out = dict(self.values)
        for k, v in other.values.items():
            w = out.get(k, self._zero) - v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return Kernel(self.n, self.d, out, self.mode)

    def to_float(self) -> "Kernel":
        if self.mode == "float":
            return self
        return Kernel(self.n, self.d, {k: float(v) for k, v in self.values.items()}, "float")


def _integer_scaled(values: Mapping) -> tuple[dict, int]:
    """The values of a map over their least common denominator:
    (the integer numerators, that denominator)."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def _numerators(f: Kernel) -> tuple[Mapping, int]:
    """The values the exact layer sums: an exact kernel's integer numerators
    over their common denominator, a float kernel's own values over 1."""
    return _integer_scaled(f.values) if f.mode == "exact" else (f.values, 1)


def _orbits(entries: Iterable[tuple[tuple[int, ...], Scalar]]) -> dict[tuple[int, ...], list[Scalar]]:
    """The values of (index, value) pairs grouped by permutation orbit, each
    orbit keyed by its sorted index."""
    out: dict[tuple[int, ...], list[Scalar]] = {}
    for idx, v in entries:
        out.setdefault(tuple(sorted(idx)), []).append(v)
    return out


def _orbit_size(key: tuple[int, ...]) -> int:
    """d! / prod mult!: the number of distinct permutations of ``key``."""
    return math.factorial(len(key)) // math.prod(math.factorial(key.count(i)) for i in set(key))


def _distinct_permutations(key: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The distinct permutations of the multiset ``key``, in lexicographic
    order (Knuth, TAOCP 4A, 7.2.1.2, Algorithm L)."""
    a = sorted(key)
    last = len(a) - 1
    while True:
        yield tuple(a)
        j = last - 1
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = last
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[last:j:-1]


def _on_orbits(values: Mapping[tuple[int, ...], Scalar]) -> dict[tuple[int, ...], Scalar]:
    """Each nonzero orbit value set on every permutation of its key."""
    return {perm: v for key, v in values.items() if v for perm in _distinct_permutations(key)}


def build_kernel(
    n: int,
    d: int,
    entries: Iterable[tuple[tuple[int, ...], Scalar]],
    symmetrize: bool = False,
    mode: str = "exact",
) -> Kernel:
    """Assemble a kernel from (index, value) pairs.

    Duplicate indices are allowed only when the values agree; with
    ``symmetrize`` each permutation orbit takes the mean of the values given
    in it, so a single entry keeps its value on its whole orbit and a fully
    given f gets the standard symmetrization.
    """
    raw: dict[tuple[int, ...], Scalar] = {}
    for idx, val in entries:
        idx = tuple(int(i) for i in idx)
        if len(idx) != d:
            raise KernelError(f"index {idx} has arity {len(idx)}, expected {d}")
        if any(not (1 <= i <= n) for i in idx):
            raise KernelError(f"index {idx} out of range [1, {n}]")
        if isinstance(val, str):
            val = Fraction(val)
        val = _as_scalar(val, mode)
        if idx in raw and raw[idx] != val:
            raise KernelError(f"conflicting duplicate entries at {idx}")
        raw[idx] = val
    if symmetrize and d >= 2:
        zero = Fraction(0) if mode == "exact" else 0.0
        raw = _on_orbits({key: sum(vs, zero) / len(vs) for key, vs in _orbits(raw.items()).items()})
    raw = {k: v for k, v in raw.items() if v}
    return Kernel(n, d, raw, mode)


def validate(f: Kernel, flavor: str) -> dict:
    """Admissibility report for one of the three flavors.

    classical: symmetric, diagonal-vanishing, d! * sum f^2 == 1
    free:      symmetric, diagonal-vanishing, sum f^2 == 1
    mirror:    mirror-symmetric, diagonal-vanishing, sum f^2 == 1
    """
    if flavor not in ("classical", "free", "mirror"):
        raise KernelError("flavor must be classical, free or mirror")
    nsq = f.norm_sq()
    if flavor == "classical":
        variance = nsq * math.factorial(f.d)
        sym_ok = f.is_symmetric
        sym_clause = "symmetric"
    elif flavor == "free":
        variance = nsq
        sym_ok = f.is_symmetric
        sym_clause = "symmetric"
    else:
        variance = nsq
        sym_ok = f.is_mirror_symmetric
        sym_clause = "mirror_symmetric"
    one = Fraction(1) if f.mode == "exact" else 1.0
    clauses = {
        sym_clause: sym_ok,
        "vanishes_on_diagonals": f.vanishes_on_diagonals,
        "unit_variance": variance == one,
    }
    return {
        "flavor": flavor,
        "clauses": clauses,
        "variance": variance,
        "passed": all(clauses.values()),
    }


def _entries_by_head(values: Mapping, h: int) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], Scalar]]]:
    """Entries grouped by their h leading indices: head -> [(rest, value)],
    each list in the map's own order."""
    out: dict[tuple[int, ...], list] = {}
    for gi, gv in values.items():
        out.setdefault(gi[:h], []).append((gi[h:], gv))
    return out


def _contract(f: Kernel, g: Kernel, q: int, keep: int) -> Kernel:
    """Sums f's last q indices against g's first q, which match them in
    reverse order; with keep = 1 the first of f's summed indices stays free
    as well, between the two argument groups.

    Exact kernels add integer products over D_f * D_g (:func:`_numerators`)
    and divide each nonzero sum out once."""
    fvals, fden = _numerators(f)
    gvals, gden = _numerators(g)
    by_head = _entries_by_head(gvals, q)
    acc: dict[tuple[int, ...], int | float] = {}
    for fi, fv in fvals.items():
        t = fi[: f.d - q + keep]
        for tail, gv in by_head.get(fi[f.d - q:][::-1], ()):
            key = t + tail
            acc[key] = acc.get(key, 0) + fv * gv
    if f.mode == "exact":
        den = fden * gden
        acc = {k: Fraction(v, den) for k, v in acc.items() if v}
    else:
        acc = {k: v for k, v in acc.items() if v}
    return Kernel(f.n, f.d + g.d - 2 * q + keep, acc, f.mode)


def contraction(f: Kernel, g: Kernel, q: int) -> Kernel:
    """Contraction of order q: sums q inner indices of f against the reversed
    leading indices of g; q = 0 is the outer product."""
    if f.n != g.n or f.mode != g.mode:
        raise KernelError("alphabet/mode mismatch")
    if not (0 <= q <= min(f.d, g.d)):
        raise KernelError(f"q={q} out of range for degrees {f.d}, {g.d}")
    return _contract(f, g, q, 0)


def star_contraction(f: Kernel, g: Kernel, r: int) -> Kernel:
    """Star contraction f *_r^{r-1} g: r-1 summed indices plus one shared
    free index gamma sitting between the two argument groups."""
    if f.n != g.n or f.mode != g.mode:
        raise KernelError("alphabet/mode mismatch")
    if not (1 <= r <= min(f.d, g.d)):
        raise KernelError(f"r={r} out of range for degrees {f.d}, {g.d}")
    return _contract(f, g, r, 1)


def influence(f: Kernel) -> list[Scalar]:
    """Slot-summed influence profile: Inf_i(f) = sum over slots l and free
    indices of f(..., i at slot l, ...)^2, for i = 1..n.

    Under this normalization sum_i Inf_i = d * sum f^2 (for diagonal-vanishing
    kernels); for fully symmetric f each value equals d * sum_j f(i, j, ...)^2.
    See :func:`influence_first_slot` for the other normalization in use.
    """
    vals, den = _numerators(f)
    out = [0] * f.n
    for idx, v in vals.items():
        sq = v * v
        for i in idx:
            out[i - 1] += sq
    return _squares_out(f, out, den)


def influence_first_slot(f: Kernel) -> list[Scalar]:
    """First-slot influence profile: Inf_i(f) = sum over the remaining indices
    of f(i, j_2, ..., j_d)^2, so that sum_i Inf_i = sum f^2 exactly.

    This is the normalization under which admissible (unit-variance) kernels
    have total influence 1; reports always state which profile they carry.
    A degree-0 kernel has no first slot, so its profile is zero, as under
    :func:`influence`.
    """
    vals, den = _numerators(f)
    out = [0] * f.n
    for idx, v in vals.items():
        if idx:
            out[idx[0] - 1] += v * v
    return _squares_out(f, out, den)


def _squares_out(f: Kernel, sums: list, den: int) -> list[Scalar]:
    """Sums of squared numerators divided out by den^2 (exact mode); float
    sums as floats, an untouched 0 included."""
    if f.mode == "exact":
        den *= den
        return [Fraction(s, den) for s in sums]
    return [float(s) for s in sums]


@record
class LiftedKernel:
    """A kernel lifted to tensor degree m = sum(orders); orders must be palindromic."""

    base: Kernel
    orders: tuple[int, ...]

    def __post_init__(self):
        if len(self.orders) != self.base.d:
            raise KernelError("orders length must equal the kernel degree")
        if any(h < 1 for h in self.orders):
            raise KernelError("orders must be positive")
        if tuple(self.orders) != tuple(reversed(self.orders)):
            raise KernelError("orders must be palindromic (h_i = h_{d-i+1})")

    @property
    def total_degree(self) -> int:
        return sum(self.orders)


def lift(f: Kernel, orders: Iterable[int]) -> LiftedKernel:
    return LiftedKernel(f, tuple(int(h) for h in orders))


def _scalar_to_json(v: Scalar) -> str | float:
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v


def kernel_to_json(f: Kernel) -> str:
    entries = [
        {"idx": list(idx), "val": _scalar_to_json(v)}
        for idx, v in sorted(f.values.items())
    ]
    return json.dumps(
        {"n": f.n, "d": f.d, "mode": f.mode, "symmetrize": False, "entries": entries},
        indent=2,
    )


def kernel_from_json(text: str) -> Kernel:
    """Parse the kernel JSON format; any malformed document raises KernelError."""
    try:
        obj = json.loads(text)
        entries = [(tuple(e["idx"]), e["val"]) for e in obj["entries"]]
        return build_kernel(
            int(obj["n"]),
            int(obj["d"]),
            entries,
            symmetrize=bool(obj.get("symmetrize", False)),
            mode=obj.get("mode", "exact"),
        )
    except KernelError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as e:
        raise KernelError(f"malformed kernel JSON: {type(e).__name__}: {e}") from None


def offdiag_kernel(n: int) -> Kernel:
    """Exact off-diagonal quadratic kernel: f(i, j) = 1 for i != j.

    Scaled by 1/sqrt(2n(n-1)) (classical) or 1/sqrt(n(n-1)) (free) this is
    the fully spread, vanishing-influence family; exact callers rescale
    results by the rational squared normalization.
    """
    entries = [((i, j), 1) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return build_kernel(n, 2, entries)


def star_kernel(n: int) -> Kernel:
    """Exact star-shaped quadratic kernel: f(i, j) = 1 when i != j and 1 in {i, j}.

    Its maximal influence does not vanish with n, so it is the canonical
    counterexample family for universality diagnostics.
    """
    entries = [((1, j), 1) for j in range(2, n + 1)]
    entries += [((j, 1), 1) for j in range(2, n + 1)]
    return build_kernel(n, 2, entries)


def avoid_first_kernel(n: int) -> Kernel:
    """Exact off-diagonal quadratic kernel away from index 1: f(i, j) = 1 for
    i != j with i, j >= 2."""
    entries = [
        ((i, j), 1) for i in range(2, n + 1) for j in range(2, n + 1) if i != j
    ]
    return build_kernel(n, 2, entries)


def scale_to_unit_variance(f: Kernel, flavor: str) -> Kernel:
    """Float copy of f rescaled so the flavor's variance clause holds
    (d! sum f^2 = 1 classically, sum f^2 = 1 for free/mirror)."""
    nsq = float(f.norm_sq())
    if nsq == 0.0:
        raise KernelError("cannot normalize the zero kernel")
    target = 1.0 / math.factorial(f.d) if flavor == "classical" else 1.0
    c = math.sqrt(target / nsq)
    return f.to_float().scaled(c)
