"""Exact moments, cumulants and fourth-moment diagnostics of homogeneous sums.

Two independent routes compute every moment:

* :func:`moment_oracle` expands Q^m word by word and evaluates each
  expectation directly (moment factorization classically, the non-crossing
  cumulant sum in the free case) -- the brute-force referee;
* :func:`moment_exact` aggregates over lattice partitions of the position
  set with index-constant blocks, the production path shared by joint
  moments and the fourth-moment decompositions.

One primitive, :func:`_block_sum`, evaluates the index sum of a single
lattice partition: over every map from its blocks to [n], the product of the
factors' kernel entries times per-block weights.  Its two callers sum the
same cached orbits: :func:`joint_moment` (weights: each index's cumulant of
the block's size) and :func:`wick_moment` (weights: the diagram formula's
joint cumulant of the block's lifted polynomials).  The oracle never uses it.

The primitive works on integers.  Once per call, each caller scales every
kernel and every cumulant row to integers over its own common denominator
(:func:`kernels._integer_scaled`, which the kernel layer's contractions,
norms and influences use too).  A partition's integer sum is over the
product of its factors' and blocks' denominators; the caller adds up the
sums that share a denominator and divides each total back out with one
Fraction.  The primitive assigns blocks depth first and multiplies in each
entry as soon as its factor's last block is set, so a zero entry or weight
cuts off the whole subtree below it.

A permutation of the copies of one kernel leaves a partition's block sum
unchanged, so :func:`joint_moment` takes one block sum per orbit of
partitions, times the orbit's size, and :func:`_respectful_blocks` caches
only the representatives.  Orbits are those of the permutations of equal
copies classically, of the rotations that keep the word in the free kind.

Both routes are exact rational end to end; the oracle stays on plain
Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Optional, Sequence

from . import record
from .kernels import Kernel, KernelError, contraction, influence, star_contraction
from .kernels import LiftedKernel, _entries_by_head, _integer_scaled, _numerators, _on_orbits, _orbit_size, _orbits
from .laws import LawSpec, gaussian, multivariate_cumulant, semicircle
from .partitions import (
    DEFAULT_SIZE_CAP,
    PartitionFilter,
    _factor_layout,
    _union_classes,
    count_partitions,
    enumerate_partitions,
    respectful_pairings,
)

ORACLE_TUPLE_GUARD = 10**7


class FeasibilityError(ValueError):
    pass


class AssumptionError(ValueError):
    """A stated moment assumption (centering, third moment, parity) fails."""


@record
class SumSpec:
    """A homogeneous sum Q_X(f): kernel plus driving law(s).

    ``law`` is a single LawSpec for i.i.d. entries or a length-n sequence for
    independent non-identically-distributed entries.  The kernel must vanish
    on diagonals; every formula below relies on it.
    """

    kernel: Kernel
    law: LawSpec | tuple[LawSpec, ...]

    def __post_init__(self):
        if isinstance(self.law, Sequence) and not isinstance(self.law, LawSpec):
            object.__setattr__(self, "law", tuple(self.law))
            if len(self.law) != self.kernel.n:
                raise ValueError("per-index law list must have length n")
        if not self.kernel.vanishes_on_diagonals:
            raise ValueError("homogeneous-sum kernels must vanish on diagonals")
        kinds = {l.kind for l in self.laws()}
        if len(kinds) != 1:
            raise ValueError("mixed classical/free law lists are not meaningful")

    def laws(self) -> tuple[LawSpec, ...]:
        return (self.law,) if isinstance(self.law, LawSpec) else self.law

    def law_at(self, i: int) -> LawSpec:
        return self.law if isinstance(self.law, LawSpec) else self.law[i - 1]

    @property
    def kind(self) -> str:
        return self.laws()[0].kind

    @property
    def iid(self) -> bool:
        return isinstance(self.law, LawSpec)


def _copy_maps(pattern: tuple[int, ...], degrees: tuple[int, ...], noncrossing: bool) -> list[list[int]]:
    """Position maps (p -> image of p, index 0 unused) generating the factor
    copy permutations that keep the value of every partition's block sum.

    ``pattern[j]`` names the kernel of factor j.  Classically any permutation
    of the copies of one kernel keeps the respectful partitions respectful:
    the copies' transposition and cycle generate those.  In the free kind
    only rotations keep partitions non-crossing; the rotation by the word's
    smallest period generates every rotation that keeps the word.
    """
    starts = list(itertools.accumulate(degrees, initial=1))
    D = starts[-1] - 1
    if noncrossing:
        m = len(pattern)
        period = next((p for p in range(1, m) if pattern[p:] + pattern[:p] == pattern), None)
        if period is None:
            return []
        shift = starts[period] - 1
        return [[0] + [(q + shift - 1) % D + 1 for q in range(1, D + 1)]]
    copies: dict[int, list[int]] = {}
    for j, c in enumerate(pattern):
        copies.setdefault(c, []).append(j)
    cycles = []
    for js in copies.values():
        if len(js) >= 2:
            cycles.append(js[:2])
        if len(js) >= 3:
            cycles.append(js)
    maps = []
    for cycle in cycles:
        pi = list(range(D + 1))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            for t in range(degrees[a]):
                pi[starts[a] + t] = starts[b] + t
        maps.append(pi)
    return maps


@lru_cache(maxsize=4096)
def _respectful_blocks(
    pattern: tuple[int, ...],
    degrees: tuple[int, ...],
    noncrossing: bool,
    sizes: frozenset[int],
    cap: int,
) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    """The partitions entering a lattice moment sum, one per orbit, as (the
    orbit's first partition, its size) pairs in restricted-growth order.

    The partitions respect the factor-interval partition of ``degrees`` and
    use only the block sizes in ``sizes`` (those carrying a nonzero
    cumulant); the orbits are those of :func:`_copy_maps` for the word
    ``pattern``.  Block sums are equal along an orbit, so the lattice sum
    takes one per orbit, times its size.  A partition is keyed by the
    integer whose field p holds the least position of p's block: the sum of
    its blocks' codes.  Each distinct block is coded once per map, so a
    partition's image key is a sum of lookups.
    """
    D = sum(degrees)
    filt = PartitionFilter(noncrossing=noncrossing, allowed_block_sizes=sizes, respects=_factor_layout(degrees))
    parts = tuple(enumerate_partitions(D, filt, cap))
    maps = _copy_maps(pattern, degrees, noncrossing) if len(parts) > 1 else []
    if not maps:
        return tuple((blocks, 1) for blocks in parts)
    field = [1 << p * D.bit_length() for p in range(D + 1)]

    def code(b) -> int:
        return min(b) * sum(map(field.__getitem__, b))

    def keys(coded: dict):
        return map(sum, map(map, itertools.repeat(coded.__getitem__), parts))

    distinct = dict.fromkeys(itertools.chain.from_iterable(parts))
    index = dict(zip(keys({b: code(b) for b in distinct}), itertools.count(1)))
    images = (keys({b: code(list(map(pi.__getitem__, b))) for b in distinct}) for pi in maps)
    links = (
        (i, j) for image in images for i, j in enumerate(map(index.__getitem__, image), 1) if i != j
    )
    return tuple((parts[c[0] - 1], len(c)) for c in _union_classes(len(parts), links))


def _cumulant_support(laws: Sequence[LawSpec], largest: int) -> frozenset[int]:
    """Block sizes up to ``largest`` with a nonzero cumulant under some law;
    a law holding fewer cumulants raises LawError."""
    sizes = set()
    for l in laws:
        for s in range(1, largest + 1):
            if l.cumulant(s) != 0:
                sizes.add(s)
    return frozenset(sizes)


def _block_sum(
    tables: Sequence[Mapping[tuple[int, ...], int]],
    degrees: Sequence[int],
    blocks: Sequence[Sequence[int]],
    choices: Sequence[Sequence[tuple[int, int]]],
) -> int:
    """The lattice index sum of one partition of the positions, in integers.

    Positions 1..D are laid out factor by factor (factor j holds
    ``degrees[j] >= 1`` of them) and ``blocks`` partitions them.  Block b may
    take the indices i of the pairs (i, w) in ``choices[b]``, with weight w.
    Sums, over every such map a from blocks to indices, the product of the
    weights times each factor's entry in ``tables`` at the indices a puts on
    its positions.

    Blocks are assigned depth first in the given order; with blocks ordered
    by their least position, the first factor's blocks come first.  A block's
    weight is multiplied in when the block is assigned, and a factor's entry
    as soon as its last block is, so a missing entry cuts off the whole
    subtree below it.  Zero weights are simply left out of ``choices``.  A
    factor whose last block holds two of its positions raises ValueError.
    """
    block_of = {}
    for bi, b in enumerate(blocks):
        for p in b:
            block_of[p] = bi
    # due[k]: the factors whose last block is k, each as (table, the blocks
    # on its positions before k, the blocks after k); k is keyed in between
    due: list[list] = [[] for _ in blocks]
    p = 1
    for table, d in zip(tables, degrees):
        slots = [block_of[q] for q in range(p, p + d)]
        p += d
        k = max(slots)
        if slots.count(k) > 1:
            raise ValueError("a factor's last block holds two of its positions")
        j = slots.index(k)
        due[k].append((table, slots[:j], slots[j + 1:]))
    last = len(blocks) - 1
    assign = [0] * len(blocks)

    def subtree(k: int) -> int:
        total = 0
        lookups = [
            (table, tuple([assign[s] for s in head]), tuple([assign[s] for s in tail]))
            for table, head, tail in due[k]
        ]
        for i, w in choices[k]:
            for table, head, tail in lookups:
                v = table.get(head + (i,) + tail)
                if not v:
                    break
                w *= v
            else:
                if k == last:
                    total += w
                else:
                    assign[k] = i
                    total += w * subtree(k + 1)
        return total

    return subtree(0)


def joint_moment(
    kernels: Sequence[Kernel],
    word: Sequence[int],
    law: LawSpec | Sequence[LawSpec],
    cap: int = DEFAULT_SIZE_CAP,
) -> Fraction:
    """Exact mixed moment E[Q_{w_1} Q_{w_2} ... ] (phi(...) in the free case).

    ``word`` lists kernel indices in product order; order matters for the
    free kind, where the sum runs over non-crossing partitions of the
    position set.  All kernels must vanish on diagonals and share n.
    """
    if not word:
        return Fraction(1)
    kernels = list(kernels)
    laws = (law,) if isinstance(law, LawSpec) else tuple(law)
    kind = laws[0].kind
    n = kernels[0].n
    for k in kernels:
        if k.n != n:
            raise KernelError("kernels must share the alphabet size")
        if not k.vanishes_on_diagonals:
            raise ValueError("joint moments require diagonal-vanishing kernels")
        if k.mode != "exact":
            raise ValueError("exact moments require exact-mode kernels")

    degrees = [kernels[s].d for s in word]
    D = sum(degrees)
    scalar = math.prod((kernels[s](()) for s, deg in zip(word, degrees) if deg == 0), start=Fraction(1))
    if D == 0:
        return scalar
    if D > cap:
        raise FeasibilityError(f"total degree {D} exceeds the partition cap {cap}")
    if scalar == 0:
        return Fraction(0)

    # a respectful block holds at most one position of each factor
    active = [s for s in word if kernels[s].d > 0]
    first: dict[int, int] = {}
    pattern = tuple(first.setdefault(s, len(first)) for s in active)
    sizes = _cumulant_support(laws, len(active))
    if not sizes:
        return Fraction(0)
    scaled = {s: _integer_scaled(kernels[s].values) for s in set(active)}
    tables = [scaled[s][0] for s in active]
    active_degrees = tuple(kernels[s].d for s in active)
    factor_den = math.prod(scaled[s][1] for s in active)
    index_laws = laws * n if len(laws) == 1 else laws
    rows = {}
    for size in sizes:
        row, den = _integer_scaled({i: l.cumulant(size) for i, l in enumerate(index_laws, 1)})
        rows[size] = ([(i, w) for i, w in row.items() if w], den)
    # integer sums keyed by their denominator, which only the block sizes set
    sums: dict[int, int] = {}
    for blocks, mult in _respectful_blocks(pattern, active_degrees, kind == "free", sizes, cap):
        den = factor_den
        for b in blocks:
            den *= rows[len(b)][1]
        part = _block_sum(tables, active_degrees, blocks, [rows[len(b)][0] for b in blocks])
        sums[den] = sums.get(den, 0) + mult * part
    return scalar * sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))


def moment_exact(spec: SumSpec, m: int, cap: int = DEFAULT_SIZE_CAP) -> Fraction:
    """m-th moment of Q via the partition-aggregated cumulant sum."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    return joint_moment([spec.kernel], (0,) * m, spec.law, cap)


@lru_cache(maxsize=32)
def _nc_blocks(D: int, min_block: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    sizes = None if min_block == 1 else range(min_block, D + 1)
    filt = PartitionFilter(noncrossing=True, allowed_block_sizes=sizes)
    return tuple(enumerate_partitions(D, filt, max(D, DEFAULT_SIZE_CAP)))


def _free_word_expectation(word, laws_for, centered, cache) -> Fraction:
    """phi(X_{w_1} ... X_{w_D}) = sum over non-crossing partitions whose blocks
    are word-constant of the per-block free cumulants."""
    D = len(word)
    canon: list[int] = []
    first: dict[int, int] = {}
    for v in word:
        canon.append(first.setdefault(v, len(first)))
    # the cache lives for one oracle call, whose spec keeps every law alive,
    # so a law's identity names it (hashing the law itself is much slower)
    key = (tuple(canon), tuple(id(laws_for(v)) for v in first))
    if key in cache:
        return cache[key]
    total = Fraction(0)
    for blocks in _nc_blocks(D, 2 if centered else 1):
        term = Fraction(1)
        for b in blocks:
            v0 = word[b[0] - 1]
            if any(word[p - 1] != v0 for p in b[1:]):
                term = Fraction(0)
                break
            term *= laws_for(v0).cumulant(len(b))
            if term == 0:
                break
        total += term
    cache[key] = total
    return total


def moment_oracle(spec: SumSpec, m: int) -> Fraction:
    """Brute-force m-th moment: expand Q^m over all support tuples and
    evaluate each word expectation directly."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    f = spec.kernel
    if f.mode != "exact":
        raise ValueError("the oracle is exact-only; convert the kernel first")
    if f.d == 0:
        return f(()) ** m
    support = list(f.values.items())
    if len(support) ** m > ORACLE_TUPLE_GUARD:
        raise FeasibilityError(
            f"{len(support)}^{m} expansion terms exceed the oracle guard {ORACLE_TUPLE_GUARD}"
        )
    kind = spec.kind
    if kind == "free" and f.d * m > DEFAULT_SIZE_CAP:
        raise FeasibilityError(
            f"free word length {f.d * m} exceeds the non-crossing enumeration cap"
        )
    centered = all(l.cumulant(1) == 0 for l in spec.laws())
    cache: dict = {}
    total = Fraction(0)
    for combo in itertools.product(support, repeat=m):
        coeff = Fraction(1)
        word: list[int] = []
        for idx, v in combo:
            coeff *= v
            word.extend(idx)
        if coeff == 0:
            continue
        if kind == "classical":
            counts: dict[int, int] = {}
            for v in word:
                counts[v] = counts.get(v, 0) + 1
            e = Fraction(1)
            for v, c in counts.items():
                e *= spec.law_at(v).moment(c)
                if e == 0:
                    break
        else:
            e = _free_word_expectation(tuple(word), spec.law_at, centered, cache)
        total += coeff * e
    return total


@lru_cache(maxsize=256)
def _diagram_weight(orders: tuple[int, ...], free: bool) -> int:
    """A :func:`wick_moment` block's weight: the joint (free, in this order)
    cumulant of P_{h_1}(X), ..., P_{h_k}(X), h = ``orders``, Hermite
    polynomials of a standard Gaussian or Chebyshev ones of a standard
    semicircular X.  It is the integer count of their connected diagrams,
    solved from the respectful pairing counts."""

    def moment(block: tuple[int, ...]) -> Fraction:
        hs = [orders[j - 1] for j in block]
        filt = PartitionFilter(noncrossing=free, allowed_block_sizes={2}, respects=_factor_layout(hs))
        return Fraction(count_partitions(sum(hs), filt, sum(hs)))

    return int(multivariate_cumulant(moment, len(orders), "free" if free else "classical", len(orders)))


def wick_moment(lk: LiftedKernel, m: int, mode: str, cap: int = DEFAULT_SIZE_CAP) -> Fraction:
    """m-th moment of the Gaussian (mode='classical') or semicircular
    (mode='free') functional attached to the lifted kernel: of the Hermite
    sum sum_i f(i) prod_t He_{h_t}(N_{i_t}), or of the Chebyshev sum over a
    free semicircular family.

    By the diagram formula (Peccati & Taqqu 2011; Kemp, Nourdin, Peccati &
    Speicher 2012) it is the lattice sum of :func:`joint_moment` for m
    copies of the base kernel, which must vanish on diagonals, with the
    weights of :func:`_diagram_weight` in place of a law's cumulants.  A
    connected diagram on k >= 3 vertices needs a vertex of order >= 2, so
    with every order 1 only pairs carry weight.
    """
    if mode not in ("classical", "free"):
        raise ValueError("mode must be 'classical' or 'free'")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    f = lk.base
    if f.mode != "exact":
        raise ValueError("exact moments require exact-mode kernels")
    if not f.vanishes_on_diagonals:
        raise ValueError("Wick moments require a diagonal-vanishing base kernel")
    M = lk.total_degree
    D = m * M
    if D == 0:
        return f(()) ** m
    if D % 2 == 1:
        return Fraction(0)
    if D > cap:
        raise FeasibilityError(f"lifted degree {D} exceeds the partition cap {cap}")

    free = mode == "free"
    table, den = _integer_scaled(f.values)
    orders = lk.orders * m  # the lift order at each position
    sizes = frozenset({2} if max(lk.orders) == 1 else range(2, m + 1))
    total = 0
    for blocks, mult in _respectful_blocks((0,) * m, (f.d,) * m, free, sizes, cap):
        # a block's signature: its positions' orders, sorted for the classical kind
        sigs = (tuple(orders[p - 1] for p in b) for b in blocks)
        weights = [_diagram_weight(s if free else tuple(sorted(s)), free) for s in sigs]
        if all(weights):
            choices = [[(i, w) for i in range(1, f.n + 1)] for w in weights]
            total += mult * _block_sum((table,) * m, (f.d,) * m, blocks, choices)
    return Fraction(total, den**m)


# ---------------------------------------------------------------------------
# fourth-moment decompositions


def _require_standard(law: LawSpec) -> None:
    """Refuse an entry law outside the fourth-moment identities: each needs it
    centered with unit variance and, in the classical kind, E[X^3] = 0."""
    if law.cumulant(1) != 0 or law.cumulant(2) != 1:
        raise AssumptionError(f"law {law.name} must be centered with unit variance")
    if law.kind == "classical" and law.moment(3) != 0:
        raise AssumptionError(f"the classical fourth-moment identities assume E[X^3] = 0 ({law.name})")


def _standard_fourth(g: Kernel, kind: str, cap: int) -> Fraction:
    """E[Q(g)^4] over standard Gaussian (classical kind) or standard
    semicircular (free kind) entries; g vanishes on diagonals.  Degrees 0 and 1
    are closed forms: g()^4, and Q(h) = sum_i h_i X_i is Gaussian (semicircular)
    with variance ||h||^2, so its fourth moment is 3 ||h||^4 (2 ||h||^4)."""
    if g.d == 0:
        return g(()) ** 4
    if g.d == 1:
        return (3 if kind == "classical" else 2) * g.norm_sq() ** 2
    law = gaussian(1, max_order=8) if kind == "classical" else semicircle(1, max_order=8)
    return moment_exact(SumSpec(g, law), 4, cap)


def _head_slices(g: Kernel, m: int) -> Iterator[Kernel]:
    """The nonzero slices g(j, .) at increasing heads j_1 < ... < j_m, from one
    grouping pass over g's entries."""
    for head, rest in _entries_by_head(g.values, m).items():
        if all(a < b for a, b in zip(head, head[1:])):
            yield Kernel(g.n, g.d - m, dict(rest), g.mode)


def _fourth_class_sums(f: Kernel, cap: int) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The classical class sums C_1..C_d of :func:`fourth_moment_formula` and
    their counts, for any diagonal-vanishing f: C_m takes the slices of the
    symmetrization g from :func:`_head_slices` and values them by
    :func:`_standard_fourth`."""
    d, (table, den) = f.d, _numerators(f)
    # g: the average of f over all d! orders of its arguments, in numerators over den * d!
    sums = {key: sum(vs) * (math.factorial(d) // _orbit_size(key)) for key, vs in _orbits(table.items()).items()}
    g = Kernel(f.n, d, _on_orbits(sums), f.mode)
    unit = Fraction(1, (den * math.factorial(d)) ** 4)
    terms, counts = [], []
    for m in range(1, d + 1):
        acc = sum(_standard_fourth(s, "classical", cap) for s in _head_slices(g, m))
        coeff = math.comb(d, m) ** 4 * math.factorial(m) ** 3
        terms.append(coeff * math.factorial(m) * acc * unit)
        counts.append(coeff * respectful_pairings(d - m, 4, cap=cap))
    return tuple(terms), tuple(counts)


def fourth_moment_formula(spec: SumSpec, cap: int = DEFAULT_SIZE_CAP) -> dict:
    """Decompose E[Q^4] into the Gaussian/semicircular part plus fourth-cumulant
    corrections.

    Free kind, for a fully symmetric f only (refused otherwise):
    phi(Q_Y^4) = phi(Q_S^4) + kappa_4(Y) * sum_k phi(Q_S(f(k,.))^4)
    (the respectful partitions with blocks of size 2 or 4 carry exactly one
    4-block); the slices f(k, .) come from :func:`_head_slices`.

    Classical kind: E[Q_X^4] = E[Q_N^4] + sum_{m=1..d} chi_4^m C_m.  C_m sums
    the respectful partitions of four copies of f's d positions into m blocks
    of size 4 and 2(d-m) of size 2; by the closed form (Nourdin, Peccati &
    Reinert 2010), with g the symmetrization of f,

        C_m = binom(d,m)^4 m!^4 sum_{j_1 < ... < j_m} E[Q_N(g(j,.))^4]

    over binom(d,m)^4 m!^3 |P2*((d-m)^{x4})| partitions (choose each copy's
    m positions in 4-blocks, match them across copies, pair the rest).  It
    holds for every f because Q(f) = Q(sym f), and it sums over index sets
    because each set occurs as m! ordered tuples with equal slices of g
    (:func:`_fourth_class_sums`).
    """
    if not spec.iid:
        raise AssumptionError(
            "the identity form needs i.i.d. entries; use the inequality report instead"
        )
    f = spec.kernel
    law = spec.law
    if f.d < 1:
        raise ValueError("degree must be >= 1")
    _require_standard(law)

    if spec.kind == "free":
        if not f.is_symmetric:
            raise AssumptionError("the free decomposition holds only for fully symmetric kernels")
        base = _standard_fourth(f, "free", cap)
        slice_sum = sum((_standard_fourth(s, "free", cap) for s in _head_slices(f, 1)), Fraction(0))
        kappa4 = law.cumulant(4)
        return {
            "kind": "free",
            "semicircular_term": base,
            "kappa4": kappa4,
            "slice_fourth_sum": slice_sum,
            "correction": kappa4 * slice_sum,
            "total": base + kappa4 * slice_sum,
        }

    chi4 = law.cumulant(4)
    base = _standard_fourth(f, "classical", cap)
    class_terms, class_counts = _fourth_class_sums(f, cap)
    return {
        "kind": "classical",
        "gaussian_term": base,
        "chi4": chi4,
        "class_terms": class_terms,
        "class_counts": class_counts,
        "total": base + sum(chi4**m * c for m, c in enumerate(class_terms, 1)),
    }


def fourth_moment_bound_non_iid(spec: SumSpec, cap: int = DEFAULT_SIZE_CAP) -> dict:
    """Lower bound for E[Q_X^4] - 3 Var^2 with independent, non-identically
    distributed entries (all centered, unit variance, vanishing third moment,
    nonnegative fourth cumulants).

    The i.i.d. identity becomes an inequality: with A = min over m and index
    tuples of the products of per-index fourth cumulants,

        E[Q_X^4] - 3 >= (E[Q_N^4] - 3) + A * sum_m C_m,

    where C_m are the class sums of :func:`fourth_moment_formula`.  The
    report carries both sides and the verdict.
    """
    if spec.iid:
        raise AssumptionError("use fourth_moment_formula for i.i.d. entries; this is the bound path")
    f = spec.kernel
    if spec.kind != "classical":
        raise AssumptionError("the non-i.i.d. bound is classical-only")
    for law in spec.laws():
        _require_standard(law)
        if law.cumulant(4) < 0:
            raise AssumptionError("the bound requires nonnegative fourth cumulants")
    lo = min(law.cumulant(4) for law in spec.laws())
    A = min(lo**m for m in range(1, f.d + 1))
    base = _standard_fourth(f, "classical", cap)
    class_sum = sum(_fourth_class_sums(f, cap)[0], Fraction(0))
    m4 = moment_exact(spec, 4, cap)
    var = moment_exact(spec, 2, cap)
    lower = (base - 3 * var**2) + A * class_sum
    return {
        "fourth_cumulant": m4 - 3 * var**2,
        "variance": var,
        "gaussian_fourth_cumulant": base - 3 * var**2,
        "A": A,
        "class_sum": class_sum,
        "lower_bound": lower,
        "holds": m4 - 3 * var**2 >= lower,
    }


def quadratic_fourth_moment_gap(f: Kernel, law_a: LawSpec, law_b: LawSpec) -> Fraction:
    """E[Q_A(f)^4] - E[Q_B(f)^4] for a diagonal-vanishing quadratic kernel,
    symmetric or not, and two classical laws that are centered with unit
    variance and E[X^3] = 0: by :func:`fourth_moment_formula` the Gaussian
    parts cancel, so the gap is sum_m (chi4_A^m - chi4_B^m) C_m over the class
    sums of :func:`_fourth_class_sums`.  At d = 2 every slice is a closed
    form, so the gap costs O(n^2) and serves the large-n trajectory
    experiments.
    """
    if f.d != 2 or not f.vanishes_on_diagonals:
        raise ValueError("the gap needs a quadratic kernel that vanishes on the diagonal")
    for law in (law_a, law_b):
        if law.kind != "classical":
            raise AssumptionError("the gap is classical-only")
        _require_standard(law)
    xa, xb = law_a.cumulant(4), law_b.cumulant(4)
    terms, _ = _fourth_class_sums(f, DEFAULT_SIZE_CAP)
    return sum(((xa**m - xb**m) * c for m, c in enumerate(terms, 1)), Fraction(0))


# ---------------------------------------------------------------------------
# criterion reports


def spec_fingerprint(spec: SumSpec) -> str:
    """Short stable hash identifying (kernel, laws); embedded in reports."""
    import hashlib

    from .kernels import kernel_to_json

    h = hashlib.sha256()
    h.update(kernel_to_json(spec.kernel).encode())
    for law in spec.laws():
        h.update(law.name.encode())
        h.update(repr(law.moments).encode())
    return h.hexdigest()[:16]


def fmt_report(spec: SumSpec, tolerance: Optional[Fraction] = None, cap: int = DEFAULT_SIZE_CAP) -> dict:
    """Fourth-moment-theorem diagnostic for a single homogeneous sum.

    Collects variance, third/fourth moments, the fourth cumulant of the sum,
    all contraction and star-contraction squared norms, the maximal
    influence, and boolean verdicts at the tolerance (exact zero by default
    in rational mode).
    """
    f = spec.kernel
    d = f.d
    tol = Fraction(0) if tolerance is None else Fraction(tolerance)
    variance = moment_exact(spec, 2, cap)
    m3 = moment_exact(spec, 3, cap)
    m4 = moment_exact(spec, 4, cap)
    if spec.kind == "classical":
        fourth_cum = m4 - 3 * variance**2
        target4 = 3 * variance**2
    else:
        fourth_cum = m4 - 2 * variance**2
        target4 = 2 * variance**2
    contr = {q: contraction(f, f, q).norm_sq() for q in range(1, d)}
    stars = {r: star_contraction(f, f, r).norm_sq() for r in range(1, d + 1)}
    infl = influence(f)
    tau = max(infl, default=Fraction(0))
    from .kernels import influence_first_slot

    infl_first = influence_first_slot(f)
    np_gap = max(contr.values(), default=Fraction(0))
    de_jong_gap = abs(m4 - target4)
    return {
        "spec_hash": spec_fingerprint(spec),
        "mode": f.mode,
        "cap": cap,
        "kind": spec.kind,
        "n": f.n,
        "d": d,
        "variance": variance,
        "third_moment": m3,
        "fourth_moment": m4,
        "fourth_cumulant": fourth_cum,
        "contraction_norms_sq": contr,
        "star_norms_sq": stars,
        "influence_normalization": "slot_summed (sum_i = d ||f||^2); first_slot sums to ||f||^2",
        "influences": infl,
        "influences_first_slot": infl_first,
        "tau_max": tau,
        "verdicts": {
            "np_contraction": {"gap": np_gap, "holds": np_gap <= tol},
            "de_jong": {
                "tau": tau,
                "fourth_gap": de_jong_gap,
                "holds": tau <= tol and de_jong_gap <= tol,
            },
        },
    }


def noncentral_report(spec: SumSpec, target: str, param, cap: int = DEFAULT_SIZE_CAP) -> dict:
    """Gamma / free-Poisson approximation diagnostic.

    target='gamma' (classical): statistic E[Q^4] - 12 E[Q^3] against
    12 nu^2 - 48 nu; target='free_poisson': phi(Q^4) - 2 phi(Q^3) against
    2 lambda^2 - lambda.  Requires even degree; reports the midpoint
    contraction diagnostic ||f contr_{d/2} f - f||^2 and the star norm
    ||f star_{d/2+1}^{d/2} f||^2.
    """
    f = spec.kernel
    d = f.d
    if d % 2 == 1:
        raise AssumptionError("non-central targets require even degree d")
    param = Fraction(param)
    m2 = moment_exact(spec, 2, cap)
    m3 = moment_exact(spec, 3, cap)
    m4 = moment_exact(spec, 4, cap)
    if target == "gamma":
        if spec.kind != "classical":
            raise AssumptionError("gamma target applies to classical sums")
        statistic = m4 - 12 * m3
        target_value = 12 * param**2 - 48 * param
    elif target == "free_poisson":
        if spec.kind != "free":
            raise AssumptionError("free_poisson target applies to free sums")
        statistic = m4 - 2 * m3
        target_value = 2 * param**2 - param
    else:
        raise ValueError("target must be 'gamma' or 'free_poisson'")
    half = d // 2
    midpoint = (contraction(f, f, half) - f).norm_sq()
    star_mid = star_contraction(f, f, half + 1).norm_sq() if half + 1 <= d else Fraction(0)
    off_norms = {
        q: contraction(f, f, q).norm_sq() for q in range(1, d) if q != half
    }
    return {
        "spec_hash": spec_fingerprint(spec),
        "mode": f.mode,
        "cap": cap,
        "kind": spec.kind,
        "target": target,
        "param": param,
        "variance": m2,
        "third_moment": m3,
        "fourth_moment": m4,
        "statistic": statistic,
        "target_value": target_value,
        "gap": statistic - target_value,
        "midpoint_norm_sq": midpoint,
        "star_midpoint_norm_sq": star_mid,
        "offdiagonal_contraction_norms_sq": off_norms,
    }


def stein_wasserstein_bound(
    spec: SumSpec,
    abs_third_moment: float,
    rosenthal_c3: float = 4.0,
    cap: int = DEFAULT_SIZE_CAP,
) -> dict:
    """Explicit Wasserstein bound for quadratic sums from the lambda-Stein pair.

    bound = sqrt(P1 * (E[Q^4] - 3) + 4 (m4 + 1) tau) / (2 sqrt(2 pi))
          + 4 R3 (E|X|^3)^2 sqrt(tau) / 3,
    with P1 = m4 E[(X^2+1)^2] + (m4+1)^2 and E[(X^2+1)^2] expanded through
    the law's moments.  R3 is a configured Rosenthal constant.  P1 and m4 are
    those of the one i.i.d. entry law; a per-index law list is refused, and so
    is a law that is not centered with unit variance and E[X^3] = 0.  E[Q^4] - 3
    is read as the fourth cumulant of Q, so the bound assumes Var(Q) = 1.
    """
    for name, value in (("abs_third_moment", abs_third_moment), ("rosenthal_c3", rosenthal_c3)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    f = spec.kernel
    if f.d != 2:
        raise AssumptionError("the Stein-pair bound is quadratic-only (d = 2)")
    if spec.kind != "classical" or not spec.iid:
        raise AssumptionError("the Stein-pair bound needs i.i.d. classical entries: one law, not a list")
    law = spec.law
    _require_standard(law)
    m4 = float(law.moment(4))
    ex2p1sq = float(law.moment(4) + 2 * law.moment(2) + 1)
    p1 = m4 * ex2p1sq + (m4 + 1.0) ** 2
    q4 = float(moment_exact(spec, 4, cap))
    tau = float(max(influence(f), default=Fraction(0)))
    excess = max(q4 - 3.0, 0.0)
    first = math.sqrt(p1 * excess + 4.0 * (m4 + 1.0) * tau) / (2.0 * math.sqrt(2.0 * math.pi))
    second = 4.0 * rosenthal_c3 * abs_third_moment**2 * math.sqrt(tau) / 3.0
    return {
        "bound": first + second,
        "fourth_moment": q4,
        "tau": tau,
        "p1": p1,
        "rosenthal_c3": rosenthal_c3,
    }

