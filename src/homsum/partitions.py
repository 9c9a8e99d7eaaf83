"""Set partitions and non-crossing partitions of [n] = {1, ..., n}.

The lattice moment engine, Wick sums, respectful pairing counts and joint
cumulants run on the enumeration and Moebius machinery in this module.  The
size cap guards the enumerations only: the Moebius values are closed forms.
Ground-set elements are 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

DEFAULT_SIZE_CAP = 14


class SizeCapError(ValueError):
    """Raised when an enumeration would exceed the configured ground-set cap."""


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise SizeCapError(
            f"ground set of size {n} exceeds the cap {cap}; "
            f"raise the cap explicitly if you really want this"
        )


@dataclass(frozen=True)
class SetPartition:
    """A partition of [n] in canonical form.

    Canonical form: each block is an ascending tuple, blocks are sorted by
    their least element.  Construction through :meth:`from_blocks` (or
    :func:`kernel_of` etc.) guarantees canonicity; the raw constructor
    trusts its input.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(n: int, blocks) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: set[int] = set()
        for b in canon:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not (1 <= x <= n):
                    raise ValueError(f"element {x} out of range [1, {n}]")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if len(seen) != n:
            raise ValueError("blocks do not cover the ground set")
        return SetPartition(n, canon)

    @staticmethod
    def bottom(n: int) -> "SetPartition":
        return SetPartition(n, tuple((i,) for i in range(1, n + 1)))

    @staticmethod
    def top(n: int) -> "SetPartition":
        return SetPartition(n, (tuple(range(1, n + 1)),))

    @staticmethod
    def parse(text: str, n: Optional[int] = None) -> "SetPartition":
        """Parse the text form ``"1,2|3,4"``."""
        blocks = []
        for chunk in text.split("|"):
            blocks.append(tuple(int(tok) for tok in chunk.split(",") if tok.strip()))
        size = n if n is not None else max(max(b) for b in blocks)
        return SetPartition.from_blocks(size, blocks)

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def block_of(self) -> dict[int, int]:
        return _block_index(self)

    def partition_class(self) -> tuple[int, ...]:
        """Block-size census as a descending integer partition of n."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def is_noncrossing(self) -> bool:
        blk = self.block_of
        stack: list[int] = []
        for x in range(1, self.n + 1):
            b = blk[x]
            block = self.blocks[b]
            if x == block[0]:
                stack.append(b)
            if stack[-1] != b:
                return False
            if x == block[-1]:
                stack.pop()
        return True

    def respects(self, pi_star: "SetPartition") -> bool:
        """True when self /\\ pi_star is the bottom partition."""
        star = pi_star.block_of
        for b in self.blocks:
            seen: set[int] = set()
            for x in b:
                s = star[x]
                if s in seen:
                    return False
                seen.add(s)
        return True


@lru_cache(maxsize=65536)
def _block_index_cached(blocks: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, b in enumerate(blocks):
        for x in b:
            out[x] = i
    return out


def _block_index(p: SetPartition) -> dict[int, int]:
    return _block_index_cached(p.blocks)


def interval_partition(block_size: int, num_blocks: int) -> SetPartition:
    """The interval partition d^(x)m: num_blocks consecutive blocks of block_size."""
    blocks = tuple(
        tuple(range(l * block_size + 1, (l + 1) * block_size + 1)) for l in range(num_blocks)
    )
    return SetPartition(block_size * num_blocks, blocks)


def kernel_of(indices) -> SetPartition:
    """Partition of positions: p ~ q iff indices[p] == indices[q]."""
    seq = tuple(indices)
    if not seq:
        raise ValueError("empty index sequence")
    first_pos: dict = {}
    groups: list[list[int]] = []
    for pos, v in enumerate(seq, start=1):
        if v in first_pos:
            groups[first_pos[v]].append(pos)
        else:
            first_pos[v] = len(groups)
            groups.append([pos])
    return SetPartition(len(seq), tuple(tuple(g) for g in groups))


def lattice_meet(sigma: SetPartition, pi: SetPartition) -> SetPartition:
    if sigma.n != pi.n:
        raise ValueError("ground-set sizes differ")
    pb = pi.block_of
    blocks = []
    for b in sigma.blocks:
        groups: dict[int, list[int]] = {}
        for x in b:
            groups.setdefault(pb[x], []).append(x)
        blocks.extend(tuple(g) for g in groups.values())
    return SetPartition.from_blocks(sigma.n, blocks)


def _union_classes(n: int, links) -> list[list[int]]:
    """Classes of [n] under the equivalence generated by the pairs ``links``:
    each class ascending, classes ordered by their least element."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def lattice_join(sigma: SetPartition, pi: SetPartition) -> SetPartition:
    if sigma.n != pi.n:
        raise ValueError("ground-set sizes differ")
    links = ((b[0], x) for b in sigma.blocks + pi.blocks for x in b[1:])
    return SetPartition.from_blocks(sigma.n, _union_classes(sigma.n, links))


@dataclass(frozen=True)
class PartitionFilter:
    """Filter clauses for :func:`enumerate_partitions`; all active clauses must hold.

    ``allowed_block_sizes`` is the set of block sizes a partition may use:
    ``None`` allows every size and an empty set allows none.  A lower bound k
    on the sizes is ``range(k, n + 1)``.  ``respects`` asks that no block holds
    two elements of one block of the given partition of [n].
    """

    noncrossing: bool = False
    allowed_block_sizes: Optional[frozenset[int]] = None
    respects: Optional[SetPartition] = None

    def __post_init__(self):
        if self.allowed_block_sizes is not None:
            object.__setattr__(self, "allowed_block_sizes", frozenset(self.allowed_block_sizes))


def enumerate_partitions(
    n: int,
    filt: PartitionFilter = PartitionFilter(),
    cap: int = DEFAULT_SIZE_CAP,
) -> Iterator[SetPartition]:
    """All partitions of [n] passing the filter, in restricted-growth order.

    Generation proceeds element by element (a restricted-growth walk).  The
    least and greatest allowed block sizes, the respectful and the
    non-crossing clauses prune partial states, so that, e.g., pairings of [12]
    never touch the full Bell(12) tree; each leaf is then checked against the
    allowed sizes.  An empty size set yields nothing at once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n, cap)
    if filt.respects is not None and filt.respects.n != n:
        raise ValueError("respects-partition ground set does not match n")

    sizes = filt.allowed_block_sizes
    if sizes is not None and not sizes:
        return
    size_lo, size_hi = (min(sizes), max(sizes)) if sizes is not None else (1, n)
    star = filt.respects.block_of if filt.respects is not None else None
    blocks: list[list[int]] = []

    def crossing(target: list[int], x: int) -> bool:
        # adding x to target crosses iff some other block straddles an element of target
        for other in blocks:
            if other is target:
                continue
            omin, omax = other[0], other[-1]
            for j in target:
                if omin < j < omax:
                    return True
        return False

    def rec(x: int) -> Iterator[SetPartition]:
        if x > n:
            if sizes is None or all(len(b) in sizes for b in blocks):
                yield SetPartition(n, tuple(tuple(b) for b in blocks))
            return
        remaining = n - x + 1
        for b in blocks:
            if len(b) >= size_hi:
                continue
            if star is not None and any(star[y] == star[x] for y in b):
                continue
            if filt.noncrossing and crossing(b, x):
                continue
            b.append(x)
            deficit = sum(max(size_lo - len(bb), 0) for bb in blocks)
            if deficit <= remaining - 1:
                yield from rec(x + 1)
            b.pop()
        blocks.append([x])
        deficit = sum(max(size_lo - len(bb), 0) for bb in blocks)
        if deficit <= remaining - 1:
            yield from rec(x + 1)
        blocks.pop()

    yield from rec(1)


def count_partitions(n: int, filt: PartitionFilter = PartitionFilter(), cap: int = DEFAULT_SIZE_CAP) -> int:
    return sum(1 for _ in enumerate_partitions(n, filt, cap))


def coarsenings(sigma: SetPartition, noncrossing: bool = False) -> Iterator[SetPartition]:
    """All partitions tau >= sigma (merging whole blocks); optionally non-crossing only."""
    b = len(sigma.blocks)
    for merge in enumerate_partitions(b):
        blocks = []
        for group in merge.blocks:
            merged: list[int] = []
            for i in group:
                merged.extend(sigma.blocks[i - 1])
            blocks.append(sorted(merged))
        tau = SetPartition.from_blocks(sigma.n, blocks)
        if noncrossing and not tau.is_noncrossing():
            continue
        yield tau


def moebius_to_top(sigma: SetPartition, mode: str = "classical") -> Fraction:
    """Moebius value mu(sigma, 1) in the full partition lattice or in NC([n]).

    Classical values come from the closed form (-1)^(b-1) (b-1)!; the
    non-crossing values from the Kreweras form: the product over the blocks V
    of K(sigma) = sigma^{-1} gamma, gamma = (1 2 ... n), of
    (-1)^(|V|-1) Cat_{|V|-1}.  Both take O(n) steps and enumerate nothing, so
    no size cap applies.
    """
    if mode == "classical":
        b = len(sigma.blocks)
        return Fraction((-1) ** (b - 1) * math.factorial(b - 1))
    if mode != "noncrossing":
        raise ValueError("mode must be 'classical' or 'noncrossing'")
    if not sigma.is_noncrossing():
        raise ValueError("sigma is not non-crossing")
    # sigma as a permutation: each block is one cycle, in increasing order
    n = sigma.n
    sigma_inv = {b[i]: b[i - 1] for b in sigma.blocks for i in range(len(b))}
    seen = [False] * (n + 1)
    out = 1
    for start in range(1, n + 1):
        size = 0
        x = start
        while not seen[x]:
            seen[x] = True
            size += 1
            x = sigma_inv[x % n + 1]
        if size:
            out *= (-1) ** (size - 1) * catalan(size - 1)
    return Fraction(out)


def catalan(k: int) -> int:
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def double_factorial(n: int) -> int:
    if n < -1:
        raise ValueError("n must be >= -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def riordan(m: int, cap: int = DEFAULT_SIZE_CAP) -> int:
    """Number of non-crossing partitions of [m] with no singleton block."""
    if m == 0:
        return 1
    _check_cap(m, cap)
    no_singletons = PartitionFilter(noncrossing=True, allowed_block_sizes=range(2, m + 1))
    return count_partitions(m, no_singletons, cap)


def respectful_pairings(d: int, m: int, mode: str = "classical", cap: int = DEFAULT_SIZE_CAP) -> int:
    """|P2*(d^(x)m)| or |NC2*(d^(x)m)|: pairings of [d*m] respecting the interval partition."""
    total = d * m
    if total % 2 == 1:
        return 0
    if total == 0:
        return 1
    star = interval_partition(d, m)
    filt = PartitionFilter(
        noncrossing=(mode == "noncrossing"),
        allowed_block_sizes=frozenset({2}),
        respects=star,
    )
    return count_partitions(total, filt, cap)

