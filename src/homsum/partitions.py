"""Set partitions and non-crossing partitions of [n] = {1, ..., n}.

A partition is the tuple of its canonical blocks (:class:`SetPartition`).
The moment engine and the CLI read the one enumeration,
:func:`enumerate_partitions`.  :func:`count_partitions` counts what it would
yield over the states of its walk, building no partition, so the Wick and
Wigner pairing counts, Riordan numbers and the chaos-law moments built from
them visit at most a few thousand states, not one per partition.  The size cap
guards the enumerations and counts only: the Moebius values are closed
forms.  Ground-set elements are 1-based throughout.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from . import DEFAULT_SIZE_CAP, record


class SizeCapError(ValueError):
    """Raised when an enumeration would exceed the configured ground-set cap."""


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise SizeCapError(
            f"ground set of size {n} exceeds the cap {cap}; "
            f"raise the cap explicitly if you really want this"
        )


class SetPartition(tuple):
    """A partition of [n] in canonical form: the tuple of its blocks.

    Canonical form: each block is an ascending tuple, blocks are sorted by
    their least element.  Construction through :meth:`from_blocks` (or
    :meth:`parse`) guarantees canonicity; the raw constructor
    ``SetPartition(blocks)`` trusts its input.  ``len`` counts the blocks.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return sum(map(len, self))

    @property
    def blocks(self) -> "SetPartition":
        return self

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
        return SetPartition(canon)

    @staticmethod
    def bottom(n: int) -> "SetPartition":
        return SetPartition((i,) for i in range(1, n + 1))

    @staticmethod
    def top(n: int) -> "SetPartition":
        return SetPartition((tuple(range(1, n + 1)),))

    @staticmethod
    def parse(text: str, n: Optional[int] = None) -> "SetPartition":
        """Parse the text form ``"1,2|3,4"``."""
        blocks = []
        for chunk in text.split("|"):
            blocks.append(tuple(int(tok) for tok in chunk.split(",") if tok.strip()))
        size = n if n is not None else max(max(b) for b in blocks)
        return SetPartition.from_blocks(size, blocks)

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in b) for b in self)

    @property
    def block_of(self) -> dict[int, int]:
        return _block_index_cached(self)

    def partition_class(self) -> tuple[int, ...]:
        """Block-size census as a descending integer partition of n."""
        return tuple(sorted(map(len, self), reverse=True))

    def is_noncrossing(self) -> bool:
        blk = self.block_of
        stack: list[int] = []
        for x in range(1, self.n + 1):
            b = blk[x]
            block = self[b]
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
        for b in self:
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


def interval_partition(block_size: int, num_blocks: int) -> SetPartition:
    """The interval partition d^(x)m: num_blocks consecutive blocks of block_size."""
    return _factor_layout((block_size,) * num_blocks)


def _factor_layout(degrees: Sequence[int]) -> SetPartition:
    """Interval partition of the positions 1..sum(degrees) into one block per
    factor.  Zero-degree factors contribute no positions."""
    starts = list(itertools.accumulate(degrees, initial=1))
    return SetPartition(tuple(range(a, b)) for a, b in zip(starts, starts[1:]) if b > a)


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


@record
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

    One iterative restricted-growth walk places 1, ..., n in turn: element x
    joins an existing block, tried by least element, or opens a new block
    last.  Each step does O(1) bookkeeping:

    * a running deficit (the elements the blocks still lack to reach the least
      allowed size) prunes a state as soon as it exceeds the elements left;
    * each block holds a bitmask of the ``respects`` classes in it, so x may
      join it only if the bit of x's class is clear;
    * under ``noncrossing`` a stack holds the blocks that may still grow, by
      least element: x may join only a block on the stack, and joining one
      closes (pops) the blocks above it, which come back on backtrack.  A
      closed block whose size is not allowed can never be completed, so a
      join that would close one is skipped;
    * a running count of the blocks whose current size is not allowed makes
      the leaf test ``bad == 0``.

    Pruning removes only subtrees without a leaf, so the order is that of the
    unpruned walk.  An empty size set yields nothing.  The checks on n, the
    cap and ``respects`` run at the first iteration.
    """
    return map(SetPartition, _walk(n, filt, cap))


def _walk(n: int, filt: PartitionFilter, cap: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The walk of :func:`enumerate_partitions`, yielding canonical block tuples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n, cap)
    star = filt.respects
    if star is not None and star.n != n:
        raise ValueError("respects-partition ground set does not match n")
    sizes = filt.allowed_block_sizes
    if sizes is not None and not sizes:
        return
    lo, hi = (min(sizes), max(sizes)) if sizes is not None else (1, n)
    opened = max(lo - 1, 0)  # the deficit of a new block
    notok = [sizes is not None and k not in sizes for k in range(n + 2)]
    if star is None:
        bit = [0] * (n + 1)
    else:
        star_of = star.block_of
        bit = [0] + [1 << star_of[x] for x in range(1, n + 1)]
    nc = filt.noncrossing

    blocks: list[list[int]] = []
    masks: list[int] = []  # the star classes in each block, one bit each
    below: list[int] = []  # noncrossing: the bad blocks under each block on the stack
    stack: list[int] = []  # the blocks that may still grow, by least element
    chosen = [0] * (n + 1)  # the stack position x joined, -1 if x opened a block
    closed: list = [None] * (n + 1)  # noncrossing: the blocks popped when x joined
    deficit = bad = 0
    x, i = 1, 0  # place x, trying the stack from position i
    while True:
        if x <= n:
            left = n - x
            bx = bit[x]
            top = len(stack)
            placed = False
            while i < top:
                b = stack[i]
                blk = blocks[b]
                k = len(blk)
                if (
                    k < hi
                    and not masks[b] & bx
                    and deficit - (k < lo) <= left
                    and (not nc or bad == below[b] + notok[k])
                ):
                    if nc:
                        closed[x] = stack[i + 1:]
                        del stack[i + 1:]
                    blk.append(x)
                    masks[b] |= bx
                    deficit -= k < lo
                    bad += notok[k + 1] - notok[k]
                    chosen[x] = i
                    placed = True
                    break
                i += 1
            if not placed and deficit + opened <= left:
                stack.append(len(blocks))
                blocks.append([x])
                masks.append(bx)
                below.append(bad)
                deficit += opened
                bad += notok[1]
                chosen[x] = -1
                placed = True
            if placed:
                x, i = x + 1, 0
                continue
        elif not bad:
            yield tuple(map(tuple, blocks))
        # undo the latest placements until one has a next candidate
        while True:
            x -= 1
            if not x:
                return
            i = chosen[x]
            if i < 0:
                stack.pop()
                blocks.pop()
                masks.pop()
                below.pop()
                deficit -= opened
                bad -= notok[1]
                continue
            b = stack[i]
            blk = blocks[b]
            blk.pop()
            k = len(blk)
            masks[b] ^= bit[x]
            deficit += k < lo
            bad -= notok[k + 1] - notok[k]
            if nc:
                stack += closed[x]
            i += 1
            break


def count_partitions(n: int, filt: PartitionFilter = PartitionFilter(), cap: int = DEFAULT_SIZE_CAP) -> int:
    """The number of partitions :func:`enumerate_partitions` yields, counted
    over the walk's states without building a block tuple.

    Once 1, ..., x - 1 are placed, the walk's future depends only on each
    block that may still grow: its size and the ``respects`` classes it holds
    that still have elements to come.  So one pass over x = 1, ..., n keeps
    a dict from each such state to the number of walks into it, and makes
    the walk's moves from every state at once.  Under the classical kind the
    state is a sorted multiset, so each distinct block type is joined once,
    times its multiplicity; under ``noncrossing`` it is the stack in order,
    and a join closes the blocks above it, which must have allowed sizes.  A
    block that reaches the greatest allowed size <= n can take nothing more
    and is dropped; when every size from some t up to n is allowed, the
    sizes >= t are one state; and the walk's deficit prune is kept.  The
    dicts live for one call.  The checks and their errors are the walk's, in
    its order; an empty size set counts 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n, cap)
    star = filt.respects
    if star is not None and star.n != n:
        raise ValueError("respects-partition ground set does not match n")
    sizes = filt.allowed_block_sizes
    ok = [sizes is None or k in sizes for k in range(n + 1)]
    allowed = [k for k in range(1, n + 1) if ok[k]]
    if not allowed:
        return 0
    lo, full = allowed[0], allowed[-1]
    top = n + 1  # the sizes from top to n are all allowed
    while top > 1 and ok[top - 1]:
        top -= 1
    # the size class of a block of class k after it takes one more element, None when full
    grown = [None if k + 1 == full else min(k + 1, top) for k in range(n + 1)]
    opened = grown[0]
    bit = [0] * (n + 1)
    live = [0] * (n + 1)  # the classes with an element after x
    if star is not None:
        for c, block in enumerate(star):
            for x in block:
                bit[x] = 1 << c
            for x in range(1, block[-1]):
                live[x] |= 1 << c
    nc = filt.noncrossing
    ways = {(): 1}  # each state after 1, ..., x - 1 are placed: the number of walks into it

    def add(after: list, times: int) -> None:
        # file a move into the states after x, those of nxt with left elements to come
        if sum(lo - k for k, _ in after if k < lo) <= left:
            key = tuple(after) if nc else tuple(sorted(after))
            nxt[key] = nxt.get(key, 0) + times

    for x in range(1, n + 1):
        bx, keep, left = bit[x], live[x], n - x
        nxt: dict = {}
        for state, w in ways.items():
            rest = [(k, m & keep) for k, m in state]
            add(rest if opened is None else rest + [(opened, bx & keep)], w)
            if nc:
                for i in range(len(state) - 1, -1, -1):
                    k, m = state[i]
                    if not m & bx:
                        after = rest[:i]
                        if grown[k] is not None:
                            after.append((grown[k], (m | bx) & keep))
                        add(after, w)
                    if not ok[k]:  # a join below would close this block
                        break
            else:
                for i, (k, m) in enumerate(state):
                    if m & bx or (i and state[i - 1] == state[i]):
                        continue
                    after = rest[:i] + rest[i + 1:]
                    if grown[k] is not None:
                        after.append((grown[k], (m | bx) & keep))
                    add(after, w * state.count(state[i]))
        ways = nxt
    return sum(w for state, w in ways.items() if all(ok[k] for k, _ in state))


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

