import math
import random
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsum.partitions import (
    DEFAULT_SIZE_CAP,
    PartitionFilter,
    SetPartition,
    SizeCapError,
    catalan,
    count_partitions,
    double_factorial,
    enumerate_partitions,
    _check_cap,
    _walk,
    interval_partition,
    lattice_join,
    lattice_meet,
    moebius_to_top,
    respectful_pairings,
    riordan,
)

from conftest import kernel_of


def parts(n, **kw):
    return list(enumerate_partitions(n, PartitionFilter(**kw)))


def test_meet_join_worked_example():
    sigma = SetPartition.parse("1,2,3|6,7,8|4,5")
    pi = SetPartition.parse("1,2|3,4,5|6|7,8")
    assert str(lattice_meet(sigma, pi)) == "1,2|3|4,5|6|7,8"
    assert str(lattice_join(sigma, pi)) == "1,2,3,4,5|6,7,8"


def test_lattice_bounds_and_idempotence():
    sigma = SetPartition.parse("1,3|2,4", n=4)
    assert lattice_meet(sigma, SetPartition.bottom(4)) == SetPartition.bottom(4)
    assert lattice_join(sigma, SetPartition.top(4)) == SetPartition.top(4)
    assert lattice_meet(sigma, sigma) == sigma
    assert lattice_join(sigma, sigma) == sigma


def test_kernel_of():
    assert str(kernel_of((3, 7, 3))) == "1,3|2"
    assert kernel_of((5, 5, 5)) == SetPartition.top(3)
    assert kernel_of((1, 2, 3, 4)) == SetPartition.bottom(4)


def test_enumeration_counts():
    assert len(parts(4, allowed_block_sizes={2})) == 3
    assert len(parts(6, allowed_block_sizes={2}, noncrossing=True)) == 5
    assert len(parts(4, noncrossing=True, allowed_block_sizes=range(2, 5))) == 3
    # respecting the bottom partition imposes nothing
    assert len(parts(4, allowed_block_sizes={2}, respects=SetPartition.bottom(4))) == 3
    # Bell and Catalan totals
    assert count_partitions(5) == 52
    assert count_partitions(6, PartitionFilter(noncrossing=True)) == catalan(6)


def test_no_singleton_noncrossing_of_4():
    got = {str(p) for p in parts(4, noncrossing=True, allowed_block_sizes=range(2, 5))}
    assert got == {"1,2,3,4", "1,2|3,4", "1,4|2,3"}


def test_enumeration_order_is_deterministic():
    first = [str(p) for p in parts(5)]
    second = [str(p) for p in parts(5)]
    assert first == second
    assert first[0] == "1,2,3,4,5"
    assert first[-1] == "1|2|3|4|5"


def test_size_cap():
    with pytest.raises(SizeCapError):
        list(enumerate_partitions(15))
    # overridable
    assert count_partitions(15, PartitionFilter(allowed_block_sizes={15}), cap=15) == 1


def test_size_range_equals_the_post_filtered_walk():
    # a lower bound lo on the block sizes is the size set range(lo, n + 1):
    # same partitions, same order as filtering the unrestricted walk
    for n in range(1, 9):
        star = kernel_of([i % 3 for i in range(n)])
        for noncrossing in (False, True):
            for respects in (None, star):
                walk = parts(n, noncrossing=noncrossing, respects=respects)
                for lo in (1, 2, 3):
                    want = [p for p in walk if min(len(b) for b in p.blocks) >= lo]
                    got = parts(n, noncrossing=noncrossing, respects=respects,
                                allowed_block_sizes=range(lo, n + 1))
                    assert got == want


def test_empty_size_set_yields_nothing():
    for n in range(1, 7):
        assert parts(n, allowed_block_sizes=()) == []
        assert parts(n, allowed_block_sizes=range(n + 1, n + 3), noncrossing=True) == []
    # an empty set counts 0 without a state
    assert count_partitions(14, PartitionFilter(allowed_block_sizes=frozenset())) == 0


def _recursive_walk(
    n: int,
    filt: PartitionFilter = PartitionFilter(),
    cap: int = DEFAULT_SIZE_CAP,
) -> Iterator[SetPartition]:
    # the recursive generator enumerate_partitions ran on before the
    # iterative walk, kept verbatim as the referee of its output and order
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
                yield SetPartition(tuple(tuple(b) for b in blocks))
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


def _filters(n):
    """Every filter built from the three clauses that the walk is checked on at n."""
    size_sets = [None, frozenset(), {1}, {2}, {3}, {2, 4}, {1, 3}, range(2, n + 1),
                 {3, n + 1}, {n + 1, n + 2}]
    stars = [None, SetPartition.bottom(n)]
    stars += [interval_partition(d, n // d) for d in range(1, n + 1) if n % d == 0]
    stars.append(kernel_of([i % 3 for i in range(n)]))  # not an interval partition from n = 4 on
    stars = list(dict.fromkeys(stars))
    for noncrossing in (False, True):
        for sizes in size_sets:
            for star in stars:
                yield PartitionFilter(noncrossing, sizes, star)


def test_walk_equals_the_recursive_walk_in_order():
    for n in range(1, 10):
        for filt in _filters(n):
            got = list(enumerate_partitions(n, filt))
            assert got == list(_recursive_walk(n, filt)), (n, filt)
            assert count_partitions(n, filt) == len(got)
            sizes = filt.allowed_block_sizes
            for p in got:
                assert p == SetPartition.from_blocks(n, p.blocks)
                if filt.noncrossing:
                    assert p.is_noncrossing()
                if filt.respects is not None:
                    assert p.respects(filt.respects)
                if sizes is not None:
                    assert all(len(b) in sizes for b in p.blocks)


def test_a_partition_is_its_block_tuple():
    for n in range(1, 8):
        for p, blocks in zip(enumerate_partitions(n), _walk(n, PartitionFilter(), DEFAULT_SIZE_CAP)):
            assert type(p) is SetPartition and p == blocks and hash(p) == hash(blocks)
            q = SetPartition.from_blocks(n, reversed(blocks))
            assert q == p and hash(q) == hash(p)
            text = "|".join(",".join(map(str, b)) for b in blocks)
            assert (p.n, p.blocks, len(p), str(p)) == (q.n, q.blocks, len(q), str(q)) == (n, blocks, len(blocks), text)
    assert SetPartition.parse("1,3|2").n == 3 and len(SetPartition.top(5)) == 1


def test_walk_errors_at_the_first_iteration():
    bad_inputs = [
        (0, PartitionFilter(), DEFAULT_SIZE_CAP, ValueError),
        (-3, PartitionFilter(allowed_block_sizes={2}), DEFAULT_SIZE_CAP, ValueError),
        (15, PartitionFilter(), DEFAULT_SIZE_CAP, SizeCapError),
        (6, PartitionFilter(noncrossing=True), 5, SizeCapError),
        (4, PartitionFilter(respects=SetPartition.bottom(3)), DEFAULT_SIZE_CAP, ValueError),
        (4, PartitionFilter(allowed_block_sizes=frozenset(), respects=SetPartition.bottom(5)),
         DEFAULT_SIZE_CAP, ValueError),
    ]
    for n, filt, cap, error in bad_inputs:
        gen = enumerate_partitions(n, filt, cap)  # nothing is checked before the first step
        with pytest.raises(error) as got:
            next(gen)
        with pytest.raises(error) as want:
            next(_recursive_walk(n, filt, cap))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        with pytest.raises(error, match=str(want.value)):
            count_partitions(n, filt, cap)
    with pytest.raises(ValueError):
        riordan(-1)
    with pytest.raises(SizeCapError):
        riordan(15)
    with pytest.raises(SizeCapError):
        riordan(6, cap=5)
    with pytest.raises(ValueError):
        respectful_pairings(-1, 2)
    with pytest.raises(SizeCapError):
        respectful_pairings(4, 4)
    with pytest.raises(SizeCapError):
        respectful_pairings(2, 3, "noncrossing", cap=5)
    # an empty size set yields nothing, under every other clause
    for n in (1, 5, 14):
        for filt in (PartitionFilter(allowed_block_sizes=()),
                     PartitionFilter(True, frozenset(), SetPartition.top(n))):
            assert list(enumerate_partitions(n, filt)) == []
            assert count_partitions(n, filt) == 0


def test_count_equals_the_walk_on_a_seeded_grid():
    # the count never walks, so the number of walk leaves referees it on
    # random filters: both kinds, size sets with sizes above n and the empty
    # set, random respects partitions
    rnd = random.Random(20)
    for _ in range(600):
        n = rnd.randint(1, 9)
        noncrossing = rnd.random() < 0.5
        r = rnd.random()
        if r < 0.15:
            sizes = None
        elif r < 0.2:
            sizes = frozenset()
        else:
            sizes = frozenset(rnd.sample(range(1, n + 4), rnd.randint(1, 4)))
        star = None
        if rnd.random() < 0.7:
            star = kernel_of([rnd.randrange(rnd.randint(1, n)) for _ in range(n)])
        filt = PartitionFilter(noncrossing, sizes, star)
        assert count_partitions(n, filt) == sum(1 for _ in _walk(n, filt, DEFAULT_SIZE_CAP)), (n, filt)


def test_counts_at_the_cap_equal_closed_forms(monkeypatch):
    import homsum.partitions as P

    def refuse(*args):
        raise AssertionError("a count walked")

    monkeypatch.setattr(P, "_walk", refuse)
    monkeypatch.setattr(P, "enumerate_partitions", refuse)
    n = DEFAULT_SIZE_CAP
    row = [1]  # the Bell triangle: each row starts with the end of the last
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    riordan_seq = [1, 0]  # (m + 1) R(m) = (m - 1) (2 R(m - 1) + 3 R(m - 2))
    for m in range(2, n + 1):
        riordan_seq.append((m - 1) * (2 * riordan_seq[-1] + 3 * riordan_seq[-2]) // (m + 1))
    assert row[-1] == 190899322 and riordan_seq[-1] == 30537
    assert count_partitions(n) == row[-1]
    assert count_partitions(n, PartitionFilter(noncrossing=True)) == math.comb(2 * n, n) // (n + 1)
    assert count_partitions(n, PartitionFilter(allowed_block_sizes={2})) == math.prod(range(1, n, 2))
    assert riordan(n) == riordan_seq[-1]


def test_count_raises_the_walks_errors_in_its_order():
    # each input breaks two or three checks; the count must report the one
    # the walk reports first
    star3, star5 = SetPartition.bottom(3), SetPartition.bottom(5)
    inputs = [
        (0, PartitionFilter(), -1),
        (-2, PartitionFilter(respects=star3), DEFAULT_SIZE_CAP),
        (15, PartitionFilter(respects=star3), DEFAULT_SIZE_CAP),
        (6, PartitionFilter(True, frozenset(), star5), 5),
        (4, PartitionFilter(True, frozenset(), star5), DEFAULT_SIZE_CAP),
        (4, PartitionFilter(False, {9}, star3), DEFAULT_SIZE_CAP),
    ]
    for n, filt, cap in inputs:
        with pytest.raises(ValueError) as want:
            next(_walk(n, filt, cap))
        with pytest.raises(ValueError) as got:
            count_partitions(n, filt, cap)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), (n, filt, cap)


def test_respects_matches_meet_definition():
    star = interval_partition(2, 2)
    for p in parts(4):
        assert p.respects(star) == (lattice_meet(p, star) == SetPartition.bottom(4))


def test_kernel_respects_iff_blockwise_distinct():
    # kernel_of(t) /\ pi* = bottom iff t is injective inside each pi*-block,
    # brute force over all tuples for n <= 4, d <= 3
    import itertools

    for n in (2, 3, 4):
        for d, m in ((2, 2), (2, 3), (3, 2)):
            star = interval_partition(d, m)
            for t in itertools.product(range(1, n + 1), repeat=d * m):
                ker = kernel_of(t)
                blockwise = all(
                    len({t[p - 1] for p in b}) == len(b) for b in star.blocks
                )
                assert ker.respects(star) == blockwise
                assert ker.respects(star) == (
                    lattice_meet(ker, star) == SetPartition.bottom(d * m)
                )


def test_moebius_classical():
    assert moebius_to_top(SetPartition.bottom(3)) == 2
    assert moebius_to_top(SetPartition.top(7)) == 1
    for n in range(1, 6):
        b = SetPartition.bottom(n)
        assert moebius_to_top(b) == (-1) ** (n - 1) * math.factorial(n - 1)


def test_moebius_noncrossing_bottom_is_signed_catalan():
    for n in range(1, 6):
        got = moebius_to_top(SetPartition.bottom(n), "noncrossing")
        assert got == (-1) ** (n - 1) * catalan(n - 1)


def test_moebius_is_not_bounded_by_the_size_cap():
    # both forms are closed-form, so a ground set past the cap is no work
    bottom = SetPartition.bottom(20)
    assert moebius_to_top(bottom) == (-1) ** 19 * math.factorial(19)
    assert moebius_to_top(bottom, "noncrossing") == (-1) ** 19 * catalan(19)


def test_moebius_requires_noncrossing_argument():
    crossing = SetPartition.from_blocks(4, [(1, 3), (2, 4)])
    with pytest.raises(ValueError):
        moebius_to_top(crossing, "noncrossing")


@pytest.mark.parametrize("n", range(1, 7))
def test_moebius_inversion_identity(n, coarsenings):
    # for every pi: sum over sigma >= pi of mu(sigma, top) is [pi == top]
    for pi in enumerate_partitions(n):
        total = sum(moebius_to_top(s) for s in coarsenings(pi))
        assert total == (1 if len(pi.blocks) == 1 else 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_moebius_inversion_identity_noncrossing(n, coarsenings):
    for pi in enumerate_partitions(n, PartitionFilter(noncrossing=True)):
        total = sum(
            moebius_to_top(s, "noncrossing") for s in coarsenings(pi, noncrossing=True)
        )
        assert total == (1 if len(pi.blocks) == 1 else 0)


def test_pairing_counts_match_double_factorial():
    for n in range(2, 11):
        count = count_partitions(n, PartitionFilter(allowed_block_sizes={2}))
        assert count == (double_factorial(n - 1) if n % 2 == 0 else 0)


def test_noncrossing_pairings_are_catalan():
    for k in range(1, 6):
        got = count_partitions(2 * k, PartitionFilter(allowed_block_sizes={2}, noncrossing=True))
        assert got == catalan(k)


def test_riordan_values():
    assert [riordan(m) for m in range(0, 9)] == [1, 0, 1, 1, 3, 6, 15, 36, 91]


def test_respectful_pairings():
    assert respectful_pairings(2, 2, "classical") == 2
    assert respectful_pairings(2, 2, "noncrossing") == 1
    assert respectful_pairings(2, 4, "classical") == 60
    assert respectful_pairings(2, 4, "noncrossing") == 3
    assert respectful_pairings(3, 3, "classical") == 0  # odd total
    # inclusion-exclusion cross-check: sum_j (-1)^j C(4,j) (7-2j)!! = 60
    incl = sum((-1) ** j * math.comb(4, j) * double_factorial(7 - 2 * j) for j in range(5))
    assert incl == respectful_pairings(2, 4, "classical")


@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_parse_print_roundtrip(n, rnd):
    blocks: list[list[int]] = []
    for x in range(1, n + 1):
        if blocks and rnd.random() < 0.6:
            rnd.choice(blocks).append(x)
        else:
            blocks.append([x])
    p = SetPartition.from_blocks(n, blocks)
    assert SetPartition.parse(str(p), n) == p


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_kernel_blocks_are_value_classes(indices):
    ker = kernel_of(indices)
    for b in ker.blocks:
        vals = {indices[p - 1] for p in b}
        assert len(vals) == 1
    assert len(ker.blocks) == len(set(indices))
