import math
from fractions import Fraction as F

import pytest

from homsum.laws import _partition_classes
from homsum.moments import _block_sum, _integer_scaled
from homsum.partitions import PartitionFilter, enumerate_partitions, interval_partition, moebius_to_top


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


@pytest.fixture(scope="session")
def convert_referee():
    return class_sum_convert


@pytest.fixture(scope="session")
def cumulant_referee():
    return moebius_cumulant
