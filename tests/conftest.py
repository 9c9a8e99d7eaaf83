from fractions import Fraction as F

import pytest

from homsum.moments import _block_sum, _integer_scaled
from homsum.partitions import PartitionFilter, enumerate_partitions, interval_partition


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
