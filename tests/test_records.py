"""The frozen records of ``homsum.record`` behave as ``@dataclass(frozen=True)``
of the same fields, which is their referee here."""

import dataclasses
import sys
from fractions import Fraction as F

import pytest

from homsum import _refuse_assignment, record
from homsum.kernels import Kernel, KernelError, LiftedKernel
from homsum.laws import LawError, LawSpec, rademacher, semicircle
from homsum.moments import SumSpec
from homsum.orthopoly import (
    MomentFunctional,
    MultiMomentFunctional,
    OrthopolyError,
    QuadratureRule,
    SylvesterDecomposition,
)
from homsum.partitions import PartitionFilter, SetPartition
from homsum.stochsim import JumpPath, Sampler

HALF = Kernel(2, 2, {(1, 2): F(1, 2), (2, 1): F(1, 2)})

# one instance of every record class
INSTANCES = [
    HALF,
    LiftedKernel(HALF, (2, 2)),
    rademacher(4),
    SumSpec(HALF, [rademacher(4), rademacher(4)]),
    MomentFunctional(((F(1), F(0), F(1)), (F(1), F(1, 2)))),
    MultiMomentFunctional(2, ({(0, 0): F(1), (1, 0): F(0)},)),
    QuadratureRule((-1.0, 1.0), (0.5, 0.5), 3, "real-simple", 0.0),
    SylvesterDecomposition("discriminant", 2, (F(1), F(0), F(-1)), (1.0, -1.0), (0.5, 0.5), 1.0, F(1), 0.0, True),
    PartitionFilter(True, {2}, SetPartition.from_blocks(4, [[1, 2], [3, 4]])),
    Sampler("discrete", 3, {"values": [-1, 1], "probs": [F(1, 2), F(1, 2)]}),
    JumpPath(1.0, (0.25, 0.5), (1.0, -1.0), 0.0, 2.0, 0.125),
]
IDS = [type(x).__name__ for x in INSTANCES]


def fields(x):
    return tuple(type(x).__annotations__)


def values(x):
    return tuple(getattr(x, k) for k in fields(x))


def referee(cls):
    """The frozen dataclass of cls's fields and class-level defaults, without
    cls's methods."""
    spec = [(k, object, dataclasses.field(default=cls.__dict__[k])) if k in cls.__dict__ else (k, object)
            for k in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def test_every_record_class_is_covered():
    modules = [m for name, m in sys.modules.items() if name.startswith("homsum.")]
    records = {c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__ and c.__setattr__ is _refuse_assignment}
    assert records == {type(x) for x in INSTANCES} and len(INSTANCES) == 11


@pytest.mark.parametrize("x", INSTANCES, ids=IDS)
def test_equality_and_hash(x):
    cls = type(x)
    by_position = cls(*values(x))
    by_keyword = cls(**dict(zip(fields(x), values(x))))
    assert by_position == x and by_keyword == x and not by_position != x
    mirror = referee(cls)(*values(x))
    # no equality across classes, even with equal field values
    assert x != mirror and mirror != x and x != values(x)
    try:
        hash(mirror)
    except TypeError:
        # a record with an unhashable field (Kernel's dict) stays unhashable
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    else:
        assert hash(by_position) == hash(x)
        assert {x: 1}[by_keyword] == 1


@pytest.mark.parametrize("x", INSTANCES, ids=IDS)
def test_repr_is_the_dataclass_text(x):
    assert repr(x) == repr(referee(type(x))(*values(x)))


@pytest.mark.parametrize("x", INSTANCES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(x):
    name = fields(x)[0]
    before = values(x)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(x, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        x.other = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(x, name)
    assert values(x) == before


@pytest.mark.parametrize("x", INSTANCES, ids=IDS)
def test_bad_calls_raise_the_dataclass_type_error(x):
    cls, mirror, args = type(x), referee(type(x)), values(x)
    bad_calls = [((), {}), (args + (None,), {}), (args, {fields(x)[0]: None}), (args, {"no_such_field": None})]
    for a, kw in bad_calls:
        try:
            mirror(*a, **kw)
        except TypeError as e:
            expected = str(e)
        else:
            continue
        with pytest.raises(TypeError) as got:
            cls(*a, **kw)
        assert str(got.value) == expected, (a, kw)


def test_defaults():
    assert Kernel(2, 2, HALF.values) == Kernel(2, 2, HALF.values, "exact")
    assert Kernel(2, 2, HALF.values).mode == "exact"
    assert PartitionFilter() == PartitionFilter(False, None, None)
    assert PartitionFilter(allowed_block_sizes=[2, 3]) == PartitionFilter(False, frozenset({2, 3}), None)
    # each Sampler gets a fresh params dict, as default_factory=dict gave
    a, b = Sampler("gaussian", 0), Sampler("gaussian", 0)
    assert a.params == {} and a.params is not b.params and a == b
    assert repr(a) == "Sampler(law='gaussian', seed=0, params={})"


REFUSALS = [
    (lambda: Kernel(2, 2, {}, "complex"), KernelError, "mode must be 'exact' or 'float'"),
    (lambda: Kernel(0, 2, {}), KernelError, "need n >= 1 and d >= 0"),
    (lambda: Kernel(2, -1, {}), KernelError, "need n >= 1 and d >= 0"),
    (lambda: LiftedKernel(HALF, (2,)), KernelError, "orders length must equal the kernel degree"),
    (lambda: LiftedKernel(HALF, (0, 0)), KernelError, "orders must be positive"),
    (lambda: LiftedKernel(Kernel(2, 3, {}), (1, 2, 3)), KernelError,
     "orders must be palindromic (h_i = h_{d-i+1})"),
    (lambda: LawSpec("x", "boolean", (F(1),), (F(0),)), LawError, "kind must be 'classical' or 'free'"),
    (lambda: LawSpec("x", "classical", (), ()), LawError, "moments[0] must be 1"),
    (lambda: LawSpec("x", "classical", (F(2),), (F(0),)), LawError, "moments[0] must be 1"),
    (lambda: LawSpec("x", "free", (F(1), F(0)), (F(0),)), LawError, "moments and cumulants must run to the same order"),
    (lambda: SumSpec(HALF, [rademacher(4)]), ValueError, "per-index law list must have length n"),
    (lambda: SumSpec(Kernel(2, 2, {(1, 1): F(1)}), rademacher(4)), ValueError,
     "homogeneous-sum kernels must vanish on diagonals"),
    (lambda: SumSpec(HALF, [rademacher(4), semicircle(4)]), ValueError,
     "mixed classical/free law lists are not meaningful"),
    (lambda: MomentFunctional(((F(1),), (F(0), F(1)))), OrthopolyError, "every moment sequence must start at a_0 = 1"),
    (lambda: MomentFunctional(((),)), OrthopolyError, "every moment sequence must start at a_0 = 1"),
    (lambda: Sampler("cauchy", 0), ValueError,
     "unknown sampler law 'cauchy'; known: ('gaussian', 'rademacher', 'centered_poisson', 'uniform_centered', "
     "'discrete')"),
    (lambda: Sampler("gaussian", 0, {"lam": 1}), ValueError, "the gaussian sampler takes no params ['lam']"),
    (lambda: Sampler("discrete", 0, {"values": [1]}), ValueError,
     "the discrete sampler needs params 'values' and 'probs'"),
    (lambda: JumpPath(1.0, (0.5, 0.5), (1.0, 1.0), 0.0, 2.0, 0.0), ValueError, "jump times must be strictly increasing"),
]


@pytest.mark.parametrize("make, error, message", REFUSALS)
def test_post_init_refusals(make, error, message):
    with pytest.raises(error) as got:
        make()
    assert type(got.value) is error and str(got.value) == message


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    class Bad:
        __annotations__ = {"a": "int", "b": "int"}
        a = 0

    with pytest.raises(TypeError, match="Bad: a field without a default follows one with a default"):
        record(Bad)
