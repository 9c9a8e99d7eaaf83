"""homsum: exact combinatorial moment engine for homogeneous sums,
orthogonal polynomials, Gauss quadrature and random-discriminant moments,
plus a seeded Monte Carlo layer."""

from operator import attrgetter

__version__ = "0.1.0"

# the largest ground set a partition walk or joint cumulant may take; _check_cap refuses more
DEFAULT_SIZE_CAP = 14


class SizeCapError(ValueError):
    """Raised when an enumeration would exceed the configured ground-set cap."""


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise SizeCapError(
            f"ground set of size {n} exceeds the cap {cap}; "
            f"raise the cap explicitly if you really want this"
        )


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields.

    It behaves as ``@dataclass(frozen=True)`` would, without importing the
    standard dataclass module (which loads ``inspect``, ``ast`` and ``dis``)
    or compiling more than an ``__init__`` per class.  ``__init__`` takes the
    fields by position or keyword, with the class-level values as defaults,
    through Python's own argument binding (so a bad call raises the
    dataclass's TypeError), then calls ``__post_init__`` if the class has
    one.  ``==`` holds between instances of one class with equal field
    values; ``hash`` is that of the field values, so a record with an
    unhashable field is unhashable; ``repr`` is the dataclass text; and
    assignment or deletion raises ``AttributeError``.  Instances keep a
    ``__dict__``, so ``functools.cached_property`` works on them.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaulted = tuple(k for k in names if k in cls.__dict__)
    if names[len(names) - len(defaulted):] != defaulted:
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    # the fields are stored by object.__setattr__: writing self.__dict__
    # would give up the instance's compact attribute layout and slow every
    # later field read
    source = f"def __init__(self, {', '.join(names)}):\n" + "".join(f" _set(self, {k!r}, {k})\n" for k in names)
    if hasattr(cls, "__post_init__"):
        source += " self.__post_init__()\n"
    namespace = {"_set": object.__setattr__}
    exec(source, namespace)
    __init__ = namespace["__init__"]
    __init__.__defaults__ = tuple(cls.__dict__[k] for k in defaulted)
    values = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in names)
        return f"{self.__class__.__qualname__}({fields})"

    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
