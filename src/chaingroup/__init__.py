"""chaingroup: exact-arithmetic toolkit for braid-group and surface algebra.

Subpackages cover braid words and the word-problem oracle, transvection
representations on integral surface homology, explicit braid-to-braid
homomorphisms, finite abelian quotients via Smith normal form, permutation
representations, edge-transitive cyclic graph actions, and Riemann-Hurwitz
feasibility arithmetic. Everything is exact: Python integers only, no
floating point. The package root holds what the modules share: the Record
value type, and parse_int and parse_ints, through which every integer of
outside input is read, so that a malformed one names its field.
"""

from collections.abc import Iterable


class Record:
    """Frozen value record: the annotated class attributes are its fields.

    A subclass lists its fields as annotations, in order, with defaults as
    class values. Instances take the fields positionally or by keyword,
    then run __post_init__, which validates and may normalise a field with
    object.__setattr__. Two records are equal when they are of the same
    class with equal fields; the hash is that of the field tuple, and the
    repr is Name(field=value, ...). Fields cannot be assigned or deleted.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", ())
        cls._fields += tuple(name for name in own if name not in cls._fields)

    def __init__(self, *args, **kwargs):
        # object.__setattr__ rather than __dict__, which would turn the
        # interpreter's compact per-instance attribute storage into a dict
        fields, cls = self._fields, type(self)
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                object.__setattr__(self, name, kwargs.pop(name))
            elif hasattr(cls, name):
                object.__setattr__(self, name, getattr(cls, name))
            else:
                raise TypeError(f"{cls.__name__} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def parse_int(token: str, source: str) -> int:
    """An integer token of outside input; ValueError names the source and the token."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{source}: {token!r} is not an integer") from None


def parse_ints(tokens: Iterable[str], source: str) -> tuple[int, ...]:
    """The integer tokens of one row, line or field, each read by parse_int."""
    return tuple([parse_int(t, source) for t in tokens])
