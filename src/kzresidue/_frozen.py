"""Base class of the package's immutable value types.

A subclass names its fields in `__slots__`, in the order its `__init__`
takes them, and sets each once there, by `_set` or `object.__setattr__`.
A slot whose name starts with an underscore is private memo state: it is
left out of `repr`, equality, hashing and pickling.  Every instance can
be weakly referenced: the base's one slot, `__weakref__`, is in no
subclass's own `__slots__`, so it is never a field.  Equality and hash
go by the tuple of fields, and only between instances of one class;
`shapes._Young` orders the Young data by it too.

Every value class shares this one implementation, though the Young data
of `shapes` are dictionary keys on hot paths, hashed and compared
thousands of times in one pass of the check battery.  So each subclass
gets its field names and one `operator.attrgetter` of them when it is
defined, and no call builds a list of names.
"""
from operator import attrgetter


class Frozen:
    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        if cls._fields:
            cls._get = attrgetter(*cls._fields)  # one field: its value, not a tuple

    def _set(self, *values) -> None:
        """Set every slot, in `__slots__` order."""
        for name, value in zip(type(self).__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        values = self._get(self)
        return values if len(self._fields) > 1 else (values,)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()
