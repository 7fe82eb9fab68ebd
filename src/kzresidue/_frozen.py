"""Base class of the package's immutable value types.

A subclass names its fields in `__slots__`, in the order its `__init__`
takes them, and sets each once there, by `_set` or `object.__setattr__`.
A slot whose name starts with an underscore is private memo state: it is
left out of `repr`, equality, hashing and pickling.  Equality and hash
go by the tuple of fields, and only between instances of one class; the
classes that are dictionary keys on hot paths write their own.
"""


class Frozen:
    __slots__ = ()

    def _set(self, *values) -> None:
        """Set every slot, in `__slots__` order."""
        for name, value in zip(type(self).__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> list[str]:
        return [f for f in type(self).__slots__ if f[0] != "_"]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields())
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()
