"""Base of the package's immutable record classes.

A record is a plain ``__slots__`` class: its ``__init__`` validates the
arguments and stores them with ``object.__setattr__``.  ``Record`` derives
everything else from ``_fields``, the constructor arguments: a record equals
only a record of its own class with equal fields and hashes as the tuple of
its fields; assigning or deleting an attribute raises; ``repr`` and pickling
go through the constructor; and ``replace`` copies with changes through the
constructor, so the copy is validated again.  Building the records this way
keeps ``dataclasses``, and the ``inspect`` it loads, out of every start-up.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    # The constructor's parameters, in order; each is stored under its own name.
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # Reads the fields in one call: their tuple, or the value itself for one field.
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        # Series operations compare the VarSets of their operands, nearly
        # always the same object: answer that case first.
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        # The hash of the field tuple, a 1-tuple for a single field.
        key = self._key(self)
        return hash((key,) if len(self._fields) == 1 else key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self) -> tuple:
        # The default reduction of a slotted object restores each slot with
        # setattr, which raises here; rebuild through the constructor instead.
        return (type(self), tuple(getattr(self, name) for name in self._fields))

    def replace(self, **changes: object) -> "Record":
        """A copy with the named fields changed, built and validated by the constructor."""
        # An unknown name reaches the constructor and raises TypeError there.
        return type(self)(**({name: getattr(self, name) for name in self._fields} | changes))
