"""Base of the package's immutable record classes.

A record is a plain ``__slots__`` class: its ``__init__`` validates the
arguments and stores them with ``object.__setattr__``, and it writes its own
``__eq__`` and ``__hash__`` over its fields.  ``Record`` adds what is the
same for every record: assigning or deleting an attribute raises, ``repr``
and pickling go through the constructor arguments named in ``_fields``, and
``replace`` copies with changes through the constructor, so the copy is
validated again.  Building the records this way keeps ``dataclasses``, and
the ``inspect`` it loads, out of every start-up.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    # The constructor's parameters, in order; each is stored under its own name.
    _fields: tuple[str, ...] = ()

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
