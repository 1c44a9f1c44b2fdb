"""Plain-class bases for the package's records.

Each record class lists its fields, in constructor order, in
__match_args__ and writes its own __init__; these bases add equality,
hashing, immutability and a repr of the form Name(field=value, ...).
They stand in for dataclasses, whose import (inspect, ast, dis) and
per-class code generation took most of the package's import time.
"""

from __future__ import annotations

# Frozen.__setattr__ refuses every assignment, so a frozen __init__ sets
# its fields through object's own method, bound once here for speed.
set_field = object.__setattr__


class Record:
    """Mutable record: equal to a record of the same class with equal
    fields, and unhashable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """Immutable record, hashed by its fields. Subclasses declare their
    fields as __slots__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuild through __init__: pickle and copy would otherwise
        # restore the slots by assignment, which __setattr__ refuses.
        return type(self), self._values()
