"""Plain-class base for the package's records.

Each record class lists its fields, in constructor order, in
__match_args__, and the values of its trailing optional fields in
_defaults. Frozen's one constructor binds arguments to those names; the
base also adds equality, hashing, immutability and a repr of the form
Name(field=value, ...). It stands in for dataclasses, whose import
(inspect, ast, dis) and per-class code generation took most of the
package's import time.
"""

from __future__ import annotations

# Frozen.__setattr__ refuses every assignment, so the constructor sets
# fields through object's own method, bound once here for speed.
set_field = object.__setattr__


class Frozen:
    """Immutable record: equal to a record of the same class with equal
    fields, and hashed by its fields. Subclasses declare their fields as
    __slots__. No field can be assigned, but values are not copied: a
    record holding a dict (a trace step) cannot be hashed, and the dict
    can be changed in place, which replay_trace then checks as it stands."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    # Every instance shares these values, so each must be immutable.
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        """Bind positional arguments, then keyword arguments, to the
        fields in __match_args__ order; an unbound field takes its
        default."""
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(names)} arguments"
                f" but {len(args)} were given"
            )
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
            set_field(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            problem = "repeated" if name in names else "unknown"
            raise TypeError(f"{type(self).__qualname__}() got {problem} field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuild through __init__: pickle and copy would otherwise
        # restore the slots by assignment, which __setattr__ refuses.
        return type(self), self._values()
