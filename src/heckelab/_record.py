"""Immutable slotted records.

``Record`` is the base of the records that validate their fields, cache
derived data, or leave an attribute out of equality; the plain value
records are ``typing.NamedTuple``s.  A subclass lists every attribute in
``__slots__`` and the ones that take part in equality, hashing and
``repr`` in ``_compared``, and sets them in ``__init__`` through
``_set``.  After that an assignment raises AttributeError.
"""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the tuple of compared values, as a frozen dataclass hashes it
        get = attrgetter(*cls._compared)
        cls._key = staticmethod(get if len(cls._compared) > 1
                                else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
