"""Frozen records: the one idiom behind the toolkit's value classes, in place of dataclasses.

A record class derives from Record and annotates its fields, in order, in its own body:
repr shows them, and == and hash compare them as a tuple or, for a class declared with
eq=False (one that holds numpy arrays or a callable), by identity.  A field may be a
property over attributes that are no fields.  Each class writes its own __init__, which
checks its arguments and stores them with vars(self).update(...); an attribute stored
there without an annotation is no field, but is pickled and copied.  A column record,
which holds its data as columns, stores them, and what it derives from them, in one
method, _fill, which checks nothing.  Its __init__ converts and checks its public input,
then calls _fill.  A reader of outside input checks what it read by the constructor's rule
and calls Record._of(*columns), which skips __init__; so does, checking nothing, a builder
whose construction guarantees that rule.
Assigning or deleting any attribute raises dataclasses.FrozenInstanceError, as for a frozen
dataclass; that module, whose import with inspect, ast and dis costs milliseconds a
process, is imported only then.
"""

from __future__ import annotations


class Record:
    """Base of the frozen records; ``_fields`` names a class's fields in order."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)  # the class's own annotations, not its bases'
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    @classmethod
    def _of(cls, *columns):
        """The column record over columns, held by cls._fill without a copy; __init__ is not called."""
        record = cls.__new__(cls)
        record._fill(*columns)
        return record

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._astuple()))


def _frozen(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError  # only here, so that no record's module imports dataclasses

    return FrozenInstanceError(message)
