"""The base class of the package's value types.

A subclass lists its fields, in order, as a tuple in `__slots__`.  `Record` then gives
it what `dataclasses` would, without importing that module (which loads
`inspect`, `ast` and `dis`) and without generating code for each class:

- `__init__` from one value per field, in `__slots__` order (any other
  number is a TypeError, as is a keyword), then the subclass's `_validate`
  hook;
- no assignment or deletion once built (AttributeError);
- equality and hashing by field values, between instances of one class only;
- a `Name(field=value, ...)` repr.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__slots__)
        # A one-field getter returns the bare value; as an equality and hash
        # key within one class that serves as well as a 1-tuple.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} fields but {len(args)} were given"
            )
        for field, value in zip(fields, args):
            _set(self, field, value)
        self._validate()

    def _validate(self):
        """Check the fields; a subclass may normalize them with object.__setattr__."""

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
