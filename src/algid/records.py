"""Immutable records: `typing.NamedTuple` classes that compare like values of
their own class only.

A NamedTuple is a tuple, so on its own it would equal any tuple with the same
fields, a record of another class included.  `record` gives the class the
equality of a frozen dataclass instead: equal exactly when the other object
has the same class and equal fields.  Hashing stays the tuple hash of the
fields, which is what a frozen dataclass hashes too.
"""


def _eq(self, other):
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    # False, not NotImplemented: a plain tuple's reflected __eq__ would
    # otherwise compare the fields
    return False if isinstance(other, tuple) else NotImplemented


def _ne(self, other):
    eq = _eq(self, other)
    return eq if eq is NotImplemented else not eq


def record(cls):
    """Class decorator for a NamedTuple class (see the module docstring)."""
    cls.__eq__ = _eq
    cls.__ne__ = _ne
    return cls
