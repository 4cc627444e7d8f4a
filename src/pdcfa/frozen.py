"""Immutable objects without dataclasses.

A Frozen subclass sets each field once, in __init__, with setfield (which
keeps CPython's inline attribute values: a write through self.__dict__
gives each instance a dict); later assignment or deletion raises.  A
Frozen object equals only itself; a Record equals any of its class whose
fields are equal.
"""

setfield = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def fields(obj):
    """The one reader of an object's fields: name -> value, in the order
    they were set, cached ones (named _...) included."""
    return vars(obj)


class Frozen:
    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __repr__(self):
        shown = (f"{k}={v!r}" for k, v in fields(self).items() if k[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"


class Record(Frozen):
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and fields(other) == fields(self)

    def __hash__(self):
        return hash(tuple(fields(self).values()))
