"""Immutable objects without dataclasses.

A Frozen subclass sets each field once, in __init__, with setfield; later
assignment or deletion raises.  A class with many instances lists its
fields in __init__ order, then those cached on first use (named _...), in
__slots__, so its objects have no dict.  fields reads either kind, and
copy.copy rebuilds either through setfield.  A Frozen object equals only
itself; a Record equals any of its class whose fields are equal.  fields
also reads a namedtuple's, for analyses.State, which is one.
"""

setfield = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def fields(obj):
    """The one reader of fields: name -> value of each set on obj."""
    if isinstance(obj, tuple):  # a namedtuple, such as analyses.State
        return obj._asdict()
    slots = getattr(type(obj), "__slots__", ())
    return {k: getattr(obj, k) for k in slots
            if hasattr(obj, k)} if slots else vars(obj)


class Frozen:
    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return object.__new__, (type(self),), dict(fields(self))

    def __setstate__(self, values):
        for k, v in values.items():
            setfield(self, k, v)

    def __repr__(self):
        shown = (f"{k}={v!r}" for k, v in fields(self).items() if k[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"


class Record(Frozen):
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and fields(other) == fields(self)

    def __hash__(self):
        return hash(tuple(fields(self).values()))
