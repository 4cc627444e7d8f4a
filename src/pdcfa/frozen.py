"""Immutable objects without dataclasses.

A Frozen subclass sets each field once, in __init__, with setfield (which
keeps CPython's inline attribute values: a write through self.__dict__
gives each instance a dict); later assignment or deletion raises.
Equality is identity unless the class defines __eq__ and __hash__.
"""

setfield = object.__setattr__


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class Frozen:
    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __repr__(self):
        fields = (f"{k}={v!r}" for k, v in vars(self).items() if k[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"
