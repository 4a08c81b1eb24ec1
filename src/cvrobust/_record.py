"""Base class of the immutable value classes that equal only their own class.

Plain result records are ``typing.NamedTuple`` classes.  A class whose
constructor checks its arguments derives from :class:`Record` instead, and
so does ``GammaSet``, which checks nothing but must not equal a tuple and
gives its fields through ``vars``.  Such a class lists its fields in
``_fields`` (and as ``__slots__``, unless it needs an instance ``__dict__``)
and stores them once, at the end of its ``__init__``, through
:meth:`Record._init`.
"""

from __future__ import annotations


class Record:
    """Immutable fields with value equality, hashing and a ``Name(field=...)`` repr.

    Instances of one class compare equal when their fields do; an instance
    never equals a tuple or an instance of another class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Copy and pickle rebuild through the validating constructor.
        return type(self), self._astuple()
