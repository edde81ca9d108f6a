"""The base of the package's frozen value classes.

A value class lists its attributes in `__slots__` and the ones that `==`,
`hash` and `repr` read, in order, in `_fields`. It writes its own
`__init__`, which validates the arguments and sets each slot once with
`object.__setattr__`; after that, setting or deleting an attribute raises
`AttributeError`. Two instances are equal when they are of the same class
and their field tuples are equal, the hash is the field tuple's, and the
repr reads `Name(field=value, ...)`.

The base is plain Python: importing the package loads no introspection
module and generates no code for the classes.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    # pickle and copy restore the slots past __setattr__
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
