"""Plain records: named fields in `__slots__`, compared and shown by value.

A subclass lists its fields in `__slots__` and gets what a dataclass would
give it: a constructor taking the fields by position or keyword (then
calling `__post_init__` when the class defines one), equality between
instances of the same class with equal fields, a hash of the fields, and
a `Name(field=value, ...)` repr.  Unlike `dataclasses`, nothing is
generated at class creation, so defining a record imports neither
`dataclasses` nor `inspect`.
"""


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields, "
                            f"got {len(args)}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
            setattr(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected fields {sorted(kwargs)}")
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"
