"""The base of the package's immutable value classes, in place of frozen dataclasses.

Start-up is most of a small command's time.  As frozen dataclasses, the
classes that every command imports made `import daqcompile.cli` take 29 ms
instead of 16 ms (-X importtime, warm bytecode cache, Python 3.11.7 on a
2-vCPU x86-64 VM): `dataclasses` imports `inspect`, `ast`, `dis` and
`tokenize`, and its decorators generate and compile code at every import,
about 8.5 ms for the 13 of them.  Defining them on this base takes 0.1 ms.
"""


class Frozen:
    """A value whose fields are its __init__'s parameters, in order.

    A subclass's __init__ checks its arguments as locals and ends with one
    super().__init__(...) that hands over the field values in order; they
    are written with object.__setattr__, since touching self.__dict__ would
    make every later attribute read a little slower.  ==, hash and repr go
    over the fields, and == holds only between instances of one class
    (anything else gets NotImplemented); attributes that __init__ derives
    from the fields and writes itself stay out of all three.  Assigning or
    deleting an attribute raises AttributeError.  Only
    `circuits.ResourceBlock` writes its fields, == and hash out, for speed.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
