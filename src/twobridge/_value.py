"""Immutable value classes, made without generating source code.

A subclass of :class:`Value` names its fields in ``__slots__`` and sets
each one once in its own ``__init__``, through ``object.__setattr__``.
From the slots the base gives it what the standard library's frozen data
classes gave the twelve public value classes before:

- ``==`` holds only between instances of the same class whose fields are
  equal, and ``hash`` is the hash of the tuple of fields in order, so set
  and dict orders are as they were;
- the repr reads ``Fraction(p=1, q=3)``;
- assigning or deleting an attribute raises :class:`AttributeError`;
- copy and pickle rebuild an instance through its constructor.

The base exists for start-up time.  Every CLI verb is a fresh process,
and there importing the data-class module (which loads ``inspect``,
``ast`` and ``dis``) took 6.4 ms, and compiling the generated methods of
the twelve classes about 0.5 ms each, of a 36 ms package import (2 CPUs,
Python 3.11.7, bytecode not cached).  Here the methods are closures over
one ``attrgetter`` per class, and nothing is compiled.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name gives the value, not a 1-tuple

            def __hash__(self) -> int:
                return hash((get(self),))

        else:

            def __hash__(self) -> int:
                return hash(get(self))

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
