"""Immutable value classes, made without generating source code.

A subclass of :class:`Value` names its fields in ``__slots__`` and sets
them once, in its own ``__init__``, with one ``self._fill(...)`` call,
which takes the fields in slot order and returns the instance.  From
the slots the base gives it what the standard library's frozen data
classes gave the twelve public value classes before:

- ``==`` holds only between instances of the same class whose fields are
  equal, and ``hash`` is the hash of the tuple of fields in order, so set
  and dict orders are as they were;
- the repr reads ``Fraction(p=1, q=3)``;
- assigning or deleting an attribute raises :class:`AttributeError`;
- copy and pickle rebuild an instance through its constructor.

A slot whose name starts with ``_`` is no field but a private cache of
something derived from the fields, set through its member descriptor
where it is first known (``SEvenVector._b``, the packed entries, and
``Fraction._cf``, the even expansion).
``_fill``, ``==``, ``hash``, the repr and ``__reduce__`` see only the
public slots, so a value equals, hashes, prints and pickles the same
whether or not its cache is filled, and a copy, rebuilt through the
constructor, fills its own.

The base exists for start-up time.  Every CLI verb is a fresh process,
and there importing the data-class module (which loads ``inspect``,
``ast`` and ``dis``) took 6.4 ms, and compiling the generated methods of
the twelve classes about 0.5 ms each, of a 36 ms package import (2 CPUs,
Python 3.11.7, bytecode not cached).  Here the methods are closures over
one ``attrgetter`` per class, and nothing is compiled.

``_fill`` calls each slot's own member descriptor (``Fraction.p.__set__``),
which skips the refusing ``__setattr__`` at about 40 ns a field, where
``object.__setattr__(self, name, value)`` took 150 to 200 ns.  It has one
fixed-arity body per field count, since a loop over ``*fields`` measured
slower than ``object.__setattr__``.  A public constructor checks at the
boundary, on outside input; ``object.__new__(cls)._fill(...)`` is the one
door for a value the library builds from parts it already holds, valid by
construction and not checked again (``SEvenVector._from_packed`` takes
it for a vector built from its packed bytes).
"""

from operator import attrgetter


def _filler(setters):
    """``_fill(self, ...) -> self`` for one to four slot setters, in slot order."""
    if len(setters) == 1:
        (s0,) = setters

        def _fill(self, a):
            s0(self, a)
            return self

    elif len(setters) == 2:
        s0, s1 = setters

        def _fill(self, a, b):
            s0(self, a)
            s1(self, b)
            return self

    elif len(setters) == 3:
        s0, s1, s2 = setters

        def _fill(self, a, b, c):
            s0(self, a)
            s1(self, b)
            s2(self, c)
            return self

    else:
        s0, s1, s2, s3 = setters

        def _fill(self, a, b, c, d):
            s0(self, a)
            s1(self, b)
            s2(self, c)
            s3(self, d)
            return self

    return _fill


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        get = attrgetter(*fields)
        if len(fields) == 1:  # attrgetter of one name gives the value, not a 1-tuple

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
        cls._fill = _filler([getattr(cls, name).__set__ for name in fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
