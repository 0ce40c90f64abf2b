"""Exact fractions with odd denominator and their all-even continued fractions.

A 2-bridge knot is identified by a reduced fraction p/q with q odd,
q >= 3, up to the equivalence p ~ +/- p^(+/-1) (mod q).  Continued
fractions here follow the convention

    p/q = r + [a_1, ..., a_k],    [a_1, ..., a_k] = 1/(a_1 + 1/(a_2 + ...))

evaluated right to left; an empty term list denotes r/1.  Every fraction
with odd denominator has a unique expansion in which every partial
quotient is even and nonzero, the number of terms is even, and r has the
same parity as p.  That normal form is the bridge between fractions and
the expanded even vectors of :mod:`twobridge.vectors`.

A fraction is expanded once: :func:`even_expansion` keeps its result in
the fraction's private slot ``_cf`` (``_value.Value``'s rule for a slot
named with ``_``), so the caller that expands a knot's fraction and
``vectors.vector_from_knot``, which expands it again, share one Euclid
loop.  The cache holds the ``EvenCF``, with its tuple of terms, alive as
long as the fraction lives; a fraction only filled, as the catalog fills
its knots' fractions, holds nothing until it is first expanded.

All arithmetic is exact integer arithmetic; nothing here ever touches
floating point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._value import Value

__all__ = [
    "CFDivisionError",
    "EvenCF",
    "Fraction",
    "InvalidFractionError",
    "KnotClass",
    "canonical_fraction",
    "evaluate_terms",
    "even_expansion",
]


class InvalidFractionError(ValueError):
    """Raised for fractions that cannot identify a 2-bridge knot."""


class CFDivisionError(ZeroDivisionError):
    """A continued fraction hit a zero tail sum during evaluation.

    ``position`` is the 1-based index of the term at which the tail
    a_i + [a_{i+1}, ..., a_k] evaluated to zero, making the enclosing
    reciprocal undefined.
    """

    def __init__(self, position: int) -> None:
        super().__init__(f"continued fraction tail at term {position} sums to zero")
        self.position = position


class Fraction(Value):
    """A reduced rational with positive odd denominator.

    The constructor normalizes: the sign moves to the numerator and the
    pair is divided by its gcd.  A denominator that is even after
    reduction is rejected; an even denominator corresponds to a 2-bridge
    link rather than a knot, and nothing in this package handles links.
    Its fields are p and q; ``_cf`` caches its even expansion.
    """

    __slots__ = ("p", "q", "_cf")
    p: int
    q: int

    def __init__(self, p: int, q: int = 1) -> None:
        if q == 0:
            raise InvalidFractionError("denominator is zero")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        if g > 1:
            p //= g
            q //= g
        if q % 2 == 0:
            raise InvalidFractionError(
                f"{p}/{q} has even denominator (a 2-bridge link, not a knot)"
            )
        self._fill(p, q)

    @classmethod
    def parse(cls, text: str) -> "Fraction":
        r"""Parse ``"p/q"`` (or a bare integer) with an optional leading minus.

        Reads, after ``strip()``, the strings that ``^(-?\d+)(?:/(-?\d+))?$``
        matches, without ``re``: ``str.isdecimal`` holds for the characters
        of ``\d``, Unicode category Nd.  A part with more digits than
        ``int`` reads (``sys.get_int_max_str_digits()``) is as unreadable
        as any other.
        """
        p, slash, q = text.strip().partition("/")
        if p.removeprefix("-").isdecimal() and (not slash or q.removeprefix("-").isdecimal()):
            try:
                p, q = int(p), int(q) if slash else 1
            except ValueError:  # past int()'s digit limit
                pass
            else:
                return cls(p, q)
        raise InvalidFractionError(f"cannot parse fraction from {text!r}")

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class EvenCF(Value):
    """The all-even continued fraction normal form r + [a_1, ..., a_k].

    Terms are even and nonzero, the term count is even, and r matches the
    parity of the numerator of the value.  Instances are produced by
    :func:`even_expansion`; the constructor only enforces the shape.
    """

    __slots__ = ("r", "terms")
    r: int
    terms: tuple[int, ...]

    def __init__(self, r: int, terms: Sequence[int] = ()) -> None:
        terms = tuple(terms)
        if len(terms) % 2:
            raise ValueError(f"term count {len(terms)} is odd")
        for i, a in enumerate(terms, 1):
            if a == 0 or a % 2:
                raise ValueError(f"term {i} is {a}; every term must be even and nonzero")
        self._fill(r, terms)

    def __str__(self) -> str:
        return f"{self.r}+[{','.join(str(a) for a in self.terms)}]"

    @classmethod
    def parse(cls, text: str) -> "EvenCF":
        """Parse ``"r+[a_1,...,a_k]"``; unreadable text or a rejected shape is an invalid fraction."""
        head, _, tail = text.strip().partition("+[")
        body = tail[:-1].strip()
        try:
            if not tail.endswith("]"):
                raise ValueError("expected r+[a_1,...,a_k]")
            return cls(int(head), tuple(int(t) for t in body.split(",")) if body else ())
        except ValueError as exc:
            raise InvalidFractionError(f"cannot parse continued fraction from {text!r}: {exc}") from None


def evaluate_terms(terms: Sequence[int], integer_part: int = 0) -> Fraction:
    """Evaluate ``integer_part + [terms]`` exactly.

    Terms may be arbitrary integers, zeros included; the zero-removal
    identity [..., a, 0, b, ...] = [..., a+b, ...] holds for the result.
    Raises :class:`CFDivisionError` when a tail sum a_i + [a_{i+1}, ...]
    is zero, which makes the value undefined.
    """
    # Right-to-left projective recurrence: (num, den) holds the exact
    # value of [a_i, ..., a_k], so the update for a_i is
    # 1/(a_i + num/den) = den/(a_i*den + num).  No division happens
    # until the very end, so zeros inside the terms are harmless.
    num, den = 0, 1
    for i in range(len(terms) - 1, -1, -1):
        num, den = den, terms[i] * den + num
        if den == 0:
            raise CFDivisionError(i + 1)
    return Fraction(integer_part * den + num, den)


def even_expansion(f: Fraction) -> EvenCF:
    """Expand a fraction with odd denominator into its all-even normal form.

    The integer part r is the unique integer with the parity of p lying
    within distance 1 of p/q.  Each partial quotient is then the unique
    even integer within distance 1 of the reciprocal of the remaining
    tail; the remainders' numerators shrink strictly, the parity pattern
    forces an even number of terms, and no tie is possible because the
    reciprocal is never an integer.  ``evaluate_terms(cf.terms, cf.r)``
    inverts this exactly.  That reciprocal exceeds 1 in size, so every
    term is even and nonzero: the result has its shape by construction
    and is filled unchecked.  It is kept on f, and a second call on the
    same fraction returns it.
    """
    try:
        return f._cf
    except AttributeError:
        pass
    p, q = f.p, f.q
    r0 = p // q
    r = r0 if (r0 - p) % 2 == 0 else r0 + 1
    # Remaining target [a_1, ...] = n/d with n even, 0 < |n| < d.
    n, d = p - r * q, q
    terms = []
    while n:
        a, m = divmod(d, n)
        if a % 2:
            a, m = a + 1, m - n
        terms.append(a)
        n, d = m, n
    _set_cf(f, cf := object.__new__(EvenCF)._fill(r, tuple(terms)))
    return cf


_set_cf = Fraction._cf.__set__


class KnotClass(Value):
    """A 2-bridge knot: the equivalence class of p/q under p ~ +/- p^(+/-1).

    ``canonical`` is the class representative with 0 < p < q and p minimal
    over the four-element orbit {p, p^-1, -p, -p^-1} taken mod q.  The
    constructor accepts any fraction of the class and normalizes it to
    that representative, as :class:`Fraction` normalizes sign and gcd.
    Requires q >= 3; q = 1 would be the unknot, which no fraction class
    in this package represents.  The constructor checks at the boundary;
    where the library already holds the representative (the knot of a
    vector, read off its continuants, and the catalog's class search) it
    fills the knot and its fraction through the one door,
    ``object.__new__(cls)._fill(...)``, with nothing normalized or reduced.
    The constructor fills the orbit minimum it finds the same way: it is
    coprime to q, as the given p is, so no gcd is taken again.
    """

    __slots__ = ("canonical",)
    canonical: Fraction

    def __init__(self, canonical: Fraction) -> None:
        f = canonical
        if f.q < 3:
            raise InvalidFractionError(f"{f} does not identify a nontrivial 2-bridge knot")
        p = _orbit_min(f.p, pow(f.p, -1, f.q), f.q)
        self._fill(f if p == f.p else object.__new__(Fraction)._fill(p, f.q))

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.canonical.q, self.canonical.p)

    def __str__(self) -> str:
        return str(self.canonical)


def _orbit_min(p: int, r: int, q: int) -> int:
    """The least of +/-p and +/-r mod q, for r = +/-p^-1 (mod q): the canonical p of the knot p/q.

    ``KnotClass`` passes r = p^-1 from ``pow``; a vector's continuants
    give r = -p^-1 for free (``vectors._knot_of_entries``,
    ``enumeration._class_vectors``).
    """
    return min(p % q, -p % q, r % q, -r % q)


def canonical_fraction(f: Fraction) -> KnotClass:
    """The knot class that f represents; q >= 3 is required."""
    return KnotClass(f)
