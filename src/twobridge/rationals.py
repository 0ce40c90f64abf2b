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

All arithmetic is exact integer arithmetic; nothing here ever touches
floating point.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence

from ._value import Value

__all__ = [
    "CFDivisionError",
    "EvenCF",
    "Fraction",
    "InvalidFractionError",
    "KnotClass",
    "canonical_fraction",
    "evaluate_cf",
    "evaluate_terms",
    "even_expansion",
    "same_knot",
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


_FRACTION_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


class Fraction(Value):
    """A reduced rational with positive odd denominator.

    The constructor normalizes: the sign moves to the numerator and the
    pair is divided by its gcd.  A denominator that is even after
    reduction is rejected; an even denominator corresponds to a 2-bridge
    link rather than a knot, and nothing in this package handles links.
    """

    __slots__ = ("p", "q")
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text: str) -> "Fraction":
        """Parse ``"p/q"`` (or a bare integer) with an optional leading minus."""
        m = _FRACTION_RE.match(text.strip())
        if not m:
            raise InvalidFractionError(f"cannot parse fraction from {text!r}")
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) is not None else 1
        return cls(p, q)

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
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "terms", terms)

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


def evaluate_cf(cf: EvenCF) -> Fraction:
    """Evaluate an all-even continued fraction to its exact value."""
    return evaluate_terms(cf.terms, cf.r)


def even_expansion(f: Fraction) -> EvenCF:
    """Expand a fraction with odd denominator into its all-even normal form.

    The integer part r is the unique integer with the parity of p lying
    within distance 1 of p/q.  Each partial quotient is then the unique
    even integer within distance 1 of the reciprocal of the remaining
    tail; the remainders' numerators shrink strictly, the parity pattern
    forces an even number of terms, and no tie is possible because the
    reciprocal is never an integer.  ``evaluate_cf`` inverts this exactly.
    """
    p, q = f.p, f.q
    if q == 1:
        return EvenCF(p, ())
    r0 = p // q
    r = r0 if (r0 - p) % 2 == 0 else r0 + 1
    # Remaining target [a_1, ...] = n/d with n even, 0 < |n| < d.
    n, d = p - r * q, q
    terms = []
    while n:
        fl = d // n
        a = fl if fl % 2 == 0 else fl + 1
        terms.append(a)
        n, d = d - a * n, n
    return EvenCF(r, tuple(terms))


class KnotClass(Value):
    """A 2-bridge knot: the equivalence class of p/q under p ~ +/- p^(+/-1).

    ``canonical`` is the class representative with 0 < p < q and p minimal
    over the four-element orbit {p, p^-1, -p, -p^-1} taken mod q.  The
    constructor accepts any fraction of the class and normalizes it to
    that representative, as :class:`Fraction` normalizes sign and gcd.
    Requires q >= 3; q = 1 would be the unknot, which no fraction class
    in this package represents.  ``KnotClass._unchecked`` skips that
    normalization where the caller has already found the representative
    (the catalog reads it off the continuants of its search).
    """

    __slots__ = ("canonical",)
    canonical: Fraction

    def __init__(self, canonical: Fraction) -> None:
        f = canonical
        if f.q < 3:
            raise InvalidFractionError(f"{f} does not identify a nontrivial 2-bridge knot")
        p = min(_orbit(f.p % f.q, f.q))  # p % q is never 0: gcd(p, q) = 1 and q >= 3
        object.__setattr__(self, "canonical", f if p == f.p else Fraction(p, f.q))

    @classmethod
    def _unchecked(cls, canonical: Fraction) -> "KnotClass":
        """A knot on a fraction the caller promises is its class representative; it is not re-normalized."""
        k = object.__new__(cls)
        object.__setattr__(k, "canonical", canonical)
        return k

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.canonical.q, self.canonical.p)

    def __str__(self) -> str:
        return str(self.canonical)


def _orbit(p: int, q: int) -> tuple[int, int, int, int]:
    inv = pow(p, -1, q)
    return (p, inv, q - p, q - inv)


def canonical_fraction(f: Fraction) -> KnotClass:
    """The knot class that f represents; q >= 3 is required."""
    return KnotClass(f)


def same_knot(a: Fraction, b: Fraction) -> bool:
    """True when two fractions represent the same 2-bridge knot."""
    return canonical_fraction(a) == canonical_fraction(b)
