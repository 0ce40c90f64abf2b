"""Divisor-count bounds on how many knots can sit below a knot.

A knot strictly greater than m pairwise-distinct nontrivial knots needs
at least ``least_odd_with_divisors(m)`` crossings: the least positive
odd integer with at least m nontrivial proper divisors (divisors other
than 1 and the number itself).  Conversely a torus knot with q crossings
sits strictly above exactly one knot per nontrivial proper divisor of q,
so the bound is attained at ``least_odd_with_divisors(m)`` exactly when
the next value of the sequence is strictly larger.

The divisor count of 3^a 5^b 7^c ... is (a + 1)(b + 1)(c + 1)..., which
depends on the exponents alone.  Giving the larger of two exponents to
the smaller prime, or replacing a prime by an unused smaller odd prime,
keeps the divisor count and lowers the value.  So the least odd
integer with at least a given number of divisors, and the least among
the odd integers up to a given size with the most divisors, both have
the form 3^a 5^b 7^c ... over consecutive odd primes with
a >= b >= c >= ...  This is Ramanujan's argument for highly composite
numbers (Proc. London Math. Soc. 1915).  One search over those exponent
vectors answers both questions; nothing is tabulated or kept between
calls.

The same bounds squeeze EK(n) for ``epimorphism_number(n,
mode="assisted")``: the ceiling ``most_divisors_up_to(n)`` against the
torus knot 1/n and the lift of 1/9 (``_assisted_ek``).  The squeeze needs
no knot, so this module imports nothing but ``_value``, and ``ek N
--assisted`` loads no other layer where the squeeze settles.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ._value import Value

__all__ = [
    "CmEntry",
    "bound_entry",
    "bound_table",
    "ek_exact_at_bound",
    "least_odd_with_divisors",
    "most_divisors_up_to",
    "nontrivial_proper_divisor_count",
]


def nontrivial_proper_divisor_count(n: int, target: int | None = None) -> int:
    """The number of nontrivial proper divisors of n (excluding 1 and n).

    With ``target``, the trial factorisation stops as soon as the count
    can no longer reach target, and returns a value below target that is
    still at least the count.  Every prime factor of the unfactored
    cofactor exceeds the last trial divisor d, so once d^k exceeds the
    cofactor it has fewer than k prime factors and fewer than 2^k
    divisors.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    if n == 1:
        return 0
    # multiply (e + 1) over a trial factorisation; odd n skips even trials
    count = 1
    d, step = (3, 2) if n % 2 else (2, 1)
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        count *= e + 1
        if target is not None:
            # the cofactor must supply need divisors; k is least with 2^k >= need
            need = -(-(target + 2) // count)
            k = (need - 1).bit_length()
            if d**k > n:
                return count * 2 ** (k - 1) - 2
        d += step
    if n > 1:
        count *= 2
    return count - 2


def _add_odd_prime(primes: list[int], prefix: list[int]) -> None:
    """Append the next odd prime to primes and the next product to prefix."""
    c = primes[-1] + 2
    while any(c % p == 0 for p in primes if p * p <= c):
        c += 2
    primes.append(c)
    prefix.append(prefix[-1] * c)


def _divisor_ceiling(
    primes: list[int], prefix: list[int], i: int, room: int, e: int | None
) -> int:
    """An upper bound on the divisor count of any D <= room of the form
    primes[i]^f_i * primes[i+1]^f_(i+1) * ... with e >= f_i >= f_(i+1) >= ...

    D uses at most k consecutive primes from primes[i], where k primes is
    the most whose product fits in room, and has at most s prime factors,
    where primes[i]^s fits.  The first factor of a prime doubles the
    divisor count, each further one multiplies it by at most 3/2, and no
    prime contributes more than e + 1.
    """
    fits = room * prefix[i]
    while prefix[-1] <= fits:
        _add_odd_prime(primes, prefix)
    k = bisect_right(prefix, fits, i) - 1 - i  # room >= 1, so prefix[i] fits
    p = primes[i]
    s = int(room.bit_length() / math.log2(p)) + 1  # p^s <= room < 2^bits; the + 1 covers rounding
    while p**s > room:
        s -= 1
    bound = 2**k * 3 ** (s - k) // 2 ** (s - k)
    return bound if e is None else min(bound, (e + 1) ** k)


# By the exchange argument in the module docstring, only the exponent
# vectors 3^a 5^b 7^c ... with a >= b >= c >= ... need a look.  The
# search walks them depth first, one prime per level, largest exponent
# first.  The incumbent starts as a product of the first k odd primes
# (2^k divisors).  A branch is dropped once its value passes the
# incumbent's (or limit), or once _divisor_ceiling shows that it cannot
# reach the incumbent's divisor count.
def _exponent_search(need: int, limit: int | None = None) -> tuple[int, int]:
    """The least odd n <= limit maximising min(tau(n), need), with tau(n).

    tau counts every divisor.  With no limit the answer is the least odd
    n with tau(n) >= need; with need above limit it is the least odd
    n <= limit with the most divisors.
    """
    primes, prefix = [3], [1, 3]  # prefix[j] is the product of primes[:j]
    best_v, best_t = 1, 1
    while best_t < need and (limit is None or prefix[-1] <= limit):
        best_v, best_t = prefix[-1], 2 * best_t
        _add_odd_prime(primes, prefix)
    # a node is (prime index, value, divisor count, largest exponent allowed)
    stack: list[tuple[int, int, int, int | None]] = [(0, 1, 1, None)]
    while stack:
        i, v, t, e = stack.pop()
        if (min(t, need), -v) > (min(best_t, need), -best_v):
            best_v, best_t = v, t
        goal = min(best_t, need)
        cap = best_v - 1 if best_t >= need else limit  # the largest value worth reaching
        if v > cap or t * _divisor_ceiling(primes, prefix, i, cap // v, e) < goal:
            continue
        p, w, f = primes[i], v * primes[i], 1  # _divisor_ceiling has listed primes[i]
        while w <= cap and (e is None or f <= e):
            stack.append((i + 1, w, t * (f + 1), f))
            w, f = w * p, f + 1
    return best_v, best_t


def least_odd_with_divisors(m: int) -> int:
    """The least positive odd integer with at least m nontrivial proper divisors.

    The m = 0 value is 3 by convention (the trefoil's crossing number),
    not 1.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return _exponent_search(m + 2)[0]


def most_divisors_up_to(n: int) -> int:
    """The most nontrivial proper divisors of an odd integer <= n; 0 below 3.

    This is the largest m with ``least_odd_with_divisors(m) <= n``.
    """
    if n < 3:
        return 0
    return _exponent_search(n + 1, n)[1] - 2


def ek_exact_at_bound(m: int) -> bool:
    """True when the divisor bound is tight at its own threshold.

    Exactly the case ``least_odd_with_divisors(m + 1) >
    least_odd_with_divisors(m)``: then the maximal number of knots below
    any knot with ``least_odd_with_divisors(m)`` crossings is m itself.
    The least odd n with at least m + 2 divisors is also the least with
    at least m + 3 exactly when it has more than m + 2, so one search
    decides the case: n has exactly m + 2 divisors.

    Nothing in the library calls it (``ek --assisted`` squeezes between
    the bounds without it); it stays public as the test of where the
    paper's divisor bound is tight.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return _exponent_search(m + 2)[1] == m + 2


def _assisted_lower_bound(n: int, upper: int) -> int:
    """The certified lower bound on EK(n) when it reaches ``upper``, else a value below it.

    The torus knot 1/n has one knot below it per nontrivial proper
    divisor of n; counting them stops early, with some value below the
    divisor-bound ceiling ``upper``, once the count cannot reach it.
    For n >= 27 the 3-fold lift of 1/9 to n crossings lies above 1/9,
    and 1/9 lies above 1/3, so EK(n) >= 2 (the test suite checks that
    lift at n = 27..59).
    """
    best = nontrivial_proper_divisor_count(n, upper) if n % 2 and n >= 3 else 0
    return max(best, 2) if n >= 27 else best


def _assisted_ek(n: int) -> int | None:
    """EK(n) where the divisor bounds alone settle it, else None.

    The squeeze of ``epimorphism_number(n, mode="assisted")``: EK(n) is
    at most ``most_divisors_up_to(n)``, the divisor-bound ceiling, and
    is that ceiling when it is 0 or when ``_assisted_lower_bound``
    reaches it.
    """
    if n < 3:
        raise ValueError(f"no 2-bridge knots below 3 crossings, got n = {n}")
    upper = most_divisors_up_to(n)
    if upper == 0 or _assisted_lower_bound(n, upper) == upper:
        return upper
    return None


class CmEntry(Value):
    """One row of the divisor-bound table."""

    __slots__ = ("m", "value")
    m: int
    value: int

    def __init__(self, m: int, value: int) -> None:
        self._fill(m, value)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "value": self.value}


def bound_entry(m: int) -> CmEntry:
    return CmEntry(m, least_odd_with_divisors(m))


def bound_table(m: int) -> tuple[CmEntry, ...]:
    """``bound_entry(k)`` for k = 0..m, with one search per distinct value.

    ``least_odd_with_divisors`` is nondecreasing, so its value x at row k
    also fills every later row up to x's own count of nontrivial proper
    divisors, and the next search starts past them.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    rows: list[CmEntry] = []
    while len(rows) <= m:
        k = len(rows)
        value, tau = _exponent_search(k + 2)
        rows.extend(CmEntry(j, value) for j in range(k, min(tau - 2, m) + 1))
    return tuple(rows)
