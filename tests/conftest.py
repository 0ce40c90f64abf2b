"""Shared independent oracles for the test suite.

Everything here is deliberately written from the definitions, without
calling into the package, so that tests compare two separate routes to
the same answer.  The acceptance module reports one PASS/FAIL line per
criterion through the terminal-summary hook at the bottom.
"""

import fractions
import math


def oracle_vectors(n):
    """Every valid expanded even vector of length n, generated directly.

    Constraints restated: entries in {-2, 0, 2}, ends nonzero, every zero
    flanked by equal nonzero entries (so no two zeros are adjacent).
    """
    out = []

    def step(prefix):
        at = len(prefix)
        if at == n:
            out.append(tuple(prefix))
            return
        if prefix and prefix[-1] == 0:
            step(prefix + [prefix[-2]])  # zero forces the matching neighbor
            return
        for e in (2, -2):
            step(prefix + [e])
        if prefix and at < n - 1:
            step(prefix + [0])

    step([])
    return out


def oracle_count(n):
    """Closed-form count of valid vectors of length n.

    k nonzero entries leave n-k zeros spread over distinct gaps between
    consecutive nonzero entries: C(k-1, n-k) placements; each zero-free
    gap is a free sign change, giving 2^(1 + (k-1) - (n-k)) sign
    patterns.
    """
    return sum(
        math.comb(k - 1, n - k) * 2 ** (2 * k - n)
        for k in range((n + 1) // 2, n + 1)
    )


def ernst_sumners_count(n):
    """Number of 2-bridge knots with n >= 3 crossings, mirror images identified.

    Ernst and Sumners, The growth of the number of prime knots, Math.
    Proc. Camb. Phil. Soc. 102 (1987): (2^(n-3) + e(n)) / 3, where e(n)
    is 2^((n-4)/2) for n = 0 mod 4, 2^((n-3)/2) for n = 1, 2^((n-4)/2) - 1
    for n = 2 and 2^((n-3)/2) + 1 for n = 3.
    """
    e = {
        0: 2 ** ((n - 4) // 2),
        1: 2 ** ((n - 3) // 2),
        2: 2 ** ((n - 4) // 2) - 1,
        3: 2 ** ((n - 3) // 2) + 1,
    }[n % 4]
    total, rest = divmod(2 ** (n - 3) + e, 3)
    assert rest == 0, f"closed form is not integral at n = {n}"
    return total


def oracle_knot(entries):
    """(p, q) of the knot a vector denotes, from the definitions.

    Evaluates [a_1, ..., a_k] = 1/(a_1 + 1/(a_2 + ...)) right to left over
    stdlib fractions, then takes the least member of the orbit
    {p, -p, p^-1, -p^-1} mod q.
    """
    val = fractions.Fraction(0)
    for a in reversed(entries):
        val = 1 / (a + val)
    q = val.denominator
    p, inv = val.numerator % q, pow(val.numerator, -1, q)
    return min(p, q - p, inv, q - inv), q


def euclid_quotient_sum(p, q):
    """Sum of quotients of the Euclidean algorithm on q/p."""
    total = 0
    p %= q
    while p:
        total += q // p
        q, p = p, q % p
    return total


def all_reduced(limit):
    """(p, q) for every reduced fraction with odd denominator 3 <= q <= limit."""
    for q in range(3, limit + 1, 2):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield p, q


def connector_entries(c):
    """Entry run for an even connector value: (0) or +-(2, 0, ..., 2)."""
    if c == 0:
        return (0,)
    s = 2 if c > 0 else -2
    out = []
    for j in range(abs(c) // 2):
        if j:
            out.append(0)
        out.append(s)
    return tuple(out)


def oracle_assemble(base, signs, connectors):
    """Assemble a parsing by brute force: tiles alternate orientation,
    even tiles are reversed, negative signs negate the tile."""
    fwd = tuple(base)
    bwd = fwd[::-1]
    out = list(fwd)
    for i, (c, s) in enumerate(zip(connectors, signs[1:]), start=2):
        out.extend(connector_entries(c))
        tile = fwd if i % 2 else bwd
        out.extend(tile if s == 1 else tuple(-x for x in tile))
    return tuple(out)


def oracle_borders(entries, start, hi):
    """The even lengths L, start <= L < hi, whose prefix of entries ends
    nonzero and equals the last L entries or their negation, compared
    entry by entry."""
    n = len(entries)
    out = []
    for blen in range(start, hi, 2):
        if entries[blen - 1] == 0:
            continue
        for sign in (1, -1):
            if all(entries[i] == sign * entries[n - blen + i] for i in range(blen)):
                out.append(blen)
                break
    return out


def oracle_alexander(p, q):
    """Coefficients of the Alexander polynomial of the 2-bridge knot p/q,
    lowest degree first, up to a unit +-t^k.

    Delta(t) = sum over k < q of (-1)^k t^sigma_k, with sigma_k the sum
    over 1 <= i <= k of (-1)^floor(i p / q), for p made odd by adding q.
    """
    if p % 2 == 0:
        p += q
    sigma, exponents = 0, [0]
    for i in range(1, q):
        sigma += -1 if i * p // q % 2 else 1
        exponents.append(sigma)
    low = min(exponents)
    coeffs = [0] * (max(exponents) - low + 1)
    for k, e in enumerate(exponents):
        coeffs[e - low] += -1 if k % 2 else 1
    while not coeffs[-1]:
        coeffs.pop()
    while not coeffs[0]:
        coeffs.pop(0)
    return coeffs


def oracle_even_terms(p, q):
    """The all-even continued fraction [a_1, ..., a_k] of the knot p/q, odd q.

    p is taken as p or p - q, whichever is even, so the value lies in
    (-1, 1) with integer part 0.  Each term is the even integer within 1
    of the reciprocal of what is left: that reciprocal is a ratio of an
    odd and an even integer or an even integer, never an odd one, so
    there is no tie.
    """
    n, d = (p if p % 2 == 0 else p - q), q
    terms = []
    while n:
        a = 2 * round(fractions.Fraction(d, 2 * n))
        terms.append(a)
        n, d = d - a * n, n
    return terms


def oracle_conway_alexander(p, q):
    """Coefficients of the Alexander polynomial of the 2-bridge knot p/q,
    lowest degree first, up to a unit +-t^k, from the Conway polynomial.

    With [a_1, ..., a_k] the even expansion of p/q, nabla(z) is the
    continuant K(a_1 z/2, -a_2 z/2, a_3 z/2, ...), signs alternating,
    which holds only even powers of z.  Substituting z^2 = t - 2 + t^-1
    gives Delta(t): with w_j the coefficient of z^2j and D the top j,
    t^D Delta is the sum of w_j (t - 1)^2j t^(D-j), taken by Horner's
    rule.  The cost is O(k^2) integer steps whatever the size of q, so
    this reaches vectors far past the sum formula of oracle_alexander.
    """
    prev, cur = [0], [1]  # the continuants of the terms so far, as coefficients in z
    for i, a in enumerate(oracle_even_terms(p, q)):
        x = a // 2 if i % 2 == 0 else -a // 2
        nxt = [0] + [x * c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] += c
        prev, cur = cur, nxt
    w = cur[::2]
    delta = [w[-1]]
    for c in reversed(w[:-1]):  # delta <- delta (t - 1)^2 + c t^(D - j), its middle degree
        nxt = [0] * (len(delta) + 2)
        for i, d in enumerate(delta):
            nxt[i] += d
            nxt[i + 1] -= 2 * d
            nxt[i + 2] += d
        nxt[len(nxt) // 2] += c
        delta = nxt
    while not delta[-1]:
        delta.pop()
    while not delta[0]:
        delta.pop(0)
    return delta


def oracle_poly_remainder(num, den):
    """The remainder of num by den, coefficient lists lowest degree first,
    by long division, in integers while each step of the quotient is one
    and over fractions.Fraction from the first step that is not.

    den's last coefficient must be nonzero.  A zero step of the quotient
    is skipped, so a sparse quotient costs little however long num is.
    """
    rem, n = list(num), len(den)
    for shift in reversed(range(len(num) - n + 1)):
        top = rem[shift + n - 1]
        c = top // den[-1] if top % den[-1] == 0 else fractions.Fraction(top, den[-1])
        if c:
            rem[shift : shift + n] = [r - c * d for r, d in zip(rem[shift : shift + n], den)]
    return rem[: n - 1]


ACCEPTANCE_LINES = []


def record_acceptance(cid, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {cid}: {tag}" + (f" - {detail}" if detail else "")
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
