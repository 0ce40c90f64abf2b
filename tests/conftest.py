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
