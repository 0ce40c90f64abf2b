"""Divisor-count lower bounds.

Oracle: an independent sieve over odd integers that tallies divisors by
marking multiples (array of counts, no trial division), plus a naive
set-comprehension divisor counter for spot values.  The frozen table
below (m = 0..14) is what both oracles produce.  Values past the sieve's
reach are checked with a trial-division divisor count over small odd
factors.
"""

import threading

import pytest

from twobridge import (
    CmEntry,
    bound_entry,
    bound_table,
    ek_exact_at_bound,
    least_odd_with_divisors,
    most_divisors_up_to,
    nontrivial_proper_divisor_count,
)

# least odd integer with at least m nontrivial proper divisors, m = 0..14
KNOWN_TABLE = (3, 9, 15, 45, 45, 105, 105, 225, 315, 315, 315, 945, 945, 945, 945)


def naive_count(n):
    return len({d for d in range(2, n) if n % d == 0})


def smooth_count(n):
    """Nontrivial proper divisors of an odd n with no prime factor above 1000."""
    tau, d = 1, 3
    while n > 1 and d < 1000:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        tau *= e + 1
        d += 2
    assert n == 1, "value has a prime factor above 1000"
    return tau - 2


def sieve_first_with(limit):
    """first[m] = least odd n <= limit with >= m nontrivial divisors."""
    counts = [0] * (limit + 1)
    for d in range(2, limit // 2 + 1):
        for mult in range(2 * d, limit + 1, d):
            counts[mult] += 1
    first = [3]
    for n in range(3, limit + 1, 2):
        c = counts[n]
        while len(first) <= c:
            first.append(n)
    return first


def test_divisor_count_frozen():
    assert nontrivial_proper_divisor_count(45) == 4
    assert nontrivial_proper_divisor_count(9) == 1
    assert nontrivial_proper_divisor_count(1) == 0
    assert nontrivial_proper_divisor_count(7) == 0
    assert nontrivial_proper_divisor_count(945) == 14


def test_divisor_count_naive_oracle():
    for n in range(1, 2000):
        want = naive_count(n)
        assert nontrivial_proper_divisor_count(n) == want
        # with a target the count is exact when it reaches the target,
        # and otherwise some value from the count up to below the target
        for target in range(40):
            got = nontrivial_proper_divisor_count(n, target)
            assert got == want if want >= target else want <= got < target, (n, target)
    with pytest.raises(ValueError):
        nontrivial_proper_divisor_count(0)


def test_table_frozen():
    for m, want in enumerate(KNOWN_TABLE):
        assert least_odd_with_divisors(m) == want
    with pytest.raises(ValueError):
        least_odd_with_divisors(-1)


def test_table_sieve_oracle():
    # acceptance runs the full 10^6 sweep; this keeps the unit suite fast
    first = sieve_first_with(20000)
    for m in range(len(first)):
        assert least_odd_with_divisors(m) == first[m]


def test_table_monotone_and_growth():
    # nondecreasing, and never more than tripling step to step: a value
    # n for m divisors gives 3n at least m + 2 of them
    vals = [least_odd_with_divisors(m) for m in range(31)]
    assert vals[20] == 3465
    assert vals[30] == 10395
    for a, b in zip(vals, vals[1:]):
        assert a <= b <= 3 * a


def test_table_large_m():
    # every m <= 2000, and m = 10**6 after its predecessor: odd, enough
    # divisors by an independent factor count, nondecreasing, and never
    # more than triple the previous value
    ms = list(range(2001)) + [10**6 - 1, 10**6]
    prev = None
    for m in ms:
        value = least_odd_with_divisors(m)
        assert value % 2 == 1, m
        assert smooth_count(value) >= m, m
        if prev is not None and prev[0] == m - 1:
            assert prev[1] <= value <= 3 * prev[1], m
        prev = (m, value)


def test_most_divisors_matches_m_by_m_definition():
    # the assisted-EK ceiling: the largest m with least_odd_with_divisors(m)
    # <= n, found before by stepping m up one at a time
    limit = 20001
    first = sieve_first_with(limit)
    for n in range(1, limit + 1):
        m = 0
        while m + 1 < len(first) and first[m + 1] <= n:
            m += 1
        assert most_divisors_up_to(n) == m, n


def test_divisor_count_large_odd():
    # (3 + 1)(2 + 1) * 2^5 divisors, two of the primes past 10^4
    n = 3**3 * 5**2 * 7 * 11 * 13 * 10007 * 1000003
    assert nontrivial_proper_divisor_count(n) == 4 * 3 * 2**5 - 2
    assert nontrivial_proper_divisor_count(1000003) == 0
    assert nontrivial_proper_divisor_count(1000003**2) == 1


def test_table_superadditive():
    # a knot above c_r + c_s many knots needs at least c_(r+s+1) crossings;
    # numerically: value(r) * value(s) >= value(r + s + 1)
    for r in range(11):
        for s in range(11):
            assert (
                least_odd_with_divisors(r) * least_odd_with_divisors(s)
                >= least_odd_with_divisors(r + s + 1)
            )


def test_table_values_factor_over_consecutive_odd_primes():
    # each table value is a product of powers of 3, 5, 7, ... with
    # nonincreasing exponents (no gaps), m <= 20
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    for m in range(21):
        n = least_odd_with_divisors(m)
        exps = []
        for p in primes:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            exps.append(e)
        assert n == 1
        assert exps == sorted(exps, reverse=True)


def test_bound_table_matches_per_row_values():
    # the one-pass table against a search per row: at every M up to 300,
    # and from there to 2000 at every M on either side of a change of
    # value, where the last row of a run of equal values is cut off
    per_row = [least_odd_with_divisors(m) for m in range(2001)]
    first = sieve_first_with(20000)
    assert per_row[: len(first)] == first
    ms = set(range(301))
    for m in range(300, 2001):
        if per_row[m] != per_row[m - 1]:
            ms |= {m - 2, m - 1, m, m + 1}
    for big_m in sorted(m for m in ms | {2000} if m <= 2000):
        table = bound_table(big_m)
        assert [e.m for e in table] == list(range(big_m + 1)), big_m
        assert [e.value for e in table] == per_row[: big_m + 1], big_m
    with pytest.raises(ValueError):
        bound_table(-1)


def test_ek_exact_at_bound():
    assert ek_exact_at_bound(4) is True  # 45 -> 105
    assert ek_exact_at_bound(3) is False  # 45 == 45
    assert ek_exact_at_bound(6) is True  # 105 -> 225
    assert ek_exact_at_bound(10) is True  # 315 -> 945
    assert ek_exact_at_bound(13) is False
    # the one-search form agrees with the two-search definition
    table = [least_odd_with_divisors(m) for m in range(302)]
    for m in range(301):
        assert ek_exact_at_bound(m) is (table[m + 1] > table[m])
    with pytest.raises(ValueError):
        ek_exact_at_bound(-1)


def test_bound_entry_json():
    assert bound_entry(5) == CmEntry(5, 105)
    assert bound_entry(5).to_json_dict() == {"m": 5, "value": 105}


def test_table_thread_safety_smoke():
    # concurrent cold reads beyond the cached range agree with a serial
    # recomputation
    results = {}

    def worker(m):
        results[m] = least_odd_with_divisors(m)

    threads = [threading.Thread(target=worker, args=(m,)) for m in range(40, 60)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first = sieve_first_with(200000)
    for m in range(40, 60):
        assert results[m] == first[m]
