"""Answers the benchmark checks against, computed without the package.

Everything here is written from the definitions (a vector parses with
respect to b as b, c_1, +/-b', c_2, ..., +/-b with an odd number of
tiles; a knot p/q is the class of p under p ~ +/-p^(+/-1) mod q), so a
wrong answer from the library cannot also be the expected answer.  The
searches are iterative, so long vectors cannot exhaust the stack.
"""

from __future__ import annotations

import math
import random


def class_count(n: int) -> int:
    """Number of 2-bridge knots with n >= 3 crossings, mirror images identified.

    Ernst and Sumners, The growth of the number of prime knots,
    Math. Proc. Camb. Phil. Soc. 102 (1987): (2^(n-3) + e(n)) / 3 with
    e(n) depending on n mod 4.
    """
    if n < 3:
        raise ValueError(f"no 2-bridge knots below 3 crossings, got {n}")
    r = n % 4
    if r == 0:
        e = 2 ** ((n - 4) // 2)
    elif r == 1:
        e = 2 ** ((n - 3) // 2)
    elif r == 2:
        e = 2 ** ((n - 4) // 2) - 1
    else:
        e = 2 ** ((n - 3) // 2) + 1
    total = 2 ** (n - 3) + e
    if total % 3:
        raise AssertionError(f"closed form is not integral at n = {n}")
    return total // 3


def neg(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-a for a in v)


def orbit(v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct vectors among v, -v, reverse(v), -reverse(v)."""
    out: list[tuple[int, ...]] = []
    for w in (v, neg(v), v[::-1], neg(v[::-1])):
        if w not in out:
            out.append(w)
    return out


_RANK = {2: 0, 0: 1, -2: 2}


def representative(v: tuple[int, ...]) -> tuple[int, ...]:
    """Class representative: least orbit member when entries rank 2 < 0 < -2."""
    return min(orbit(v), key=lambda w: [_RANK[a] for a in w])


def fraction_of(terms) -> tuple[int, int]:
    """[a_1, ..., a_k] with integer part 0, as a reduced (p, q) with q > 0."""
    p, q = 0, 1
    for a in reversed(terms):
        p, q = q, a * q + p
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return p // g, q // g


def knot(p: int, q: int) -> tuple[int, int]:
    """Canonical (p, q) of the knot p/q: least of p, p^-1, -p, -p^-1 mod q."""
    p %= q
    inv = pow(p, -1, q)
    return min(p, inv, q - p, q - inv), q


def knot_of_vector(v) -> tuple[int, int]:
    return knot(*fraction_of(v))


def crossing_number(v) -> int:
    total = changes = prev = 0
    for a in v:
        if a:
            total += 2
            if prev and a != prev:
                changes += 1
            prev = a
    return total - changes


def _connectors(a: tuple[int, ...], pos: int) -> list[tuple[int, int]]:
    """(value, length) of every connector that can start at a[pos]."""
    if pos >= len(a):
        return []
    s = a[pos]
    if s == 0:
        return [(0, 1)]
    out = [(s, 1)]
    j, m = pos + 1, 1
    while j + 1 < len(a) and a[j] == 0 and a[j + 1] == s:
        m += 1
        out.append((s * m, 2 * m - 1))
        j += 2
    return out


def _tiles(b: tuple[int, ...]) -> dict[tuple[int, int], tuple[int, ...]]:
    # key (tile index parity, sign): odd tiles read b, even tiles read b reversed
    return {(1, 1): b, (1, -1): neg(b), (0, 1): b[::-1], (0, -1): neg(b[::-1])}


def parses(a: tuple[int, ...], b: tuple[int, ...], min_fold: int = 3) -> bool:
    """True when a parses with respect to b with an odd fold >= min_fold.

    Forward reachability over states (end of tile, tile count capped at
    min_fold by parity, sign of the last tile).
    """
    la, lb = len(a), len(b)
    if lb == 0 or lb > la or a[:lb] != b:
        return False
    tiles = _tiles(b)
    states: dict[int, set[tuple[int, int]]] = {lb: {(1, 1)}}
    for pos in range(lb, la + 1):
        here = states.pop(pos, None)
        if not here:
            continue
        for count, sign in here:
            if pos == la:
                if count % 2 and count >= min_fold:
                    return True
                continue
            nxt = count + 1 if count < min_fold else min_fold + (count + 1 - min_fold) % 2
            for c, clen in _connectors(a, pos):
                start = pos + clen
                for s in (1, -1):
                    if c == 0 and s != sign:
                        continue
                    if a[start : start + lb] == tiles[((count + 1) % 2, s)]:
                        states.setdefault(start + lb, set()).add((nxt, s))
    return False


def parsing_cuts(a: tuple[int, ...], b: tuple[int, ...], limit: int = 10_000) -> list[tuple[int, ...]]:
    """Interior block boundaries of every parsing of a w.r.t. b (fold 1 included).

    A boundary is a 1-based cut-after-entry position: after each tile and
    after each connector.  Raises when more than ``limit`` parsings exist.
    """
    la, lb = len(a), len(b)
    if lb == 0 or lb > la or a[:lb] != b:
        return []
    tiles = _tiles(b)
    # back[(pos, parity, sign)] = predecessors (prev_state, connector_end)
    back: dict[tuple[int, int, int], list[tuple[tuple[int, int, int], int]]] = {}
    start_state = (lb, 1, 1)
    reached = {start_state}
    for pos in range(lb, la):
        for parity in (1, 0):
            for sign in (1, -1):
                st = (pos, parity, sign)
                if st not in reached:
                    continue
                for c, clen in _connectors(a, pos):
                    start = pos + clen
                    for s in (1, -1):
                        if c == 0 and s != sign:
                            continue
                        if a[start : start + lb] == tiles[(1 - parity, s)]:
                            nst = (start + lb, 1 - parity, s)
                            reached.add(nst)
                            back.setdefault(nst, []).append((st, start))
    out: list[tuple[int, ...]] = []
    stack = [((la, 1, s), ()) for s in (1, -1) if (la, 1, s) in reached]
    while stack:
        st, cuts = stack.pop()
        if st == start_state:
            out.append(cuts)
            if len(out) > limit:
                raise RuntimeError(f"more than {limit} parsings")
            continue
        for prev, conn_end in back.get(st, ()):
            stack.append((prev, (prev[0], conn_end) + cuts))
    return out


def smaller_set(v: tuple[int, ...]) -> set[tuple[int, int]]:
    """Every knot strictly below the knot of v, as canonical (p, q).

    Scans even-length prefixes of each orbit member.  A fold >= 3
    parsing ends with +/- the base, so prefixes that the vector does not
    end with are skipped before searching.
    """
    out: set[tuple[int, int]] = set()
    for a in orbit(v):
        la = len(a)
        for blen in range(2, (la - 2) // 3 + 1, 2):
            b = a[:blen]
            if b[-1] == 0:
                continue
            tail = a[la - blen :]
            if tail != b and tail != neg(b):
                continue
            if parses(a, b):
                out.add(knot_of_vector(b))
    return out


def greater(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when the knot of a lies strictly above the knot of b."""
    if representative(a) == representative(b):
        return False
    return any(parses(w, b) for w in orbit(a))


def relation(a: tuple[int, ...], b: tuple[int, ...]) -> str:
    if representative(a) == representative(b):
        return "equal"
    if greater(a, b):
        return "greater"
    return "less" if greater(b, a) else "incomparable"


def torus(q: int) -> tuple[int, ...]:
    return tuple(2 if i % 2 == 0 else -2 for i in range(q - 1))


def torus_relation(a: int, b: int) -> str:
    """Order of the torus knots 1/a and 1/b: 1/a > 1/b exactly when b | a."""
    if a == b:
        return "equal"
    if a % b == 0:
        return "greater"
    return "less" if b % a == 0 else "incomparable"


def random_vector(rng: random.Random, length: int) -> tuple[int, ...]:
    """A uniform-ish random valid expanded even vector of even length >= 2."""
    out = [rng.choice((2, -2))]
    while len(out) < length:
        i = len(out)
        if out[-1] == 0:
            out.append(out[-2])
        elif i == length - 1:
            out.append(rng.choice((2, -2)))
        else:
            out.append(rng.choice((2, -2, 0)))
    return tuple(out)


def connector(c: int) -> tuple[int, ...]:
    if c == 0:
        return (0,)
    s = 2 if c > 0 else -2
    return tuple(s if j % 2 == 0 else 0 for j in range(2 * (abs(c) // 2) - 1))


def assemble(base: tuple[int, ...], signs, connectors) -> tuple[int, ...]:
    """base, c_1, s_2 * base', c_2, s_3 * base, ... (signs[0] is +1)."""
    out = list(base)
    for i, (c, s) in enumerate(zip(connectors, signs[1:]), start=2):
        out.extend(connector(c))
        tile = base if i % 2 else base[::-1]
        out.extend(tile if s == 1 else neg(tile))
    return tuple(out)
