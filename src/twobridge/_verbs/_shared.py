"""What more than one verb runs: the knots below a vector, seam bases, and the field reports."""

from __future__ import annotations

from ..cli import _as_vector


def _below(v: SEvenVector) -> list[KnotClass]:
    from ..parsing import smaller_knots

    return sorted(smaller_knots(v), key=lambda k: k.sort_key)


def _seam_bases(v: SEvenVector, wrt: list[str] | None) -> list[KnotClass]:
    from ..vectors import knot_from_vector

    if wrt:
        return sorted({knot_from_vector(_as_vector(t)) for t in wrt}, key=lambda k: k.sort_key)
    bases = _below(v)
    if not bases:
        raise ValueError("no knots lie strictly below this vector; pass --wrt explicitly")
    return bases


def _render(value) -> tuple[str, object]:
    """The text and JSON forms of one report value."""
    from ..rationals import EvenCF, KnotClass
    from ..vectors import SEvenVector

    if isinstance(value, SEvenVector):
        value = value.entries
    if isinstance(value, (KnotClass, EvenCF)):
        return str(value), str(value)
    if isinstance(value, (tuple, list)):
        if value and isinstance(value[0], KnotClass):
            return " ".join(map(str, value)), [str(k) for k in value]
        return ",".join(map(str, value)), list(value)
    return str(value), value


def _report(fields, tail=(), **json_only):
    """The handler result for (name, value) fields, text-only tail lines and JSON-only keywords."""
    lines, payload = [], {}
    for name, value in fields:
        text, payload[name.replace("-", "_")] = _render(value)
        lines.append(f"{name}: {text}")
    payload.update((key, _render(value)[1]) for key, value in json_only.items())
    return "\n".join([*lines, *tail]), payload, 0


def _knot_fields(v: SEvenVector) -> list[tuple[str, object]]:
    from ..vectors import crossing_number, knot_from_vector

    knot, n = knot_from_vector(v), crossing_number(v)
    return [("vector", v), ("fraction", knot), ("crossing-number", n)]
