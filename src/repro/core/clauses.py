"""The one clause grammar behind ``--faults``, ``--scenario``, ``--workload``
and ``--trace-filter``.

::

    spec   := clause (";" clause)*          empty clauses are skipped
    clause := head ["=" arg] ["@" [start] [":" [end]]]
    pairs  := key ":" value ("," key ":" value)*
    value  := scalar ("+" scalar)*          a "+"-list

A scalar is ``true``/``false`` (any case), an int, a finite float, or else
the bare string; ``nan``, ``inf`` and overflowing literals such as
``1e999`` are errors, not strings.  A window ``@start:end`` is ``[start,
end)`` in simulated ms: ``start`` defaults to 0 and an empty ``end`` leaves
it open; :func:`~repro.core.config.check_window` is its one rule.  Each
flag's module gives meaning to the heads and arguments; every error is a
:class:`ConfigurationError` naming the flag and the offending clause.  The
user-facing reference is "Clause grammar" in ``docs/scenarios.md``.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .config import check_window
from .errors import ConfigurationError


class Clause(NamedTuple):
    """One ``head[=arg][@start:end]`` clause; ``where`` names its flag and text."""

    where: str
    head: str
    arg: str | None  # None without "=", "" for a bare "="
    start: float
    end: float | None

    def error(self, problem: str) -> ConfigurationError:
        return ConfigurationError(f"{self.where}: {problem}")


def split_clauses(text: str, what: str) -> list[Clause]:
    """The ``;``-separated clauses of ``text``, windows parsed."""
    clauses = []
    for item in filter(None, map(str.strip, text.split(";"))):
        body, at, window = item.partition("@")
        head, eq, arg = body.partition("=")
        where = f"{what} clause {item!r}"
        start, end = split_window(window, where) if at else (0.0, None)
        clauses.append(Clause(where, head.strip(), arg.strip() if eq else None, start, end))
    return clauses


def split_window(text: str, where: str) -> tuple[float, float | None]:
    """``start[:end]`` as a checked ``(start, end)``; ``end`` ``None`` is open."""
    lo, _, hi = (part.strip() for part in text.partition(":"))
    start = scalar(lo, f"{where}: window start", float) if lo else 0.0
    end = scalar(hi, f"{where}: window end", float) if hi else None
    check_window(f"{where}: window", start, end)
    return start, end


def split_pairs(text: str, what: str) -> dict[str, str]:
    """``key:value,…`` as a dict of stripped value texts (read them with
    :func:`scalar`); empty items are skipped, a repeated key is an error."""
    pairs: dict[str, str] = {}
    for item in filter(None, map(str.strip, text.split(","))):
        key, colon, value = (part.strip() for part in item.partition(":"))
        if not (key and colon and value) or key in pairs:
            raise ConfigurationError(f"{what}: bad or repeated entry {item!r}; expected key:value")
        pairs[key] = value
    if not pairs:
        raise ConfigurationError(f"{what}: empty parameter list; expected key:value,...")
    return pairs


def scalar(text: str, what: str, number: type | None = None) -> Any:
    """``text`` read by the scalar rule (a ``+``-list of them when it holds
    a ``+``).  With ``number`` (``int`` or ``float``) it must read as that
    kind of number (``"3"`` reads as ``3.0`` for a float)."""
    if "+" in text and number is None:
        return [scalar(part, what) for part in text.split("+")]
    value: Any = text
    if number is None and text.lower() in ("true", "false"):
        value = text.lower() == "true"
    else:
        for kind in (int, float) if number is None else (number,):
            try:
                value = kind(text)
                break
            except ValueError:
                pass
    non_finite = type(value) is float and not math.isfinite(value)
    if non_finite or type(value) is str and number is not None:
        kind_text = "an integer" if number is int else "a finite number"
        raise ConfigurationError(f"{what} must be {kind_text}, got {text!r}")
    return value
