"""On-disk formats: metric tables, tree descriptions, request/config lists.

Metric file: first non-comment token is n, followed by the n*(n-1)/2
upper-triangle distances in row-major order, whitespace-separated.  Tree
file: a `mu` line (integer or p/q) and a `branching` line with per-level
child counts.  Requests and configurations are whitespace-separated point
ids.  Every integer in a file, a point count, a branching count or a point
id, is a `parse_int` literal.  Lines starting with '#' are comments.
Parsers report the offending line on failure and re-validate every
structural invariant on load.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .metric import FiniteMetric, HstSpace, build_hst


class ParseError(ValueError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _content_lines(path: str) -> list[tuple[int, str]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                out.append((i, stripped))
    return out


def _tokens_with_lines(path: str) -> list[tuple[int, str]]:
    toks = []
    for lineno, text in _content_lines(path):
        for tok in text.split():
            toks.append((lineno, tok))
    return toks


_INT = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(_INT.pattern + r"(/[0-9]+)?")


def parse_int(text: str) -> int:
    """A decimal integer literal, an optional sign and ASCII digits alone.

    The one parser of integers in text: underscores (`1_0`), other digits
    (`١`), spaces, decimal points, exponents and prefixes such as `0x3`,
    which the builtin `int` takes or reads as another number, are refused.
    """
    if _INT.fullmatch(text) is None:
        raise ValueError(f"expected an integer, got {text}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """An integer or `p/q` literal as an exact Fraction.

    Decimal and exponent forms such as `1.5` or `1e3` are rejected, as is a
    zero denominator: every input is meant to be exact.
    """
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError(f"bad rational {text!r}, expected integer or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {text!r}, zero denominator") from None


def _parse_rational(path: str, lineno: int, tok: str, what: str) -> Fraction:
    try:
        return parse_rational(tok)
    except ValueError:
        raise ParseError(path, lineno, f"bad {what} {tok!r}, expected integer or p/q") from None


def load_metric(path: str) -> FiniteMetric:
    toks = _tokens_with_lines(path)
    if not toks:
        raise ParseError(path, 1, "empty metric file")
    lineno, tok = toks[0]
    try:
        n = parse_int(tok)
    except ValueError:
        raise ParseError(path, lineno, f"bad point count {tok!r}") from None
    if n < 1:
        raise ParseError(path, lineno, f"point count must be >= 1, got {n}")
    expected = n * (n - 1) // 2
    rest = toks[1:]
    if len(rest) != expected:
        where = rest[-1][0] if rest else lineno
        raise ParseError(path, where,
                         f"expected {expected} distances for n={n}, got {len(rest)}")
    values = []
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    for (ln, tk), (i, j) in zip(rest, pairs):
        d = _parse_rational(path, ln, tk, "distance")
        if d <= 0:
            raise ParseError(path, ln, f"dist({i},{j}) = {d}, must be positive")
        values.append(d)
    try:
        return FiniteMetric.from_upper_triangle(n, values)
    except (ValueError, TypeError) as exc:
        raise ParseError(path, lineno, str(exc)) from None


def load_hst(path: str) -> HstSpace:
    mu = None
    branching = None
    for lineno, text in _content_lines(path):
        fields = text.split()
        key = fields[0]
        if key == "mu":
            if mu is not None:
                raise ParseError(path, lineno, f"repeated mu line (first at line {mu_line})")
            if len(fields) != 2:
                raise ParseError(path, lineno, "mu line needs exactly one value")
            mu = _parse_rational(path, lineno, fields[1], "mu")
            mu_line = lineno
        elif key == "branching":
            if branching is not None:
                raise ParseError(path, lineno,
                                 f"repeated branching line (first at line {branching_line})")
            if len(fields) < 2:
                raise ParseError(path, lineno, "branching line needs at least one count")
            try:
                branching = [parse_int(f) for f in fields[1:]]
            except ValueError:
                raise ParseError(path, lineno, "branching counts must be integers") from None
            branching_line = lineno
        else:
            raise ParseError(path, lineno, f"unknown field {key!r}, expected mu or branching")
    if mu is None:
        raise ParseError(path, 1, "missing mu line")
    if branching is None:
        raise ParseError(path, 1, "missing branching line")
    if mu <= 1:
        raise ParseError(path, mu_line, f"mu must be > 1, got {mu}")
    try:
        return build_hst(branching, mu)
    except ValueError as exc:  # a count below 1, or too many leaves
        raise ParseError(path, branching_line, str(exc)) from None


def _point_ids(path: str, n: int) -> list[tuple[int, int]]:
    """Point ids with the line of each."""
    out = []
    for lineno, tok in _tokens_with_lines(path):
        try:
            r = parse_int(tok)
        except ValueError:
            raise ParseError(path, lineno, f"bad point id {tok!r}") from None
        if not (0 <= r < n):
            raise ParseError(path, lineno, f"point id {r} out of range [0, {n})")
        out.append((lineno, r))
    return out


def load_requests(path: str, n: int) -> list[int]:
    return [r for _, r in _point_ids(path, n)]


def load_configuration(path: str, n: int) -> frozenset:
    seen: set[int] = set()
    for lineno, r in _point_ids(path, n):
        if r in seen:
            raise ParseError(path, lineno, f"configuration points must be distinct, "
                                           f"point {r} repeats")
        seen.add(r)
    return frozenset(seen)
