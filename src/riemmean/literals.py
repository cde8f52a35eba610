"""Textual point literals used by the CLI and point files.

Grammar (one point per line in files, ``#`` starts a comment):

* Euclidean / sphere / positive-diagonal points: comma-separated reals
  (unit vector for the sphere, positive entries for diagonals).
* SO(m) points: the m*m matrix entries, row-major, comma-separated.
* SPD matrices: row-major symmetric m*m entries, comma-separated.
* Product points: the factor literals joined by ``;``.

Floats are printed with 17 significant digits so printed points re-parse to
the same values.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .manifolds import Manifold, Point, Product, SpecialOrthogonal


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"bad numeric literal in {text!r}") from exc


def parse_point(manifold: Manifold, text: str) -> Point:
    """Parse one point literal for the given manifold."""
    text = text.strip()
    if isinstance(manifold, Product):
        parts = text.split(";")
        if len(parts) != len(manifold.factors):
            raise InvalidInputError(
                f"product literal has {len(parts)} factors, manifold has "
                f"{len(manifold.factors)}"
            )
        coords = manifold.join(
            [
                parse_point(f, part).coords
                for f, part in zip(manifold.factors, parts)
            ]
        )
        return manifold.point(coords)
    values = _parse_floats(text)
    if isinstance(manifold, SpecialOrthogonal):
        m = manifold.m
        if len(values) != m * m:
            raise InvalidInputError(
                f"SO({m}) literal needs {m * m} row-major entries, got {len(values)}"
            )
        return manifold.point(np.array(values).reshape(m, m))
    return manifold.point(np.array(values))


def format_point(manifold: Manifold, p: Point) -> str:
    """Inverse of `parse_point` (17 significant digits)."""
    if isinstance(manifold, Product):
        return ";".join(
            format_point(f, Point(f.manifold_id, part))
            for f, part in zip(manifold.factors, manifold.split(p.coords))
        )
    return ",".join(format(x, ".17g") for x in np.asarray(p.coords).ravel())


def parse_spd(text: str, m: int | None = None) -> np.ndarray:
    """Parse a row-major symmetric matrix literal."""
    values = _parse_floats(text)
    size = int(round(len(values) ** 0.5))
    if size * size != len(values):
        raise InvalidInputError(f"SPD literal length {len(values)} is not a square")
    if m is not None and size != m:
        raise InvalidInputError(f"expected a {m}x{m} matrix, got {size}x{size}")
    if not np.isfinite(values).all():
        raise InvalidInputError(f"SPD literal has a non-finite entry: {text!r}")
    return np.array(values).reshape(size, size)


def format_matrix(S: np.ndarray) -> str:
    return ",".join(format(x, ".17g") for x in np.asarray(S).ravel())


def _read_lines(path: str, parse, what: str) -> list:
    """``parse`` of every line of the file at ``path``, skipping ``#``
    comments and blank lines.  A refusal is prefixed with ``path:lineno``;
    a file without a value is refused as holding no ``what``."""
    values = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(parse(line))
            except InvalidInputError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    if not values:
        raise InvalidInputError(f"{path}: no {what} found")
    return values


def read_points_file(manifold: Manifold, path: str) -> list[Point]:
    """One point literal per line, read as `_read_lines` reads a file."""
    return _read_lines(path, lambda line: parse_point(manifold, line), "points")


def read_spd_file(path: str, m: int | None = None) -> list[np.ndarray]:
    """One SPD literal per line, each of size ``m`` when given, read as
    `_read_lines` reads a file."""
    return _read_lines(path, lambda line: parse_spd(line, m), "matrices")
