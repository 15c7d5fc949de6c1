"""Point-file format: one point per line, two floats separated by
whitespace; '#' starts a comment; blank lines are ignored.  Files are
UTF-8 text.  A file whose squared extent (max x - min x)^2 +
(max y - min y)^2 overflows is refused, since no squared distance
between its points could be computed.

Coordinates are written with 17 significant digits, which round-trips
64-bit floats exactly.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, TextIO

import numpy as np

from .geom import Point, PointSet


class PointFileError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")


def fmt_coord(x: float) -> str:
    return format(x, ".17g")


def parse_points(stream: Iterable[str]) -> list[Point]:
    points = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PointFileError(f"expected two coordinates, got {len(parts)}",
                                 line_no)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise PointFileError(f"bad number in {line!r}", line_no) from None
        try:
            points.append(Point(x, y))
        except ValueError as exc:
            raise PointFileError(str(exc), line_no) from None
    return points


def _load_columns(fh: TextIO) -> np.ndarray | None:
    """The file's points as an (m, 2) float array, or None when numpy's
    parser refuses the file or reads it as anything other than m rows of
    two finite numbers.  Where it accepts, it agrees with parse_points;
    every refused file is read again by parse_points."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xy = np.loadtxt(fh, comments="#", ndmin=2, dtype=np.float64)
    except (ValueError, Warning):
        return None
    if xy.shape[1:] != (2,) or not np.isfinite(xy).all():
        return None
    return xy


def read_point_file(path: str) -> PointSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            xy = _load_columns(fh)
            if xy is not None:
                P = PointSet(xy)
            else:
                fh.seek(0)
                P = PointSet(parse_points(fh))
    except UnicodeDecodeError as exc:
        raise PointFileError(f"not UTF-8 text: {exc.reason}") from None
    if len(P):
        dx = float(P.xy[:, 0].max()) - float(P.xy[:, 0].min())
        dy = float(P.xy[:, 1].max()) - float(P.xy[:, 1].min())
        if not math.isfinite(dx * dx + dy * dy):
            raise PointFileError("coordinate range too wide: the squared "
                                 "extent overflows a 64-bit float")
    return P


def write_points(points: Iterable[Point], out: TextIO) -> None:
    for p in points:
        out.write(f"{fmt_coord(p.x)} {fmt_coord(p.y)}\n")
