"""Planar points and the base of the package's immutable records, the
deduplicated point set, the skyline's two ends and staircases.

Conventions used throughout the package:

* A point dominates another when both of its coordinates are >= the
  other's; every point dominates itself.
* "Highest, ties toward larger x" and "rightmost, ties toward larger y"
  are the two total orders that pick the skyline's ends.
* All distance comparisons are done on squared Euclidean distances.
  Radii (lambda) enter the API already squared; with integer-ish inputs
  every comparison is then exact in 64-bit floats.
"""

from __future__ import annotations

from math import isfinite
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyInput, FrozenRecord

_set = object.__setattr__


class Record:
    """Base of the package's immutable records.  A subclass names its
    fields, in order, as its ``__slots__`` and sets them in ``__init__``
    with ``_fill``; after that, assigning or deleting any attribute
    raises FrozenRecord.  Two records are equal when they are of the
    same class with equal fields, hash by their fields, and print as
    ``Name(field=value, ...)``."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise FrozenRecord(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise FrozenRecord(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # for copy and pickle, which would setattr
        return type(self), self._fields()


class Point(Record):
    """A finite planar point.  The hottest record: its fields are set
    through their slot descriptors and compared without tuples."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"non-finite coordinate: ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y))


_set_x, _set_y = Point.x.__set__, Point.y.__set__


def dist_sq(p: Point, q: Point) -> float:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def first_occurrences(xy: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Indices of the first occurrence of each distinct row of an (m, 2)
    float array, in increasing order, and the (x, y) order of the kept
    rows, each numbered by its place among them.

    Rows are equal when both coordinates compare equal as floats, so 0.0
    and -0.0 are one value.  Equal rows share x, so only rows whose x
    occurs more than once (found by one unstable sort on x) need the
    stable lexsort, which keeps equal rows in input order: the first row
    of each run of equal neighbours is the first occurrence.  Written
    back into their places in the x-sort, the lexsorted rows complete it
    to an (x, y) order.

    When no x is shared, no row repeats and the x-sort already is the
    (x, y) order: it is returned with no lexsort or renumbering, and
    with None for the indices, as every row is kept.
    """
    by_x = np.argsort(xy[:, 0])
    sx = xy[by_x, 0]
    tie = sx[1:] == sx[:-1]
    if not tie.any():
        return None, by_x
    shared = np.zeros(len(by_x), dtype=bool)
    shared[1:] = tie
    shared[:-1] |= tie
    rows = np.sort(by_x[shared])
    order = rows[np.lexsort((xy[rows, 1], xy[rows, 0]))]
    by_x[shared] = order
    s = xy[order]
    repeat = (s[1:, 0] == s[:-1, 0]) & (s[1:, 1] == s[:-1, 1])
    keep = np.ones(len(by_x), dtype=bool)
    keep[order[1:][repeat]] = False
    renumber = np.cumsum(keep) - 1
    return np.flatnonzero(keep), renumber[by_x[keep[by_x]]]


class PointSet:
    """Input point set with exact coordinate duplicates removed.

    Duplicates would eject each other from the skyline under strict
    dominance, so they are dropped at ingestion (first occurrence wins;
    input order is otherwise preserved, which fixes the grouping used by
    the partitioned algorithms).

    Built from Points or from an (m, 2) float array of finite
    coordinates whose squared extent (max x - min x)^2 +
    (max y - min y)^2 is finite: a set where it overflows is refused,
    since no squared distance between its points could be computed.
    ``xy`` holds the kept coordinates as a read-only float
    array, the set's own copy: it never aliases or freezes a caller's
    array.  The algorithms work on it and make Points only for their
    results.  ``order`` is the read-only permutation of xy's rows by
    (x, y) that deduplication leaves: the skylines scan it instead of
    sorting again.  ``points[i]`` is row i as a Point: the caller's own
    object when built from Points, otherwise made on first use of
    ``points``.
    """

    __slots__ = ("xy", "order", "_points")

    def __init__(self, points: Iterable[Point] | np.ndarray):
        if isinstance(points, np.ndarray):
            given = None
            xy = np.array(points, dtype=np.float64).reshape(-1, 2)
            if not np.isfinite(xy).all():
                x, y = xy[np.argmin(np.isfinite(xy).all(axis=1))].tolist()
                raise ValueError(f"non-finite coordinate: ({x}, {y})")
        else:
            given = list(points)
            xy = np.array([(p.x, p.y) for p in given],
                          dtype=np.float64).reshape(-1, 2)
        if len(xy):
            dx = float(xy[:, 0].max()) - float(xy[:, 0].min())
            dy = float(xy[:, 1].max()) - float(xy[:, 1].min())
            if not isfinite(dx * dx + dy * dy):
                raise ValueError("coordinate range too wide: the squared "
                                 "extent overflows a 64-bit float")
        keep, order = first_occurrences(xy)
        if keep is not None:
            xy = xy[keep]
            if given is not None:
                given = [given[i] for i in keep.tolist()]
        xy.flags.writeable = False
        order.flags.writeable = False
        self.xy: np.ndarray = xy
        self.order: np.ndarray = order
        self._points: tuple[Point, ...] | None = (
            None if given is None else tuple(given))

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = tuple(map(Point, self.xy[:, 0].tolist(),
                                     self.xy[:, 1].tolist()))
        return self._points

    def __len__(self) -> int:
        return len(self.xy)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def require_nonempty(self) -> None:
        if not len(self.xy):
            raise EmptyInput("point set is empty")


def extremes(P: PointSet) -> tuple[Point, Point]:
    """The two ends of sky(P): the highest point (ties toward larger x)
    and the rightmost point (ties toward larger y), which is the last in
    P's (x, y) order."""
    x, y = P.xy[:, 0], P.xy[:, 1]
    top = np.flatnonzero(y == y.max())
    p0 = Point(*P.xy[top[np.argmax(x[top])]].tolist())
    q0 = Point(*P.xy[P.order[-1]].tolist())
    return p0, q0


class SkylineArray:
    """Skyline points sorted by strictly increasing x (so strictly
    decreasing y), stored as the columns ``xs`` and ``ys``.  Built from
    Points, it keeps them; from the columns (xs, ys), it makes Points on
    first use of ``pts``, indexing or iteration."""

    __slots__ = ("xs", "ys", "_pts")

    def __init__(self, pts: Iterable[Point] = (), cols=None):
        self._pts: tuple[Point, ...] | None = None if cols else tuple(pts)
        self.xs, self.ys = cols or ([p.x for p in self._pts],
                                    [p.y for p in self._pts])

    @property
    def pts(self) -> tuple[Point, ...]:
        if self._pts is None:
            self._pts = tuple(map(Point, self.xs, self.ys))
        return self._pts

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i):
        return self.pts[i]

    def __iter__(self) -> Iterator[Point]:
        return iter(self.pts)

    def __eq__(self, other) -> bool:
        return isinstance(other, SkylineArray) and self.pts == other.pts

    def __repr__(self) -> str:
        return f"SkylineArray({list(self.pts)!r})"
