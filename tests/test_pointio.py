import random

import numpy as np
import pytest

from pareto_kcenter import pointio
from pareto_kcenter.geom import Point, PointSet
from pareto_kcenter.pointio import (PointFileError, fmt_coord, parse_points,
                                    read_point_file)

# Inputs on which numpy's parser and parse_points could disagree.  The
# fast path must either read them exactly as parse_points does or refuse
# them, so that parse_points reads them again.
TRICKY = [
    b"1 2\n",
    b"1_0 2\n",
    "１ ２\n".encode(),  # full-width digits
    b"nan 1\n",
    b"-nan 1\n",
    b"inf 1\n",
    b"infinity 1\n",
    b"1e400 1\n",
    b"1 2 3\n",
    b"1\n",
    b"1 2\n3\n",
    b"1\x1c2\n",
    b"1 2\x1e\n",
    b"",
    b"# only a comment\n\n",
    b"  \n",
    "\xa01 2\n".encode(),
    "1　2\n".encode(),
    "﻿1 2\n".encode(),  # byte-order mark
    b"-0 0\n",
    b"0 -0\n-0 -0\n",
    b"1,2\n",
    b"0x1p3 1\n",
    b"1d5 1\n",
    b"+1 -2\n",
    b"1. .5\n",
    b".e1 2\n",
    b"1.5e 2\n",
    b"1e5 2E-3\n",
    b"1e+05 2\n",
    b"00012 3\n",
    b"0.1e-400 5\n",
    b"1e-320 1\n",
    b"1 2 # trailing comment\n3 4\n",
    b"1 2#x\n",
    b"1\t2\n",
    b"1\x0b2\n",
    b"1\x0c2\n",
    b"1 2\r\n3 4\r\n",
    b"1 2\r3 4\n",
    b" 1  2 \n\n\n3 4\n",
    b"'1' 2\n",
    b'"1" 2\n',
    b"1 2\x00\n",
    b"0.1 0.2\n0.30000000000000004 1e-300\n",
    b"1 2\n1 2\n2 1\n",
]


def exact(P):
    """Coordinates with the sign of zero kept."""
    return [(p.x.hex(), p.y.hex()) for p in P]


def reference(path):
    with open(path, "r", encoding="utf-8") as fh:
        return PointSet(parse_points(fh))


@pytest.mark.parametrize("content", TRICKY, ids=repr)
def test_fast_parser_matches_parse_points(tmp_path, content):
    path = tmp_path / "in.txt"
    path.write_bytes(content)
    try:
        want = exact(reference(path))
    except PointFileError as exc:
        want = str(exc)
    try:
        got = exact(read_point_file(str(path)))
    except PointFileError as exc:
        got = str(exc)
    assert got == want


def test_plain_file_skips_parse_points(tmp_path, monkeypatch):
    path = tmp_path / "in.txt"
    path.write_text("# header\n0.5 -0\n3 4\n0.5 0\n")

    def refuse(_):
        raise AssertionError("parse_points called on a plain file")

    monkeypatch.setattr(pointio, "parse_points", refuse)
    P = read_point_file(str(path))
    assert exact(P) == [((0.5).hex(), (-0.0).hex()), ((3.0).hex(), (4.0).hex())]
    assert P.xy.tolist() == [[0.5, -0.0], [3.0, 4.0]]


@pytest.mark.parametrize("content", [b"1 2\n\xff 3\n", b"\xff\xfe1 2\n",
                                     b"1 2\n# caf\xe9\n"])
def test_non_utf8_is_a_point_file_error(tmp_path, content):
    path = tmp_path / "in.txt"
    path.write_bytes(content)
    with pytest.raises(PointFileError, match="not UTF-8"):
        read_point_file(str(path))


@pytest.mark.parametrize("content", ["1e200 1\n-1e200 2\n",
                                     "0 1e200\n0 -1e200\n",
                                     "1.7e308 0\n-1.7e308 0\n",
                                     "1e154 0\n0 1e154\n-1e154 -1e154\n"])
def test_overflowing_extent_refused(tmp_path, content):
    path = tmp_path / "in.txt"
    path.write_text(content)
    with pytest.raises(PointFileError, match="range"):
        read_point_file(str(path))


@pytest.mark.parametrize("content", ["1e200 1\n1e200 2\n",
                                     "1e150 0\n-1e150 1e150\n",
                                     "-1.7e308 5\n"])
def test_wide_but_finite_extent_accepted(tmp_path, content):
    path = tmp_path / "in.txt"
    path.write_text(content)
    assert len(read_point_file(str(path))) == len(content.splitlines())


def first_wins(coords):
    """The dedup contract, spelled out: first occurrence of each value
    (0.0 equal to -0.0), in input order."""
    seen = set()
    out = []
    for x, y in coords:
        if (x, y) not in seen:
            seen.add((x, y))
            out.append((x.hex(), y.hex()))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_dedup_first_occurrence_wins(tmp_path, seed):
    rng = random.Random(seed)
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** 60, -1e-300]

    def coord():
        return rng.choice(pool) if rng.random() < 0.8 else rng.random()

    coords = [(coord(), coord()) for _ in range(rng.randint(1, 400))]
    want = first_wins(coords)
    path = tmp_path / "in.txt"
    path.write_text("".join(f"{fmt_coord(x)} {fmt_coord(y)}\n"
                            for x, y in coords))
    assert exact(read_point_file(str(path))) == want
    assert exact(PointSet([Point(x, y) for x, y in coords])) == want
    assert exact(PointSet(np.array(coords))) == want


def test_dedup_keeps_the_given_point_objects():
    pts = [Point(1.0, 2.0), Point(0.0, 0.0), Point(1.0, 2.0), Point(-0.0, 0.0)]
    P = PointSet(pts)
    assert len(P) == 2
    assert P.points[0] is pts[0] and P.points[1] is pts[1]
    assert not P.xy.flags.writeable
