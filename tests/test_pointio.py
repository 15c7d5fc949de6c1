import io
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pareto_kcenter import pointio
from pareto_kcenter.geom import Point, PointSet
from pareto_kcenter.pointio import (PointFileError, fmt_coord, parse_points,
                                    read_point_file, write_points)

from conftest import SCALES

# Inputs on which the fast reader and parse_points could disagree.  The
# fast reader must either read them exactly as parse_points does or
# refuse them, so that parse_points reads them again.
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
    b"true 1\n",
    b"null 2\n",
    b"[1] 2\n",
    b"-0e0 1\n",
    b"123456789012345678901234567890 1\n",
    b"1 2\r3 4\r",
    b"+1 2\n",
    b".5 1.\n",
    b"01 -0\n",
    b"1 2\n3 4\n1e400 5\n6 7\n",
    b"1 2\n+1 2\n1e5e 3\n",
    b"1 2\n3 \n4 5\n",
    b"1 2\n 3\n 4\n",
    b"1 2\n3 \n 4\n",
    b"1 2\n3 # c\n",
]


def exact(P):
    """Coordinates with the sign of zero kept."""
    return [(p.x.hex(), p.y.hex()) for p in P]


def reference(path):
    """read_point_file with every file read by parse_points."""
    with mock.patch.object(pointio, "_load_columns", lambda fh: None):
        return read_point_file(path)


def outcome(read, path):
    """read's points as exact() gives them, or the text of its
    PointFileError."""
    try:
        return exact(read(str(path)))
    except PointFileError as exc:
        return str(exc)


@pytest.mark.parametrize("content", TRICKY, ids=repr)
def test_fast_parser_matches_parse_points(tmp_path, content):
    path = tmp_path / "in.txt"
    path.write_bytes(content)
    assert outcome(read_point_file, path) == outcome(reference, path)


def fast_rows(path):
    """The fast reader's rows, before dedup and the extent check, as hex;
    None if it refuses the file."""
    with open(path, "rb") as fh:
        xy = pointio._load_columns(fh)
    return None if xy is None else [(x.hex(), y.hex()) for x, y in xy.tolist()]


def reference_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [(p.x.hex(), p.y.hex()) for p in parse_points(fh)]


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FORMS = (repr, "{:.17g}".format, "{:.6e}".format)
BITS = st.integers(0, 2 ** 64 - 1).map(from_bits).filter(math.isfinite)
VALUES = st.one_of(
    st.builds(lambda scale, a, ulps: math.nextafter(a * scale, math.inf) if ulps
              else a * scale, SCALES, st.integers(-40, 40), st.booleans()),
    BITS)
TOKENS = st.one_of(
    st.builds(lambda form, v: form(v), st.sampled_from(FORMS), VALUES),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.integers(-2 ** 65, 2 ** 65).map(str),
    st.builds("{}{}e{}".format, st.sampled_from(["", "-"]),
              st.integers(0, 10 ** 40), st.integers(-345, 268)),
    st.sampled_from(["-0", "0", "-0.0"]),
    # Outside JSON's grammar: the block reader refuses them.
    st.sampled_from(["+1", ".5", "1.", "01", "-.5e3", "+0", "-01.e2"]))
GAP = st.sampled_from([" ", "\t", "  ", " \t "])
EDGE = st.sampled_from(["", "", " ", "\t"])
END = st.sampled_from(["\n", "\n", "\r\n", "\r"])
EXTRA = st.sampled_from(["", " ", "\t", "# a comment", "  # 1 2",
                         "# café, mm²"])


@st.composite
def point_files(draw):
    """Text of valid point files in every layout parse_points reads: blank
    and comment lines (some not ASCII), tabs, trailing comments, CRLF,
    lone CR, and no final line break.  Half of them have only the layout
    the block reader takes: one space or tab between two tokens a line."""
    plain = draw(st.booleans())
    lines = []
    for x, y in draw(st.lists(st.tuples(TOKENS, TOKENS), max_size=40)):
        if plain:
            lines.append(x + draw(st.sampled_from([" ", "\t"])) + y
                         + draw(END))
            continue
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(EXTRA) + draw(END))
        comment = " # c" if draw(st.integers(0, 4)) == 0 else ""
        lines.append(draw(EDGE) + x + draw(GAP) + y + draw(EDGE) + comment
                     + draw(END))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(point_files(), st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 16]))
@example("# a comment\n1 2\n", 1 << 16)
@example("1 2 # c\n3 4\n", 3)
@example("1 2\n\n3 4\n", 2)
@example("1  2\n3 \t 4\n", 5)
@example(" 1 2\n3 4 \n", 1 << 16)
@example("+1 .5\n1. 01\n", 1 << 16)
@example("1 2\r\n3 4\r\n", 3)
@example("1 2\r3 4\r", 2)
@example("1\t2\n3\t4\n", 1 << 16)
@example("1 2\n3 4", 8)
def test_fast_reader_matches_parse_points(text, block):
    # read_point_file gives what parse_points gives, and the block reader
    # gives the same rows or refuses the file.  Blocks of a few bytes put
    # most lines across block boundaries.
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(pointio, "BLOCK", block):
        path = os.path.join(d, "in.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert outcome(read_point_file, path) == outcome(reference, path)
        assert fast_rows(path) in (None, reference_rows(path))


def write_with_savetxt(rows, fh):
    np.savetxt(fh, np.array(rows, dtype=float).reshape(-1, 2), fmt="%.17g")


WRITERS = {
    "write_points": lambda rows, fh: write_points(
        [Point(x, y) for x, y in rows], fh),
    "savetxt": write_with_savetxt,
}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(BITS, BITS), max_size=30),
       st.sampled_from(sorted(WRITERS)), st.sampled_from(["\n", "\r\n", "\r"]),
       st.sampled_from([" ", "\t"]), st.sampled_from([1, 3, 64, 1 << 16]))
@example([(-0.0, 0.0), (5e-324, -1.7976931348623157e308)], "savetxt", "\n",
         " ", 1 << 16)
def test_written_files_take_the_one_pass(rows, writer, newline, gap, block):
    # The files that write_points and np.savetxt write, the benchmark's
    # inputs among them, are read by the block reader, not by
    # parse_points, with any of the line breaks and either gap.
    buf = io.StringIO()
    WRITERS[writer](rows, buf)
    text = buf.getvalue().replace(" ", gap).replace("\n", newline)
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(pointio, "BLOCK", block):
        path = os.path.join(d, "in.txt")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        got = fast_rows(path)
        assert got is not None
        assert got == reference_rows(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("first", ["0 0.5\n", "+0 0.5\n", "0_0 0.5\n"])
def test_pipe_is_read_once(tmp_path, first):
    # A pipe cannot be read twice: a "0_0", which the fast reader refuses
    # and float() reads as 0, makes parse_points read the same bytes.
    text = first + "".join(f"{i} {-i}.5\n" for i in range(1, 5000))
    path = tmp_path / "pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,),
                              daemon=True)
    writer.start()
    try:
        P = read_point_file(str(path))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert P.xy.tolist() == [[i, -i - 0.5 if i else 0.5] for i in range(5000)]


def test_file_that_grows_while_read_is_refused(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("1 2\n")

    class GrowsOnFirstRead(io.BufferedReader):
        def read(self, size=-1):
            if not getattr(self, "grown", False):
                self.grown = True
                with open(path, "a") as fh:
                    fh.write("3 4\n5 6\n")
            return super().read(size)

    with GrowsOnFirstRead(io.FileIO(path)) as fh:
        assert pointio._load_columns(fh) is None
    assert exact(read_point_file(str(path))) == [
        (float(x).hex(), float(x + 1).hex()) for x in (1, 3, 5)]


def imported_by(*args) -> set[str]:
    """The modules a fresh interpreter imports to run args."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=env, check=True, capture_output=True, text=True)
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()}


@pytest.mark.parametrize("args", [["-m", "pareto_kcenter", "--version"],
                                  ["-c", "import pareto_kcenter.cli"]])
def test_start_up_leaves_orjson_unimported(args):
    # Nor anything else that only some commands use: the digest's
    # hashlib (and OpenSSL), --json's json, gen's and bench's generators
    # and plot's SVG writer.
    imported = imported_by(*args)
    assert "pareto_kcenter.pointio" in imported
    assert imported.isdisjoint({"orjson", "hashlib", "json",
                                "pareto_kcenter.instances",
                                "pareto_kcenter.svgplot"})


def test_decide_leaves_hashlib_unimported(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("0 1\n1 0\n")
    imported = imported_by("-m", "pareto_kcenter", "decide", str(path),
                           "--k", "1", "--lam", "2")
    assert "orjson" in imported  # the block reader ran
    assert "hashlib" not in imported


def test_plain_file_skips_parse_points(tmp_path, monkeypatch):
    path = tmp_path / "in.txt"
    path.write_text("0.5 -0\n3 4\n0.5 0\n")

    def refuse(_):
        raise AssertionError("parse_points called on a plain file")

    monkeypatch.setattr(pointio, "parse_points", refuse)
    P = read_point_file(str(path))
    assert exact(P) == [((0.5).hex(), (-0.0).hex()), ((3.0).hex(), (4.0).hex())]
    assert P.xy.tolist() == [[0.5, -0.0], [3.0, 4.0]]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 16])
def test_crlf_file_skips_parse_points(tmp_path, monkeypatch, block):
    # Reads of 1, 2, 3 and 5 bytes split CRLFs across reads.
    lines = ["0.5 -0", "3 4", "-1e-300 7.25", "12 -3"] * 50
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes("\n".join(lines).encode() + b"\n")
    crlf.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    want = reference_rows(lf)

    def refuse(_):
        raise AssertionError("parse_points called on a CRLF file")

    monkeypatch.setattr(pointio, "parse_points", refuse)
    monkeypatch.setattr(pointio, "BLOCK", block)
    assert fast_rows(crlf) == fast_rows(lf) == want
    assert exact(read_point_file(str(crlf))) == exact(read_point_file(str(lf)))


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
