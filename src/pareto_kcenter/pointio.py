"""Point-file format: one point per line, two floats separated by
whitespace; '#' starts a comment; blank lines are ignored.  Files are
UTF-8 text.  A file whose squared extent (max x - min x)^2 +
(max y - min y)^2 overflows is refused, since no squared distance
between its points could be computed.

Coordinates are written with 17 significant digits, which round-trips
64-bit floats exactly.

read_point_file reads a file in one pass of blocks of whole lines
(_load_columns) when every line is two finite floats in JSON's number
grammar with one space or tab between them and nothing else, ended by
LF, CRLF or CR: the files that write_points and np.savetxt write.  One
orjson.loads parses each block's numbers; they agree with float() bit
for bit, and a "-0" gets back the sign that orjson drops.  Every other
file (a comment, a blank line, a run of whitespace or whitespace at an
end of a line, a "+1", ".5", "1.", "01", "1_0", "inf" or "1e400" token,
a byte that is not ASCII, a line of one or three tokens) is read again
from the start by parse_points, the reference: the same points at about
10x the time, and the line of any error named.  So is a file that grows
while it is read.  A pipe is read into memory whole first, so that it
can be read again.
"""

from __future__ import annotations

import io
from typing import BinaryIO, Iterable, TextIO

import numpy as np

from .geom import Point, PointSet

# Bytes of each read of the fast reader.  Of the sizes tried on 250,000
# points, 64 KiB was the fastest, and it keeps the blocks' temporaries
# small beside the output array.
BLOCK = 1 << 16
_NUMBER = b"0123456789+-.eE"
_TAB_AS_SPACE = bytes.maketrans(b"\t", b" ")
_COMMAS = bytes.maketrans(b" \t\n", b",,,")


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


def _blocks(fh: BinaryIO):
    """The file's bytes in blocks of whole lines, each holding the lines
    that end within one read of BLOCK bytes, with every CRLF and then
    every other CR made an LF: each ends a line.  A read that ends in a
    CR takes one byte more, so that no CRLF is split."""
    head = []
    while chunk := fh.read(BLOCK):
        if chunk.endswith(b"\r"):
            chunk += fh.read(1)
        if b"\r" in chunk:  # one memchr; the two-byte search costs 20x that
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = chunk.rfind(b"\n") + 1
        if cut:
            head.append(chunk[:cut])
            yield b"".join(head)
            head = []
        head.append(chunk[cut:])
    if tail := b"".join(head):
        yield tail + b"\n"


def _numbers(block: bytes) -> list | None:
    """The numbers of block, whole lines, in order, from one orjson.loads;
    None unless each line is two tokens of number bytes with one space or
    tab between them and every token is a JSON number that is finite as
    a float.  Deleting the number bytes must leave one space or tab and
    one LF per line; where that space is at an end of its line, the
    commas that replace the whitespace stand two together or at an end of
    the list, which orjson refuses, as it refuses a token outside JSON's
    grammar ("+1", ".5", "1.", "01") or one that overflows ("1e400")."""
    import orjson  # here, so that start-up does not pay its import

    skeleton = block.translate(_TAB_AS_SPACE, _NUMBER)
    if skeleton != b" \n" * (len(skeleton) // 2):
        return None
    try:
        return orjson.loads(b"[" + block.translate(_COMMAS)[:-1] + b"]")
    except orjson.JSONDecodeError:
        return None


def _load_columns(fh: BinaryIO) -> np.ndarray | None:
    """The file's points as an (m, 2) float array, read in one pass with
    one parse attempt per block (_numbers), or None when a block is
    refused: every such file is read again by parse_points, which gives
    the same points at about 10x the time.  Where it accepts, it agrees
    with parse_points bit for bit, the sign of zero included.

    The values go into one array sized for the most a file of this size
    can hold, two bytes a value, whose pages never written are never
    touched.
    """
    out = np.empty((fh.seek(0, io.SEEK_END) + 1) // 2)
    fh.seek(0)
    n = 0
    for block in _blocks(fh):
        values = _numbers(block)
        if values is None:
            return None
        end = n + len(values)
        if end > len(out):  # the file grew while it was read
            return None
        got = out[n:end]
        got[:] = values
        zeros = np.flatnonzero(got == 0).tolist()
        if zeros:
            tokens = block.split()
            for i in zeros:
                if tokens[i].startswith(b"-"):  # orjson reads -0 as the int 0
                    got[i] = -0.0
        n = end
    return out[:n].reshape(-1, 2)


def read_point_file(path: str) -> PointSet:
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: held whole, to be read again if refused
            fh = io.BytesIO(fh.read())
        xy = _load_columns(fh)
        if xy is None:
            fh.seek(0)
            try:
                xy = parse_points(io.TextIOWrapper(fh, encoding="utf-8"))
            except UnicodeDecodeError as exc:
                raise PointFileError(f"not UTF-8 text: {exc.reason}") from None
    try:
        return PointSet(xy)
    except ValueError as exc:  # finite coordinates, so a too-wide extent
        raise PointFileError(str(exc)) from None


def write_points(points: Iterable[Point], out: TextIO) -> None:
    for p in points:
        out.write(f"{fmt_coord(p.x)} {fmt_coord(p.y)}\n")
