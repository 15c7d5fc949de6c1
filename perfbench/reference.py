"""Fixed reference program: the yardstick for the machine's speed.

    python3 perfbench/reference.py

run.py times this program between every two jobs and divides each job's
wall time by the reference times around it (``pass_rel``).  The machine
this benchmark runs on changes speed by up to 2x for minutes at a time;
a job and the reference run seconds apart slow down alike, so the ratio
holds still where the raw wall time does not.

It must never change with the package under test: it imports nothing
from it and reads no input.  Its work has the shape of a CLI run:
interpreter start-up, the numpy import, then parsing float text into
tuples, sorting, hashing and a staircase scan in pure Python.
"""

import numpy  # noqa: F401  (the CLI imports numpy at start-up too)

N = 40_000


def main():
    lines = [f"{(i * 7919) % 100_003 / 7.0!r} {(i * 104_729) % 100_019 / 3.0!r}"
             for i in range(N)]
    points = [tuple(float(t) for t in line.split()) for line in lines]
    points = sorted(set(points), key=lambda p: (-p[0], -p[1]))
    sky, best = [], float("-inf")
    for x, y in points:
        if y > best:
            sky.append((x, y))
            best = y
    return len(sky)


if __name__ == "__main__":
    main()
