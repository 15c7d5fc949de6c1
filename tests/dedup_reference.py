"""Plain reference for the point set's deduplication: the package's
first_occurrences as it ran before its early exits, renumbering every
input whether or not a row is dropped.  The tests check PointSet's rows
and order against it, bit for bit.
"""

import numpy as np


def first_occurrences(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    """
    by_x = np.argsort(xy[:, 0])
    sx = xy[by_x, 0]
    tie = sx[1:] == sx[:-1]
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
