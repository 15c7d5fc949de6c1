"""Operation counters used by the scaling checks and the bench command.

Counting is aggregated at call sites (one ``add`` per loop, not per element)
so the hot paths stay cheap.  Counters are diagnostics only; algorithm
results never depend on them.
"""

from __future__ import annotations


class Counters:
    __slots__ = ("data",)

    def __init__(self):
        self.data: dict[str, int] = {}

    def add(self, key: str, amount: int = 1) -> None:
        self.data[key] = self.data.get(key, 0) + amount

    def get(self, key: str) -> int:
        return self.data.get(key, 0)

    def reset(self) -> None:
        self.data.clear()

    def snapshot(self) -> dict[str, int]:
        return dict(self.data)


# Process-wide instance.  Tests snapshot/diff around single calls.
counters = Counters()


def sort_charge(m: int) -> int:
    """Deterministic comparison charge for sorting m items (~m log2 m)."""
    if m <= 1:
        return 0
    return m * (m - 1).bit_length()
