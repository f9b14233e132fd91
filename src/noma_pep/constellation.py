"""Modulation alphabets and bit-error weights.

Everything downstream (conditional error probabilities, union bounds,
the link simulator) works on a :class:`Constellation`: a finite set of
complex points with Gray bit labels and a fixed average symbol power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Constellation",
    "qpsk_constellation",
    "bit_errors",
]


@dataclass(frozen=True)
class Constellation:
    """Symbol alphabet with bit labels and average power.

    points      complex symbol values, index order fixed
    bit_labels  one bit string per point, all distinct, equal length
    avg_power   mean of |point|^2 over the alphabet
    """

    points: tuple[complex, ...]
    bit_labels: tuple[str, ...]
    avg_power: float
    _bit_diff: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.points)
        if m < 2 or m & (m - 1):
            raise ValueError(f"constellation size must be a power of two, got {m}")
        if len(self.bit_labels) != m or len(set(self.bit_labels)) != m:
            raise ValueError("bit labels must be distinct, one per point")
        width = len(self.bit_labels[0])
        if any(len(b) != width for b in self.bit_labels) or width != int(math.log2(m)):
            raise ValueError("bit labels must all have length log2(M)")
        mean_power = float(np.mean(np.abs(np.asarray(self.points)) ** 2))
        if abs(mean_power - self.avg_power) > 1e-12 * max(1.0, self.avg_power):
            raise ValueError(
                f"avg_power mismatch: stated {self.avg_power}, actual {mean_power}"
            )
        # Hamming distances between labels, precomputed once.
        ints = [int(b, 2) for b in self.bit_labels]
        diff = np.array(
            [[bin(a ^ b).count("1") for b in ints] for a in ints], dtype=np.int64
        )
        object.__setattr__(self, "_bit_diff", diff)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(len(self.points)))

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.complex128)


# Fixed Gray mapping: 00 -> (+1+j), 01 -> (-1+j), 11 -> (-1-j), 10 -> (+1-j),
# scaled to the requested average power.  Any Gray map gives the same error
# sums; fixing one makes emitted tables bit-exactly reproducible.
_QPSK_LABELS = ("00", "01", "11", "10")
_QPSK_UNSCALED = (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)


def qpsk_constellation(avg_power: float = 1.0) -> Constellation:
    """Gray-labeled QPSK alphabet with the given average symbol power."""
    if not 0 < avg_power < math.inf:
        raise ValueError(f"average power must be finite and positive, got {avg_power}")
    scale = math.sqrt(avg_power / 2.0)
    points = tuple(scale * p for p in _QPSK_UNSCALED)
    return Constellation(points=points, bit_labels=_QPSK_LABELS, avg_power=avg_power)


def bit_errors(c: Constellation, x: int, x_hat: int) -> int:
    """Hamming distance between the bit labels of two symbol indices."""
    m = c.size
    if not (0 <= x < m and 0 <= x_hat < m):
        raise IndexError(f"symbol index out of range for M={m}: ({x}, {x_hat})")
    return int(c._bit_diff[x, x_hat])
