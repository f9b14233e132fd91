import math

import numpy as np
import pytest

from noma_pep import Constellation, bit_errors, qpsk_constellation


def test_qpsk_points_unit_power():
    c = qpsk_constellation(1.0)
    expected = [
        complex(1, 1) / math.sqrt(2),
        complex(-1, 1) / math.sqrt(2),
        complex(-1, -1) / math.sqrt(2),
        complex(1, -1) / math.sqrt(2),
    ]
    got = sorted(c.points, key=lambda p: (round(p.real, 9), round(p.imag, 9)))
    want = sorted(expected, key=lambda p: (round(p.real, 9), round(p.imag, 9)))
    np.testing.assert_allclose(got, want, atol=1e-15)
    assert all(abs(abs(p) ** 2 - 1.0) < 1e-12 for p in c.points)


def test_qpsk_power_scaling():
    c = qpsk_constellation(4.0)
    assert all(abs(abs(p) ** 2 - 4.0) < 1e-12 for p in c.points)
    assert abs(np.mean(np.abs(c.points_array()) ** 2) - 4.0) < 1e-12


def test_qpsk_gray_adjacency():
    c = qpsk_constellation(1.0)
    # Neighbors in angular order differ in exactly one bit.
    order = sorted(range(4), key=lambda i: np.angle(c.points[i]))
    for i in range(4):
        a, b = order[i], order[(i + 1) % 4]
        assert bit_errors(c, a, b) == 1


def test_bit_error_table():
    c = qpsk_constellation(1.0)
    assert bit_errors(c, 0, 0) == 0
    assert bit_errors(c, 0, 1) == 1
    assert bit_errors(c, 0, 2) == 2  # antipodal
    assert bit_errors(c, 1, 3) == 2
    total = sum(
        bit_errors(c, a, b) for a in range(4) for b in range(4) if a != b
    )
    assert total == 16


def test_symbol_difference():
    s = 1 / math.sqrt(2)
    x = complex(s, s)
    assert x - x == 0
    assert abs((x - complex(-s, s)) - math.sqrt(2)) < 1e-15
    anti = x - complex(-s, -s)
    assert abs(anti - math.sqrt(2) * complex(1, 1)) < 1e-12
    assert abs(abs(anti) ** 2 - 4.0) < 1e-12


def test_symbol_difference_antisymmetric():
    c = qpsk_constellation(1.0)
    for a in c.points:
        for b in c.points:
            assert a - b == -(b - a)


def test_invalid_power_rejected():
    with pytest.raises(ValueError):
        qpsk_constellation(0.0)
    with pytest.raises(ValueError):
        qpsk_constellation(-1.0)


def test_index_out_of_range():
    c = qpsk_constellation(1.0)
    with pytest.raises(IndexError):
        bit_errors(c, 0, 4)


def test_constellation_validation():
    with pytest.raises(ValueError):
        Constellation(points=(1 + 0j, -1 + 0j, 1j), bit_labels=("0", "1", "2"),
                      avg_power=1.0)
    with pytest.raises(ValueError):
        Constellation(points=(1 + 0j, -1 + 0j), bit_labels=("0", "0"),
                      avg_power=1.0)
    with pytest.raises(ValueError):
        Constellation(points=(1 + 0j, -1 + 0j), bit_labels=("0", "1"),
                      avg_power=2.0)
