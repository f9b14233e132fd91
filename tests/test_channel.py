import math

import numpy as np
import pytest
from scipy.integrate import quad

from noma_pep import (
    ChannelModel,
    ordered_magnitude_pdf,
    ordered_snr_pdf,
    sample_ordered_channels,
)


def rayleigh_pdf(x, s2):
    return (x / s2) * np.exp(-(x**2) / (2 * s2))


def rayleigh_cdf(x, s2):
    return 1 - np.exp(-(x**2) / (2 * s2))


def test_single_user_is_plain_rayleigh():
    s2 = 0.7
    model = ChannelModel(sigma_h_sq=s2)
    w = np.linspace(0.01, 4, 50)
    np.testing.assert_allclose(
        ordered_magnitude_pdf(1, 1, model, w), rayleigh_pdf(w, s2), rtol=1e-12
    )
    sh = math.sqrt(s2)
    assert abs(
        ordered_magnitude_pdf(1, 1, model, sh) - math.exp(-0.5) / sh
    ) < 1e-14


def test_weakest_of_three_matches_min_rayleigh():
    # Minimum of 3 i.i.d. Rayleigh variables is Rayleigh with scale s2/3.
    s2 = 0.5
    model = ChannelModel(sigma_h_sq=s2)
    w = np.linspace(0.0, 3, 40)
    direct = 3 * rayleigh_pdf(w, s2) * (1 - rayleigh_cdf(w, s2)) ** 2
    np.testing.assert_allclose(ordered_magnitude_pdf(1, 3, model, w), direct,
                               rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(
        ordered_magnitude_pdf(1, 3, model, w), rayleigh_pdf(w, s2 / 3),
        rtol=1e-12, atol=1e-300,
    )


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_magnitude_density_normalizes(L):
    model = ChannelModel(sigma_h_sq=0.5)
    for l in range(1, L + 1):
        total, err = quad(
            lambda w: ordered_magnitude_pdf(l, L, model, w), 0, np.inf,
            limit=200
        )
        assert abs(total - 1.0) < 1e-8


def test_magnitude_mixture_identity():
    # Summing the ordered densities over ranks recovers L times the
    # underlying density.
    model = ChannelModel(sigma_h_sq=0.8)
    w = np.linspace(0.01, 4, 30)
    mix = sum(ordered_magnitude_pdf(l, 4, model, w) for l in range(1, 5))
    np.testing.assert_allclose(mix, 4 * rayleigh_pdf(w, 0.8), rtol=1e-10)


def test_snr_density_single_user_exponential():
    gbar = 7.0
    g = np.linspace(0, 40, 50)
    np.testing.assert_allclose(
        ordered_snr_pdf(1, 1, gbar, g), np.exp(-g / gbar) / gbar, rtol=1e-12
    )


def test_snr_density_matches_order_statistics_form():
    gbar = 3.0
    g = np.linspace(0, 25, 60)
    f = np.exp(-g / gbar) / gbar
    cdf = 1 - np.exp(-g / gbar)
    direct = 6 * f * cdf * (1 - cdf)
    np.testing.assert_allclose(ordered_snr_pdf(2, 3, gbar, g), direct,
                               rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_snr_density_normalizes_and_nonnegative(L):
    gbar = 5.0
    grid = np.linspace(0, 200, 2000)
    for l in range(1, L + 1):
        vals = ordered_snr_pdf(l, L, gbar, grid)
        assert np.all(vals >= -1e-15)
        total, err = quad(
            lambda g: ordered_snr_pdf(l, L, gbar, g), 0, np.inf, limit=200
        )
        assert abs(total - 1.0) < 1e-8


def test_sampler_deterministic():
    model = ChannelModel(sigma_h_sq=0.5)
    a = sample_ordered_channels(3, model, seed=42)
    b = sample_ordered_channels(3, model, seed=42)
    assert a.shape == (1, 3)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a, axis=1) >= 0)


def test_sampler_min_moment():
    # E[min^2] over L i.i.d. draws equals 2*s2/L.
    model = ChannelModel(sigma_h_sq=0.5)
    mags = sample_ordered_channels(3, model, seed=7, size=1_000_000)
    m = float(np.mean(mags[:, 0] ** 2))
    assert abs(m - 2 * 0.5 / 3) < 0.01 * (2 * 0.5 / 3)


def test_sampler_single_user_moment():
    model = ChannelModel(sigma_h_sq=0.5)
    mags = sample_ordered_channels(1, model, seed=11, size=1_000_000)
    assert abs(float(np.mean(mags**2)) - 1.0) < 0.01


def test_sampler_histogram_matches_density():
    model = ChannelModel(sigma_h_sq=0.5)
    mags = sample_ordered_channels(3, model, seed=3, size=1_000_000)
    for l in (1, 2, 3):
        x = mags[:, l - 1]
        hist, edges = np.histogram(x, bins=50, range=(0, 2.5), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pdf = ordered_magnitude_pdf(l, 3, model, centers)
        assert np.max(np.abs(hist - pdf)) < 0.02 * np.max(pdf)


def test_user_index_validation():
    model = ChannelModel(sigma_h_sq=0.5)
    with pytest.raises(ValueError):
        ordered_magnitude_pdf(0, 2, model, 1.0)
    with pytest.raises(ValueError):
        ordered_magnitude_pdf(3, 2, model, 1.0)
    with pytest.raises(ValueError):
        ordered_snr_pdf(3, 2, 1.0, 1.0)


def test_model_validation():
    # the model holds no user count: the ordered densities and the
    # sampler reject L < 1 and any l outside 1..L
    model = ChannelModel(sigma_h_sq=0.5)
    for l, L in ((1, 0), (0, 0), (1, -1), (0, 1), (2, 1)):
        with pytest.raises(ValueError):
            ordered_magnitude_pdf(l, L, model, 1.0)
        with pytest.raises(ValueError):
            ordered_snr_pdf(l, L, 1.0, 1.0)
    for L in (0, -1):
        with pytest.raises(ValueError):
            sample_ordered_channels(L, model, seed=1)
    with pytest.raises(ValueError):
        ChannelModel(sigma_h_sq=0.0)


def test_model_is_keyword_only():
    # a positional user count, as in ChannelModel(3), is no sigma_h_sq
    with pytest.raises(TypeError):
        ChannelModel(3)
    assert ChannelModel().sigma_h_sq == 0.5
