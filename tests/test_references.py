"""50-digit mpmath references for the closed forms, on log-spaced edge grids:
r from 0 to 1 - 1e-9, and lam at 0, 1/2 and 1 and from 1e-12 to 1e-3 away
from each. Each tolerance sits just above the largest error measured on its
grid."""

import math
import sys

import mpmath
import numpy as np
import pytest

from conftest import class_route
from paulifish import correlations, protocol, qfi, verify

EDGE = (1e-12, 1e-9, 1e-6, 1e-3)
LAMS = sorted(
    {0.0, 0.1, 0.3, 0.5, 0.7, 1.0}
    | set(EDGE)
    | {0.5 - e for e in EDGE}
    | {0.5 + e for e in EDGE}
    | {1.0 - e for e in EDGE}
)
RS = [0.0, *EDGE, 0.1, 0.5, 0.9, *(1.0 - e for e in reversed(EDGE[1:]))]


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def _mu(lam, m):
    """|mu| = |1 - 2 lam|^m at the working precision."""
    return abs(1 - 2 * mpmath.mpf(lam)) ** m


def _rel_err(got, ref):
    """Relative error, or the plain value where the reference is 0."""
    return abs(got - ref) / ref if ref else abs(got)


def _mesh():
    """Every (i, j, lam, r) of the LAMS x RS mesh."""
    for i, lam in enumerate(LAMS):
        for j, r in enumerate(RS):
            yield i, j, lam, r


@pytest.mark.parametrize("m", [1, 2])
def test_two_qubit_gain(m):
    # 5.2e-16 measured; the form with (1+r^2)^2 - 4 r^2 nu^m in the
    # denominator was 1.3e-4 off at r = 1 - 1e-6 and inf at r = 1 - 1e-9, lam = 0
    got = protocol.gain_two_qubit(m, np.array(RS), np.array(LAMS)[:, None])
    assert np.isfinite(got).all()
    for i, j, lam, r in _mesh():
        r_, nu = mpmath.mpf(r), _mu(lam, 2)
        ref = 2 * m * nu ** (m - 1) * (1 + r_**2) * (1 - nu * r_**2)
        ref /= (1 + r_**2) ** 2 - 4 * r_**2 * nu**m
        assert _rel_err(got[i, j], ref) <= 1e-15, (m, r, lam)


@pytest.mark.parametrize("m", [1, 2])
def test_separability_threshold(m):
    # 2.8e-16 measured
    got = correlations.separability_threshold(m, np.array(LAMS))
    for g, lam in zip(got, LAMS):
        mu = _mu(lam, m)
        assert _rel_err(g, mpmath.sqrt(mu**2 + 1) - mu) <= 1e-15, lam


@pytest.mark.parametrize("m", [1, 2])
def test_ppt_minimum_eigenvalue(m):
    # 1.0e-16 absolute measured; the eigenvalue crosses 0 at the threshold
    _, got = correlations.ppt_closed_form(np.array(RS), np.array(LAMS)[:, None], m)
    for i, j, lam, r in _mesh():
        r_ = mpmath.mpf(r)
        ref = (1 - r_**2 - 2 * r_ * _mu(lam, m)) / 4
        assert abs(got[i, j] - ref) <= 1e-15, (r, lam)


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 2), (5, 3), (64, 2), (64, 8), (64, 64)])
def test_small_polarization_gain_limit(n, m):
    # The square of 1 - 2 lam is rounded and then raised to the power m - 1,
    # and 1 - 2 lam itself is rounded below lam = 1/4: about 1.5 (m-1) + 2
    # ulps in all, 1.4e-14 measured at n = m = 64, lam = 0.1.
    tol = (1.5 * (m - 1) + 2.0) * sys.float_info.epsilon
    got = protocol.gain_limit_r0(n, m, np.array(LAMS))
    for g, lam in zip(got, LAMS):
        ref = m * n * _mu(lam, 2 * m - 2)
        if ref >= sys.float_info.min:
            assert _rel_err(g, ref) <= tol, lam
        else:
            # 0 at lam = 1/2, and below 1e-330 for n = m = 64 within 1e-3 of
            # it, past even the subnormals
            assert ref < mpmath.mpf("1e-330") and g == 0.0, lam


def test_strength_threshold_for_an_n_fold_gain():
    # 1.5e-15 measured over m = 2..64
    for m in range(2, 65):
        ref = (1 - mpmath.mpf(m) ** (-1 / mpmath.mpf(2 * m - 2))) / 2
        assert _rel_err(protocol.lambda_threshold_gain_n(m), ref) <= 2e-15, m


@pytest.mark.parametrize("m", [1, 2])
def test_stationary_polarizations(m):
    # 1.7e-16 measured, at m = 2, lam = 1e-9; with b^2 - 4ac formed from nu
    # it was 3.1e-11 at lam = 1e-12 and 1.5e-9 at lam = 1e-16
    for lam in [*LAMS, 1e-16]:
        if lam == 0.5:  # degenerate, rejected
            continue
        nu = _mu(lam, 2)
        a, b, c = (1 + nu) - 4 * nu ** (m + 1), 2 * (1 + nu), (1 + nu) - 4 * nu**m
        disc = b * b - 4 * a * c
        us = [] if disc < 0 else [(-b + s * mpmath.sqrt(disc)) / (2 * a) for s in (1, -1)]
        ref = sorted(mpmath.sqrt(u) for u in us if 0 < u < 1)
        got = protocol.stationary_polarizations(m, lam)
        assert len(got) == len(ref), lam
        for g, want in zip(got, ref):
            assert _rel_err(g, want) <= 5e-16, lam


def test_single_use_fisher_information_in_the_equatorial_plane():
    # 3.2e-16 measured, at r = 1e-6, lam = 1e-9; with 1 - r^2 formed from
    # r^2 it was 5.0e-10 at r = 1 - 1e-9, lam = 0
    for r in RS:
        got = qfi.qfi_single_use((0.0, r, 0.0), np.array(LAMS))
        for g, lam in zip(got, LAMS):
            r_, lam_ = mpmath.mpf(r), mpmath.mpf(lam)
            ref = 4 * r_**2 / (_mu(lam, 2) * (1 - r_**2) + 4 * lam_ * (1 - lam_))
            assert _rel_err(g, ref) <= 5e-16, (r, lam)


@pytest.mark.parametrize("n, m", [(2, 1), (5, 3), (16, 8), (33, 2), (64, 64)])
def test_class_route_on_the_oracle_grid(n, m):
    # the oracle suite's reference, one 2x2 eigensolve per Hamming class, on
    # that suite's grid: 3.8e-14 measured, at n = 2. Read from the class
    # weights' difference formed in floats, it was 6.7e-5 off at r = 1e-12
    rs, lams = verify._EDGE_RS, verify._EDGE_LAMS
    got = class_route(n, m, np.array(rs), np.array(lams)[:, None])
    for i, lam in enumerate(lams):
        c = 1 - 2 * mpmath.mpf(lam)
        s, ds = c**m, -2 * m * c ** (m - 1)
        for k, r in enumerate(rs):
            r_, ref = mpmath.mpf(r), 0
            for j in range(n // 2 + 1):
                w, w_c = ((1 + r_) ** a * (1 - r_) ** (n - a) for a in (j, n - j))
                p = math.comb(n, j) // (2 if 2 * j == n else 1) * (w + w_c) / 2**n
                t = (w_c - w) / (w_c + w)
                ref += p * (t * ds) ** 2 / (1 - (t * s) ** 2)  # Fisher information of a block
            if ref >= sys.float_info.min:
                assert _rel_err(got[i, k], ref) <= 1e-13, (r, lam)
            else:  # 0 at lam = 1/2, and below the normal range next to it at m = 64
                assert got[i, k] == 0.0, (r, lam)
