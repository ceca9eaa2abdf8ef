"""The correlated protocol's state: its preparation and its evolution under
the phase-flip channel, rho -> (1-lam) rho + lam Z_k rho Z_k on each qubit
k it hits.

Covers the preparatory unitary (pairwise controlled-Z then a Hadamard on
every qubit) and the post-channel state, a direct sum of two-dimensional
blocks spanned by |x> and |N-x>. The blocks fall into Hamming classes
{j, n-j}, whose (p_j, t_j) hamming_classes states once, up to n = 64;
correlated_state writes the dense state from them, broadcast over (r, lam)
grids. The dense channel map itself is a test oracle (tests/conftest.py).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linop, protocol
from .linop import DIM_CAP

# ---------------------------------------------------------------------------
# Preparatory unitary


def _popcount(x: np.ndarray, n: int) -> np.ndarray:
    """Number of set bits among the n lowest bits of each entry of x."""
    return sum((x >> k) & 1 for k in range(n))


def _pair_phases(n: int) -> np.ndarray:
    # (-1)**s with s = number of bit pairs both set = C(popcount, 2)
    pc = _popcount(np.arange(2**n), n)
    return np.where((pc * (pc - 1) // 2) % 2, -1.0, 1.0)


def _check_dense(n: int, m: int = 1) -> None:
    """Raises unless protocol._validate_nm(n, m) passes and 2**n is within DIM_CAP."""
    protocol._validate_nm(n, m)
    if 2**n > DIM_CAP:
        raise ValueError(f"2**{n} exceeds the dense cap {DIM_CAP}")


def preparation_unitary(n: int) -> np.ndarray:
    """Controlled-Z on each distinct qubit pair, then Hadamard on every qubit."""
    _check_dense(n)
    # the controlled-Z layer is diagonal: one -1 per pair of set bits
    cz_layer = np.diag(_pair_phases(n)).astype(complex)
    h_layer = functools.reduce(np.kron, [linop.hadamard()] * n)
    return h_layer @ cz_layer


# ---------------------------------------------------------------------------
# Block decomposition of the prepared and post-channel states


def hamming_classes(n: int, r) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The Hamming classes {j, n-j}, j = 0 .. n//2, of the two-level blocks.

    Block x of the state depends on x only through the number j of zero
    bits of x or of N-x, whichever is smaller. Returns (mult, p, t): mult[j]
    is the number of blocks in class j, C(n, j) halved at j = n/2, as Python
    ints, which add up to 2^(n-1) (past int64 at n = 64); p[..., j] is the
    class's probability mult_j (w_j + w_(n-j)), w_j = (1+r)^j (1-r)^(n-j) /
    2^n, and t[..., j] = tanh((n-2j) atanh r) = (w_(n-j) - w_j) / (w_(n-j) +
    w_j) its blocks' polarization, after the shape of r. Each block is
    p_j/(2 mult_j) (I +- t_j sigma_y) before the channel. Neither is formed
    by a subtraction that cancels: both lie within 3 ulps of their exact
    values where those are normal floats. They are computed from j, not
    from the blocks, so n may reach protocol.ANALYTIC_N_CAP.
    """
    protocol._validate_nm(n)
    r = linop.check_unit_interval(r, "polarization", "[0, 1)")[..., None]
    j = np.arange(n // 2 + 1)
    mult = tuple(math.comb(n, k) // (2 if 2 * k == n else 1) for k in j.tolist())
    two_ka = 2.0 * (n - 2 * j) * np.arctanh(r)
    ratio = np.exp(-two_ka)  # w_j / w_(n-j)
    # up, down are 1 +- r rounded, and (1 + r)^i = up^i exp(i e / up) with e
    # the exact rounding error, likewise for down; down^j, which may
    # underflow where p_j does not, is taken as f^j 2^(j b), down = f 2^b
    up, down = 1.0 + r, 1.0 - r
    fix = np.exp((n - j) * (r - (up - 1.0)) / up + j * ((1.0 - down) - r) / down)
    f, b = np.frexp(down)
    p = np.array(mult, dtype=float) * up ** (n - j) * f**j * (1.0 + ratio) * fix
    return mult, np.ldexp(p, j * b - n), -np.expm1(-two_ka) / (1.0 + ratio)


def correlated_state(n: int, r, lam, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense post-channel state of the correlated protocol and its derivative.

    Returns (rho, drho/dlam). r and lam broadcast against each other, and
    their shape leads that of both arrays. The state is a direct sum of
    two-level blocks on the basis pairs (|x>, |N-x>), x < 2^(n-1),
    N = 2^n - 1:

        rho_x  = [[d, i o s], [-i o s, d]],    s  = (1-2 lam)**m
        drho_x = [[0, i o s'], [-i o s', 0]],  s' = -2m (1-2 lam)**(m-1)

    with d = p_k/(2 mult_k) and o = -d t_k for the Hamming class k of x
    (hamming_classes), o negated where x has more than n/2 zero bits. Only
    the off-diagonals depend on lam: |x> and |N-x> differ in every bit, so
    each channel use scales them by (1-2 lam). 2**n may not exceed DIM_CAP.
    """
    _check_dense(n, m)
    lam = linop.check_unit_interval(lam, "channel strength")
    r, lam = np.broadcast_arrays(np.asarray(r, dtype=float), lam)
    mult, p, t = hamming_classes(n, r)
    x = np.arange(2 ** (n - 1))
    y = 2**n - 1 - x
    j = n - _popcount(x, n)
    k = np.minimum(j, n - j)
    d = (p / (2.0 * np.array(mult, dtype=float)))[..., k]
    # o = -d t, +d t past n/2; 0.0 - x, not -x: a zero weight stays +0.0
    o = np.where(2 * j > n, d * t[..., k], 0.0 - d * t[..., k])
    c = 1.0 - 2.0 * lam[..., None]
    rho = np.zeros(r.shape + (2**n, 2**n), dtype=complex)
    drho = np.zeros_like(rho)
    rho[..., x, x] = rho[..., y, y] = d
    for out, scale in ((rho, c**m), (drho, -2.0 * m * c ** (m - 1))):
        out[..., x, y] = 1j * o * scale
        # -(x, y), not 1j * (-o), which flips signed zeros that eigh reads
        out[..., y, x] = -out[..., x, y]
    return rho, drho
