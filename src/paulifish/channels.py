"""The correlated protocol's state: its preparation and its evolution under
the phase-flip channel, rho -> (1-lam) rho + lam Z_k rho Z_k on each qubit
k it hits.

Covers the preparatory unitary (pairwise controlled-Z then a Hadamard on
every qubit) and the post-channel state, a direct sum of two-dimensional
blocks spanned by |x> and |N-x>. The blocks fall into Hamming classes
{j, n-j}, whose weights hamming_classes states once, up to n = 64;
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


def preparation_unitary(n: int) -> np.ndarray:
    """Controlled-Z on each distinct qubit pair, then Hadamard on every qubit."""
    if n < 2:
        raise ValueError(f"preparation needs at least 2 qubits, got {n}")
    if 2**n > DIM_CAP:
        raise ValueError(f"2**{n} exceeds the dense cap {DIM_CAP}")
    # the controlled-Z layer is diagonal: one -1 per pair of set bits
    cz_layer = np.diag(_pair_phases(n)).astype(complex)
    h_layer = functools.reduce(np.kron, [linop.hadamard()] * n)
    return h_layer @ cz_layer


# ---------------------------------------------------------------------------
# Block decomposition of the prepared and post-channel states


def _class_weight(j, n: int, r):
    """(1+r)**j (1-r)**(n-j) / 2**n, the weight of a bitstring with j zero
    bits, for j and r that broadcast against each other."""
    return (1.0 + r) ** j * (1.0 - r) ** (n - j) / 2**n


def hamming_classes(n: int, r) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The Hamming classes {j, n-j}, j = 0 .. n//2, of the two-level blocks.

    Block x of the state depends on x only through the number j of zero
    bits of x or of N-x, whichever is smaller. Returns (mult, diag, off):
    mult[j] is the number of blocks in class j, C(n, j) halved at j = n/2,
    as Python ints, which add up to 2^(n-1) (past int64 at n = 64); diag
    and off hold the weights d_j, o_j = (w_j +- w_(n-j))/2 on a trailing
    axis after the shape of r, with w_j = (1+r)**j (1-r)**(n-j) / 2**n.
    2^(n+1) (o_j, d_j) is the paper's weight pair (diff_j, total_j). They
    are computed from j, not from the blocks, so n may reach
    protocol.ANALYTIC_N_CAP.
    """
    if not 2 <= n <= protocol.ANALYTIC_N_CAP:
        raise ValueError(f"n={n} must lie in 2..{protocol.ANALYTIC_N_CAP}")
    r = linop.check_unit_interval(r, "polarization", "[0, 1)")[..., None]
    j = np.arange(n // 2 + 1)
    mult = tuple(math.comb(n, k) // (2 if 2 * k == n else 1) for k in j.tolist())
    w, w_complement = _class_weight(j, n, r), _class_weight(n - j, n, r)
    return mult, (w + w_complement) / 2, (w - w_complement) / 2


def correlated_state(n: int, r, lam, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense post-channel state of the correlated protocol and its derivative.

    Returns (rho, drho/dlam). r and lam broadcast against each other, and
    their shape leads that of both arrays. The state is a direct sum of
    two-level blocks on the basis pairs (|x>, |N-x>), x < 2^(n-1),
    N = 2^n - 1:

        rho_x  = [[d, i o s], [-i o s, d]],    s  = (1-2 lam)**m
        drho_x = [[0, i o s'], [-i o s', 0]],  s' = -2m (1-2 lam)**(m-1)

    with d, o the weights d_k, o_k of the Hamming class k of x
    (hamming_classes), o negated where x has more than n/2 zero bits. Only
    the off-diagonals depend on lam: |x> and |N-x> differ in every bit, so
    each channel use scales them by (1-2 lam). 2**n may not exceed DIM_CAP.
    """
    if n < 2:
        raise ValueError(f"preparation needs at least 2 qubits, got {n}")
    if 2**n > DIM_CAP:
        raise ValueError(f"2**{n} exceeds the dense cap {DIM_CAP}")
    if not 1 <= m <= n:
        raise ValueError(f"invocation count m={m} must lie in 1..{n}")
    lam = linop.check_unit_interval(lam, "channel strength")
    r, lam = np.broadcast_arrays(np.asarray(r, dtype=float), lam)
    _, diag, off = hamming_classes(n, r)
    x = np.arange(2 ** (n - 1))
    y = 2**n - 1 - x
    j = n - _popcount(x, n)
    k = np.minimum(j, n - j)
    # 0.0 - o, not -o: a zero weight stays +0.0, as f(x) - f(N-x) gives it
    o = np.where(2 * j > n, 0.0 - off[..., k], off[..., k])
    c = 1.0 - 2.0 * lam[..., None]
    rho = np.zeros(r.shape + (2**n, 2**n), dtype=complex)
    drho = np.zeros_like(rho)
    rho[..., x, x] = rho[..., y, y] = diag[..., k]
    for out, scale in ((rho, c**m), (drho, -2.0 * m * c ** (m - 1))):
        out[..., x, y] = 1j * o * scale
        # -(x, y), not 1j * (-o), which flips signed zeros that eigh reads
        out[..., y, x] = -out[..., x, y]
    return rho, drho
