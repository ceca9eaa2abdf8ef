"""Pauli-channel evolution and the correlated-state preparation.

Covers the channel map rho -> (1-lam) rho + lam s_n rho s_n, the
preparatory unitary (pairwise controlled-Z then a Hadamard on every qubit),
and the splitting of the prepared and post-channel states into
two-dimensional blocks spanned by |x> and |N-x>, stacked as 2x2 arrays and
broadcast over (r, lam) grids; the blocks fall into Hamming classes
{j, n-j}, which hamming_classes enumerates up to n = 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linop, protocol
from .linop import DIM_CAP, tensor


@dataclass(frozen=True)
class ChannelSpec:
    """One Pauli channel: axis and strength ``lam``."""

    axis: str
    lam: float

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be 'x', 'y' or 'z', got {self.axis!r}")
        linop.check_unit_interval(self.lam, "channel strength")


def bloch_state(v) -> np.ndarray:
    """Single-qubit density operator (I + r.sigma)/2 for a Bloch vector r."""
    rx, ry, rz = (float(c) for c in v)
    norm = np.sqrt(rx * rx + ry * ry + rz * rz)
    if not norm <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(f"Bloch vector norm must be <= 1, got {norm}")
    return 0.5 * (
        linop.identity()
        + rx * linop.sigma_x()
        + ry * linop.sigma_y()
        + rz * linop.sigma_z()
    )


def apply_pauli_channel(
    rho: np.ndarray, spec: ChannelSpec, targets: Sequence[int]
) -> np.ndarray:
    """Apply the channel once per listed target qubit: ``len(targets)`` is
    the invocation count."""
    rho = np.asarray(rho, dtype=complex)
    n = linop.num_qubits(rho)
    tgts = [int(t) for t in targets]
    if len(set(tgts)) != len(tgts):
        raise ValueError(f"duplicate channel targets in {tgts}")
    if any(t < 1 or t > n for t in tgts):
        raise ValueError(f"channel targets {tgts} out of range 1..{n}")
    s = linop.pauli(spec.axis)
    out = rho
    for t in tgts:
        factors = [np.eye(2, dtype=complex)] * n
        factors[n - t] = s  # qubit t sits at list position n-t (qubit 1 last)
        p = tensor(factors)
        out = (1.0 - spec.lam) * out + spec.lam * (p @ out @ p)
    return out


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
        raise linop.DimensionError(f"2**{n} exceeds the dense cap {DIM_CAP}")
    # the controlled-Z layer is diagonal: one -1 per pair of set bits
    cz_layer = np.diag(_pair_phases(n)).astype(complex)
    h_layer = tensor([linop.hadamard()] * n)
    return h_layer @ cz_layer


# ---------------------------------------------------------------------------
# Block decomposition of the prepared and post-channel states


def _class_weight(j, n: int, r):
    """(1+r)**j (1-r)**(n-j) / 2**n, the weight of a bitstring with j zero
    bits, for j and r that broadcast against each other."""
    return (1.0 + r) ** j * (1.0 - r) ** (n - j) / 2**n


def bitstring_weight(x, n: int, r):
    """Probability weight (1+r)**j (1-r)**(n-j) / 2**n, j = zero bits of x.

    x and r broadcast against each other (a float comes back for scalars).
    """
    x = np.asarray(x)
    bad_x = (x < 0) | (x > 2**n - 1)
    if bad_x.any():
        raise ValueError(f"x={x[bad_x].flat[0]} out of range for {n} qubits")
    r = linop.check_unit_interval(r, "polarization", "[0, 1)")
    return linop.scalar_or_array(_class_weight(n - _popcount(x, n), n, r))


def hamming_classes(n: int, r) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The Hamming classes {j, n-j}, j = 0 .. n//2, of the two-level blocks.

    Block x of the state depends on x only through the number j of zero
    bits of x or of N-x, whichever is smaller. Returns (mult, diag, off):
    mult[j] is the number of blocks in class j, C(n, j) halved at j = n/2,
    as Python ints, which add up to 2^(n-1) (past int64 at n = 64); diag
    and off hold the weights d_j, o_j = (w_j +- w_(n-j))/2 on a trailing
    axis after the shape of r, with w_j = (1+r)**j (1-r)**(n-j) / 2**n.
    They are computed from j, not from a block stack, so n may reach
    protocol.ANALYTIC_N_CAP.
    """
    if not 2 <= n <= protocol.ANALYTIC_N_CAP:
        raise ValueError(f"n={n} must lie in 2..{protocol.ANALYTIC_N_CAP}")
    r = linop.check_unit_interval(r, "polarization", "[0, 1)")[..., None]
    j = np.arange(n // 2 + 1)
    mult = tuple(math.comb(n, k) // (2 if 2 * k == n else 1) for k in j.tolist())
    w, w_complement = _class_weight(j, n, r), _class_weight(n - j, n, r)
    return mult, (w + w_complement) / 2, (w - w_complement) / 2


def _block_weights(n: int, r) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal weights (f(x) +- f(N-x))/2 of the blocks
    x = 0 .. 2^(n-1)-1, on a trailing axis after the shape of r: those of
    the Hamming class of x, the off-diagonal negated where x has more than
    n/2 zero bits."""
    _, diag, off = hamming_classes(n, r)
    j = n - _popcount(np.arange(2 ** (n - 1)), n)
    k = np.minimum(j, n - j)
    # 0.0 - o, not -o: a zero weight stays +0.0, as f(x) - f(N-x) gives it
    return diag[..., k], np.where(2 * j > n, 0.0 - off[..., k], off[..., k])


def _block_stack(diag, off, scale) -> np.ndarray:
    """Stacked 2x2 blocks [[diag, i off scale], [-i off scale, diag]] in the
    basis (|x>, |N-x>), one per entry of off."""
    out = np.zeros(np.shape(off) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = diag
    out[..., 0, 1] = 1j * off * scale
    out[..., 1, 0] = -out[..., 0, 1]
    return out


def _scatter(blocks: np.ndarray) -> np.ndarray:
    """Dense matrices of a (..., 2^(n-1), 2, 2) block stack: block x lands
    on the basis pair (x, N-x), N = 2^n - 1."""
    half = blocks.shape[-3]
    x = np.arange(half)
    pair = np.stack([x, 2 * half - 1 - x], axis=-1)
    out = np.zeros(blocks.shape[:-3] + (2 * half, 2 * half), dtype=complex)
    out[..., pair[:, :, None], pair[:, None, :]] = blocks
    return out


def correlated_blocks(n: int, r, lam, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Post-channel state of the correlated protocol and its lam-derivative,
    block by block, without the dense matrix.

    r and lam broadcast against each other; both returned arrays have shape
    broadcast(r, lam) + (2^(n-1), 2, 2). In the basis (|x>, |N-x>) block x is

        rho_x  = [[d, i o s], [-i o s, d]],    s  = (1-2 lam)**m
        drho_x = [[0, i o s'], [-i o s', 0]],  s' = -2m (1-2 lam)**(m-1)

    with d, o = (f(x) +- f(N-x))/2 for f = bitstring_weight: the weights of
    the Hamming class of x (hamming_classes), expanded to its blocks with o
    negated where x has more than n/2 zero bits. Only the off-diagonals
    depend on lam: |x> and |N-x> differ in every bit, so each channel use
    scales them by (1-2 lam). 2**n may not exceed DIM_CAP, the cap of the
    dense state the blocks scatter into.
    """
    if n < 2:
        raise ValueError(f"preparation needs at least 2 qubits, got {n}")
    if 2**n > DIM_CAP:
        raise linop.DimensionError(f"2**{n} exceeds the dense cap {DIM_CAP}")
    if not 1 <= m <= n:
        raise ValueError(f"invocation count m={m} must lie in 1..{n}")
    lam = linop.check_unit_interval(lam, "channel strength")
    r, lam = np.broadcast_arrays(np.asarray(r, dtype=float), lam)
    diag, off = _block_weights(n, r)
    c = 1.0 - 2.0 * lam[..., None]
    return _block_stack(diag, off, c**m), _block_stack(0.0, off, -2.0 * m * c ** (m - 1))


def correlated_state(n: int, r, lam, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense post-channel state of the correlated protocol and its derivative.

    Returns (rho, drho/dlam): the correlated_blocks scattered onto the basis
    pairs (x, N-x). Grids of r and lam add leading axes, as there.
    """
    rho, drho = correlated_blocks(n, r, lam, m)
    return _scatter(rho), _scatter(drho)
