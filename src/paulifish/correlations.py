"""Two-qubit correlation diagnostics for the protocol's pre-measurement state.

Separability via the positive-partial-transpose test with its closed-form
polarization threshold, and quantum discord through the Bell-diagonal
(X-state) closed form. The closed forms of the post-channel state take the
two-qubit protocol's invocation counts, m in {1, 2}. The dense routes
(is_separable_ppt, bell_diagonalize, discord_xstate) take any two-qubit
state, such as channels.correlated_state(2, r, lam, m)[0], and serve as
their oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linop, protocol

#: Tolerance on the minimum partial-transpose eigenvalue.
PPT_TOL = 1e-10

#: Residual allowed when forcing the state into Bell-diagonal form.
BELL_RESIDUAL_TOL = 1e-10


def _xlog2(v) -> np.ndarray:
    # 0 log2 0 := 0, elementwise
    v = np.asarray(v, dtype=float)
    pos = v > 0.0
    return np.where(pos, v * np.log2(np.where(pos, v, 1.0)), 0.0)


@dataclass(frozen=True)
class BellDiagonalCoeffs:
    """Coefficients of (1/4)(I + c1 XX + c2 YY + c3 ZZ); floats for one
    state, arrays over the leading axes for a stack."""

    c1: float | np.ndarray
    c2: float | np.ndarray
    c3: float | np.ndarray


@dataclass(frozen=True)
class DiscordReport:
    """Quantum discord in bits, the dominant |c_j|, and the four spectral
    combinations 1 -+ c1 -+ c2 -+ c3 (each with an odd number of minuses);
    floats for one state, arrays for a grid."""

    Q: float | np.ndarray
    c: float | np.ndarray
    lambdas: tuple


def is_separable_ppt(rho: np.ndarray):
    """PPT test: separable iff the partial transpose stays positive, to
    within PPT_TOL.

    Returns (verdict, minimum partial-transpose eigenvalue): a bool and a
    float for one state, arrays over the leading axes for a stack (..., 4, 4),
    which one batched eigensolve covers.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("PPT separability test takes a two-qubit state")
    if not np.all(linop.is_density_operator(rho)):
        raise ValueError("input is not a two-qubit density operator")
    # partial transpose on qubit 1: swap its row and column index bits
    pt = np.swapaxes(rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)), -3, -1).reshape(rho.shape)
    min_eig = np.min(np.linalg.eigvalsh((pt + linop.dagger(pt)) / 2), axis=-1)
    return linop.scalar_or_array(min_eig >= -PPT_TOL), linop.scalar_or_array(min_eig)


def separability_threshold(m: int, lam: float) -> float:
    """Polarization below which the post-channel two-qubit state is separable:
    sqrt(mu**2 + 1) - |mu| with mu = (1-2 lam)**m."""
    mu = abs(_off_diagonal_scale(lam, m))  # checks m and lam
    return math.sqrt(mu * mu + 1.0) - mu


def _off_diagonal_scale(lam, m: int):
    """mu = (1-2 lam)**m for each lam, a float for a scalar lam; m must be
    a two-qubit invocation count (1 or 2) and every lam must lie in [0, 1].
    Taken through the C library's pow, element by element, so an array
    gives the same bits as scalar calls."""
    protocol._validate_nm(2, m)
    lam = linop.check_unit_interval(lam, "channel strength")
    return linop._elementwise(lambda x: (1.0 - 2.0 * x) ** m, lam)


def ppt_closed_form(r, lam, m: int):
    """Closed-form PPT test of the post-channel two-qubit state.

    The partial transpose's minimum eigenvalue is (1 - r^2 - 2 r |mu|)/4
    with mu = (1-2 lam)**m; its zero is separability_threshold(m, lam).
    Returns (verdict against PPT_TOL, minimum eigenvalue) like
    is_separable_ppt, as arrays when r or lam is one; r and lam broadcast.
    For two qubits PPT is exact (Peres; Horodecki).
    """
    mu = np.abs(_off_diagonal_scale(lam, m))
    r = linop.check_unit_interval(r, "polarization", "[0, 1)")
    min_eig = ((1.0 - r) * (1.0 + r) - 2.0 * r * mu) / 4.0
    return linop.scalar_or_array(min_eig >= -PPT_TOL), linop.scalar_or_array(min_eig)


def _bell_frame() -> np.ndarray:
    """The 16 two-qubit Pauli products s_a x s_b (s_0 = I), each conjugated
    back through the local rotation that makes the post-channel state
    Bell-diagonal: frame[a, b] = U† (s_a x s_b) U = (u† s_a u) x (u† s_b u),
    with u the antidiagonal phases exp(+-i pi/8). Plain einsum loops, so
    building it at import costs no BLAS start-up."""
    u = np.array(
        [[0.0, np.exp(1j * np.pi / 8)], [np.exp(-1j * np.pi / 8), 0.0]], dtype=complex
    )
    paulis = np.array([linop.identity(), linop.sigma_x(), linop.sigma_y(), linop.sigma_z()])
    rotated = np.einsum("ji,ajk,kl->ail", u.conj(), paulis, u)
    return np.einsum("aij,bkl->abikjl", rotated, rotated).reshape(4, 4, 4, 4)


#: Rotated two-qubit Pauli products, built once; see _bell_frame.
_BELL_FRAME = _bell_frame()


def bell_diagonalize(rho: np.ndarray) -> BellDiagonalCoeffs:
    """Rotate the post-channel state into Bell-diagonal form and read off c_j.

    Applies the local unitary with antidiagonal phases exp(+-i pi/8) to each
    qubit and extracts every two-qubit Pauli coefficient
    Tr[U rho U† (s_a x s_b)]/4 = Tr[rho frame[a, b]]/4 in one contraction.
    Raises if any coefficient outside the XX/YY/ZZ diagonal survives above
    tolerance. rho may be a stack (..., 4, 4); the coefficients are then
    arrays over its leading axes.
    """
    rho = linop._as_operators(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("Bell diagonalization takes a two-qubit state")
    coeffs = np.einsum("...ij,abji->...ab", rho, _BELL_FRAME) / 4.0
    diag = np.diagonal(coeffs, axis1=-2, axis2=-1)
    residual = max(
        float(np.max(np.abs(coeffs[..., ~np.eye(4, dtype=bool)]))),
        float(np.max(np.abs(diag[..., 1:].imag))),
        float(np.max(np.abs(diag[..., 0] - 0.25))),
    )
    if residual > BELL_RESIDUAL_TOL:
        raise ValueError(
            f"state is not Bell-diagonal after rotation (residual {residual:.3e})"
        )
    # state = (1/4)(I + sum c_j s_j x s_j), so c_j = Tr[rho (s_j x s_j)]
    c = 4.0 * diag.real
    return BellDiagonalCoeffs(
        c1=linop.scalar_or_array(c[..., 1]),
        c2=linop.scalar_or_array(c[..., 2]),
        c3=linop.scalar_or_array(c[..., 3]),
    )


def _clamped(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if (v < -1e-10).any():
        raise ValueError(f"spectral combination {v.min()} is negative: invalid state")
    return np.maximum(v, 0.0)


def _report(lambdas: np.ndarray, c: np.ndarray) -> DiscordReport:
    """Discord from the four spectral combinations (stacked on axis 0) and c:
    Q = (1/4) sum xlog2(lambda) - (1/2) xlog2(1-c) - (1/2) xlog2(1+c)."""
    q = 0.25 * _xlog2(lambdas).sum(axis=0)
    q -= 0.5 * _xlog2(1.0 - c)
    q -= 0.5 * (1.0 + c) * np.log2(1.0 + c)
    if (q < -1e-9).any():
        raise ValueError(f"discord came out negative ({q.min()}): invalid coefficients")
    return DiscordReport(
        Q=linop.scalar_or_array(np.maximum(q, 0.0)),
        c=linop.scalar_or_array(c),
        lambdas=tuple(linop.scalar_or_array(v) for v in lambdas),
    )


def discord_xstate(coeffs: BellDiagonalCoeffs) -> DiscordReport:
    """Discord of a Bell-diagonal state from its generic closed form; the
    coefficients may be arrays, which broadcast."""
    c1, c2, c3 = np.broadcast_arrays(
        *(np.asarray(c, dtype=float) for c in (coeffs.c1, coeffs.c2, coeffs.c3))
    )
    lambdas = _clamped(
        [1.0 - c1 - c2 - c3, 1.0 - c1 + c2 + c3, 1.0 + c1 - c2 + c3, 1.0 + c1 + c2 - c3]
    )
    return _report(lambdas, np.maximum(np.maximum(np.abs(c1), np.abs(c2)), np.abs(c3)))


def discord_rmu(r, mu) -> DiscordReport:
    """Discord of the protocol state with off-diagonal scale mu.

    Flipping the sign of mu leaves the discord unchanged, so |mu| is used
    throughout. The spectral combinations are
    1 - r^2 (twice), 1 +- 2 r |mu| + r^2, and c = max(r^2, r |mu|).
    r and mu broadcast; the report holds floats for scalar inputs and
    arrays otherwise.
    """
    r, am = np.broadcast_arrays(np.asarray(r, dtype=float), np.abs(np.asarray(mu, dtype=float)))
    linop.check_unit_interval(r, "polarization", "[0, 1)")
    bad_mu = ~(am <= 1.0 + 1e-12)
    if bad_mu.any():
        raise ValueError(f"off-diagonal scale must lie in [-1, 1], got {am[bad_mu].flat[0]}")
    r2, cross = r * r, 2.0 * r * am
    lambdas = _clamped([1.0 - r2, 1.0 + cross + r2, 1.0 - cross + r2, 1.0 - r2])
    return _report(lambdas, np.maximum(r2, r * am))


def discord_protocol(r, lam, m: int) -> DiscordReport:
    """Discord of the two-qubit post-channel state at (r, lam, m); r and lam
    may be arrays that broadcast against each other."""
    return discord_rmu(r, _off_diagonal_scale(lam, m))


def discord_prep(r):
    """Discord of the prepared (pre-channel) state:
    (1+r)/2 log2(1+r) + (1-r)/2 log2(1-r), increasing in r. r may be an
    array (a float comes back for a scalar)."""
    r = linop.check_unit_interval(r, "polarization")
    return linop.scalar_or_array(0.5 * (_xlog2(1.0 + r) + _xlog2(1.0 - r)))
