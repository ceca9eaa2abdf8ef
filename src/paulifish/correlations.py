"""Two-qubit correlation diagnostics for the protocol's pre-measurement state.

Separability via the positive-partial-transpose test with its closed-form
polarization threshold, and quantum discord Q in bits through its X-state
closed form. The closed forms of the post-channel state take the two-qubit
protocol's invocation counts, m in {1, 2}. The dense PPT route,
is_separable_ppt, takes any two-qubit state, such as
channels.correlated_state(2, r, lam, m)[0], and serves as its closed
form's oracle; the discord closed form is checked against discord from its
definition, in verify.
"""

from __future__ import annotations

import numpy as np

from . import linop, protocol

#: Tolerance on the minimum partial-transpose eigenvalue.
PPT_TOL = 1e-10


def _xlog2(v) -> np.ndarray:
    # 0 log2 0 := 0, elementwise
    v = np.asarray(v, dtype=float)
    pos = v > 0.0
    return np.where(pos, v * np.log2(np.where(pos, v, 1.0)), 0.0)


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


def separability_threshold(m: int, lam):
    """Polarization below which the post-channel two-qubit state is separable:
    sqrt(mu**2 + 1) - |mu| with mu = (1-2 lam)**m. lam may be an array (a
    float comes back for a scalar)."""
    mu = np.abs(_off_diagonal_scale(lam, m))  # checks m and lam
    return linop.scalar_or_array(np.sqrt(mu * mu + 1.0) - mu)


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


def discord_rmu(r, mu):
    """Discord of the protocol state with off-diagonal scale mu.

    Flipping the sign of mu leaves the discord unchanged, so |mu| is used
    throughout. The spectral combinations are
    1 - r^2 (twice), 1 +- 2 r |mu| + r^2, and c = max(r^2, r |mu|).
    r and mu broadcast; a float comes back for scalar inputs and an array
    otherwise.
    """
    r, am = np.broadcast_arrays(np.asarray(r, dtype=float), np.abs(np.asarray(mu, dtype=float)))
    linop.check_unit_interval(r, "polarization", "[0, 1)")
    bad_mu = ~(am <= 1.0 + 1e-12)
    if bad_mu.any():
        raise ValueError(f"off-diagonal scale must lie in [-1, 1], got {am[bad_mu].flat[0]}")
    r2, cross = r * r, 2.0 * r * am
    c = np.maximum(r2, r * am)
    q = 0.25 * _xlog2([1.0 - r2, 1.0 + cross + r2, 1.0 - cross + r2, 1.0 - r2]).sum(axis=0)
    q -= 0.5 * _xlog2(1.0 - c)
    q -= 0.5 * (1.0 + c) * np.log2(1.0 + c)
    if (q < -1e-9).any():
        raise ValueError(f"discord came out negative ({q.min()}): invalid (r, mu)")
    return linop.scalar_or_array(np.maximum(q, 0.0))


def discord_protocol(r, lam, m: int):
    """Discord of the two-qubit post-channel state at (r, lam, m); r and lam
    may be arrays that broadcast against each other."""
    return discord_rmu(r, _off_diagonal_scale(lam, m))


def discord_prep(r):
    """Discord of the prepared (pre-channel) state:
    (1+r)/2 log2(1+r) + (1-r)/2 log2(1-r), increasing in r. r may be an
    array (a float comes back for a scalar)."""
    r = linop.check_unit_interval(r, "polarization")
    return linop.scalar_or_array(0.5 * (_xlog2(1.0 + r) + _xlog2(1.0 - r)))
