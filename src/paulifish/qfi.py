"""Quantum Fisher information of a differentiable family of states.

The oracle is fisher_eig, from the eigendecomposition of rho (Braunstein
& Caves, PRL 72, 3439 (1994)). The rest are closed forms for the
single-qubit channel.
"""

from __future__ import annotations

import math

import numpy as np

from . import linop

#: Support cutoff on eigenvalue sums in the eigendecomposition route.
SUPPORT_TOL = 1e-12


def fisher_eig(rho: np.ndarray, drho: np.ndarray):
    """Fisher information from the eigendecomposition rho = sum_i p_i |i><i|.

    H = sum_ij Re(l_ij conj(<i|drho|j>)) with the score operator in the
    eigenbasis l_ij = 2 <i|drho|j> / (p_i + p_j) on pairs with
    p_i + p_j > SUPPORT_TOL and 0 elsewhere. Derivative weight above
    sqrt(SUPPORT_TOL) between two such null directions makes the Fisher
    information ill-defined, and this raises; the scan for it runs only
    where some pair falls below SUPPORT_TOL.

    rho and drho may be stacks (..., d, d): one batched eigensolve covers
    them, and each operator of a stack gets the bits it gets alone, so a
    caller may slice its stacks as it likes. Returns a float for a single
    operator and an array over the leading axes of a stack.
    """
    rho, drho = linop._as_operators(rho), linop._as_operators(drho)
    if rho.shape != drho.shape:
        raise ValueError(f"rho {rho.shape} and drho {drho.shape} differ in shape")
    for name, a in (("rho", rho), ("drho", drho)):
        dev = linop.frobenius_max(a - linop.dagger(a))
        if dev > linop.HERMITICITY_TOL:
            raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    p, v = np.linalg.eigh((rho + linop.dagger(rho)) / 2)
    m = np.ascontiguousarray(linop.dagger(v)) @ drho @ v
    psum = p[..., :, None] + p[..., None, :]
    included = psum > SUPPORT_TOL
    if not included.all():
        weight = np.abs(m)
        bad = ~included & (weight > math.sqrt(SUPPORT_TOL))
        if np.any(bad):
            raise ValueError(
                "Fisher information ill-defined: derivative weight "
                f"{float(np.max(weight[bad])):.3e} between null directions of rho"
            )
    l_eig = np.divide(2.0 * m, psum, out=np.zeros_like(m), where=included)
    return linop.scalar_or_array(np.sum((l_eig * m.conj()).real, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# Closed forms for the single-qubit channel


def qfi_single_use(v, lam):
    """Fisher information of one phase-flip use on the state (I + r.sigma)/2.

        H = 4 (1-rz^2)(r^2-rz^2) / [(1-2 lam)^2 (1-r^2) + 4 lam (1-lam)(1-rz^2)]

    Maximal over orientations at rz = 0. lam may be an array: a float comes
    back for a scalar lam and an array of lam's shape otherwise, zeros for a
    Bloch vector along z.
    """
    lam = linop.check_unit_interval(lam, "channel strength")
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {v.shape}")
    rx, ry, rz = v.tolist()
    r = linop.check_bloch_norm(math.hypot(rx, ry, rz))
    linop.reject_pure_corner(r, lam)
    num = 4.0 * (1.0 - rz * rz) * (rx * rx + ry * ry)
    if num <= 0.0:
        return linop.scalar_or_array(np.zeros_like(lam))
    # the square through the C library's pow, so an array gives a scalar call's bits
    c2 = linop._elementwise(lambda x: (1.0 - 2.0 * x) ** 2, lam)
    # 1 - r^2 as (1 - r)(1 + r), which does not cancel as r -> 1
    den = c2 * ((1.0 - r) * (1.0 + r)) + 4.0 * lam * (1.0 - lam) * (1.0 - rz * rz)
    return linop.scalar_or_array(num / den)


def qfi_independent_opt(r, lam, m: int):
    """Best independent-use Fisher information, 4 r^2 m / (1 - (1-2 lam)^2 r^2).

    The denominator is taken as (1-r)(1+r) + 4 lam(1-lam) r^2, which does
    not cancel as r -> 1. r and lam may be arrays that broadcast against
    each other (a float comes back when both are scalars).
    """
    lam = linop.check_unit_interval(lam, "channel strength")
    r = linop.check_unit_interval(r, "polarization")
    linop.check_invocations(m)
    linop.reject_pure_corner(r, lam)
    # at r = 1 a subnormal lam overflows to inf, without a warning as in the bound
    with np.errstate(over="ignore"):
        h = 4.0 * r * r * m / ((1.0 - r) * (1.0 + r) + 4.0 * lam * (1.0 - lam) * r * r)
    return linop.scalar_or_array(h)


def qfi_upper_bound(lam, m: int):
    """Absolute bound m / (lam (1-lam)); infinite at the interval endpoints.
    lam may be an array (a float comes back for a scalar)."""
    lam = linop.check_unit_interval(lam, "channel strength")
    linop.check_invocations(m)
    # lam = 0 or 1 divides by zero and a subnormal lam overflows: both give
    # inf, the + 0.0 making it +inf at lam = -0.0 too (exact everywhere else)
    with np.errstate(divide="ignore", over="ignore"):
        return linop.scalar_or_array(m / (lam * (1.0 - lam) + 0.0))
