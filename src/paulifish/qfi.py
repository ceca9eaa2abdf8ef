"""Quantum Fisher information of a differentiable family of states.

The oracle is fisher_eig, from the eigendecomposition of rho (Braunstein
& Caves, PRL 72, 3439 (1994)). sld_2x2 is a second, eigensolve-free route
for 2x2 operators that branches on alpha = Tr(A^2) - (Tr A)^2; the tests
compare the two. The rest are closed forms for the single-qubit channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linop

#: Branch threshold for alpha = Tr(A^2) - (Tr A)^2 in the 2x2 route.
ALPHA_TOL = 1e-12

#: Support cutoff on eigenvalue sums in the eigendecomposition route.
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class SldResult:
    """A score operator L and the Fisher information H = Tr(drho L)."""

    L: np.ndarray
    H: float


def _real_trace(a: np.ndarray) -> float:
    return float(np.trace(a).real)


def sld_2x2(a: np.ndarray, da: np.ndarray) -> SldResult:
    """Score operator of a differentiable 2x2 Hermitian family, eigensolve-free.

    ``da`` is the analytic parameter derivative of ``a``. Requires
    Tr(a) != 0; the alpha = 0 branch arises for pure states.
    """
    a, da = linop._as_operators(a), linop._as_operators(da)
    if a.shape != (2, 2) or da.shape != (2, 2):
        raise ValueError("sld_2x2 expects 2x2 operators")
    tr = _real_trace(a)
    if abs(tr) <= 1e-12:
        raise ValueError(f"trace {tr:.3e} is too close to zero for the 2x2 route")
    dtr = _real_trace(da)
    alpha = _real_trace(a @ a) - tr * tr
    dalpha = 2.0 * _real_trace(a @ da) - 2.0 * tr * dtr
    if abs(alpha) < ALPHA_TOL:
        L = (2.0 * da - (dtr / tr) * a) / tr
    else:
        L = (2.0 * da - (dalpha / alpha) * a) / tr + (
            dalpha / alpha - dtr / tr
        ) * np.eye(2)
    return SldResult(L=L, H=_real_trace(da @ L))


def fisher_eig(rho: np.ndarray, drho: np.ndarray):
    """Fisher information from the eigendecomposition rho = sum_i p_i |i><i|.

    H = sum_ij Re(l_ij conj(<i|drho|j>)) with the score operator in the
    eigenbasis l_ij = 2 <i|drho|j> / (p_i + p_j) on pairs with
    p_i + p_j > SUPPORT_TOL and 0 elsewhere. Derivative weight above
    sqrt(SUPPORT_TOL) between two such null directions makes the Fisher
    information ill-defined, and this raises.

    rho and drho may be stacks (..., d, d): one batched eigensolve covers
    them. Returns a float for a single operator and an array over the
    leading axes of a stack.
    """
    rho, drho = linop._as_operators(rho), linop._as_operators(drho)
    if rho.shape != drho.shape:
        raise ValueError(f"rho {rho.shape} and drho {drho.shape} differ in shape")
    for name, a in (("rho", rho), ("drho", drho)):
        dev = linop.frobenius_max(a - linop.dagger(a))
        if dev > linop.HERMITICITY_TOL:
            raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    p, v = np.linalg.eigh((rho + linop.dagger(rho)) / 2)
    m = linop.dagger(v) @ drho @ v
    psum = p[..., :, None] + p[..., None, :]
    included = psum > SUPPORT_TOL
    bad = ~included & (np.abs(m) > math.sqrt(SUPPORT_TOL))
    if np.any(bad):
        worst = float(np.max(np.abs(m[bad])))
        raise ValueError(
            "Fisher information ill-defined: derivative weight "
            f"{worst:.3e} between null directions of rho"
        )
    l_eig = np.zeros_like(m)
    l_eig[included] = 2.0 * m[included] / psum[included]
    return linop.scalar_or_array(np.sum((l_eig * m.conj()).real, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# Closed forms for the single-qubit channel


def _check_lambda(lam):
    """lam as a float, or as an array if it is one; every element in [0, 1]."""
    return linop.scalar_or_array(linop.check_unit_interval(lam, "channel strength"))


def _reject_pure_corner(r, lam) -> None:
    """Raise if any (r, lam) pair, broadcast, is a pure state with lam in {0, 1}."""
    near_pure = np.asarray(r) >= 1.0 - 1e-12
    if near_pure.any() and (near_pure & ((lam == 0.0) | (lam == 1.0))).any():
        raise ValueError(
            "pure state with lam in {0, 1} is outside the closed form's domain"
        )


def qfi_single_use(v, lam):
    """Fisher information of one phase-flip use on the state (I + r.sigma)/2.

        H = 4 (1-rz^2)(r^2-rz^2) / [(1-2 lam)^2 (1-r^2) + 4 lam (1-lam)(1-rz^2)]

    Maximal over orientations at rz = 0. lam may be an array: a float comes
    back for a scalar lam and an array of lam's shape otherwise, zeros for a
    Bloch vector along z.
    """
    lam = _check_lambda(lam)
    rx, ry, rz = (float(c) for c in v)
    r = math.hypot(rx, ry, rz)
    if not r * r <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(f"Bloch vector norm must be <= 1, got {r}")
    _reject_pure_corner(r, lam)
    num = 4.0 * (1.0 - rz * rz) * (rx * rx + ry * ry)
    if num <= 0.0:
        return linop.scalar_or_array(np.zeros_like(lam))
    # the square through the C library's pow, so an array gives a scalar call's bits
    c2 = linop._elementwise(lambda x: (1.0 - 2.0 * x) ** 2, lam)
    # 1 - r^2 as (1 - r)(1 + r), which does not cancel as r -> 1
    return num / (c2 * ((1.0 - r) * (1.0 + r)) + 4.0 * lam * (1.0 - lam) * (1.0 - rz * rz))


def qfi_independent_opt(r, lam, m: int):
    """Best independent-use Fisher information, 4 r^2 m / (1 - (1-2 lam)^2 r^2).

    The denominator is taken as (1-r)(1+r) + 4 lam(1-lam) r^2, which does
    not cancel as r -> 1. r and lam may be arrays that broadcast against
    each other (a float comes back when both are scalars).
    """
    lam = _check_lambda(lam)
    r = linop.check_unit_interval(r, "polarization")
    if m < 1:
        raise ValueError(f"invocation count must be >= 1, got {m}")
    _reject_pure_corner(r, lam)
    h = 4.0 * r * r * m / ((1.0 - r) * (1.0 + r) + 4.0 * lam * (1.0 - lam) * r * r)
    return linop.scalar_or_array(h)


def qfi_upper_bound(lam, m: int):
    """Absolute bound m / (lam (1-lam)); infinite at the interval endpoints.
    lam may be an array (a float comes back for a scalar)."""
    lam = linop.check_unit_interval(lam, "channel strength")
    if m < 1:
        raise ValueError(f"invocation count must be >= 1, got {m}")
    # lam = 0 or 1 divides by zero and a subnormal lam overflows: both give inf
    with np.errstate(divide="ignore", over="ignore"):
        return linop.scalar_or_array(m / (lam * (1.0 - lam)))
