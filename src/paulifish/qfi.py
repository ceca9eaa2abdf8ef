"""Score operators and quantum Fisher information, by two routes.

The closed 2x2 route needs no eigensolve and branches on
alpha = Tr(A^2) - (Tr A)^2; the eigendecomposition route is the general
oracle L_ij = 2 <i|drho|j> / (p_i + p_j), with fisher_eig its Fisher
information alone.
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
    """A score operator L and the Fisher information H = Tr(drho L); for a
    stack of operators, one of each per operator."""

    L: np.ndarray
    H: float | np.ndarray


def _real_trace(a: np.ndarray) -> float:
    return float(np.trace(a).real)


def sld_2x2(a: np.ndarray, da: np.ndarray) -> SldResult:
    """Score operator of a differentiable 2x2 Hermitian family, eigensolve-free.

    ``da`` is the analytic parameter derivative of ``a``. Requires
    Tr(a) != 0; the alpha = 0 branch arises for pure states.
    """
    a = np.asarray(a, dtype=complex)
    da = np.asarray(da, dtype=complex)
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


def _eigen_frame(
    rho: np.ndarray, drho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenbasis V of rho, the score operator l in that basis and the
    Fisher information H, the shared body of sld_eig and fisher_eig.

    l_ij = 2 <i|drho|j> / (p_i + p_j) on pairs with p_i + p_j > SUPPORT_TOL
    and 0 elsewhere; derivative weight above sqrt(SUPPORT_TOL) between two
    null directions raises. H = sum_ij Re(l_ij conj(<i|drho|j>)) is an array
    over the leading axes of a stack.
    """
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if rho.shape != drho.shape:
        raise ValueError(f"rho {rho.shape} and drho {drho.shape} differ in shape")
    dev = linop.frobenius_max(drho - linop.dagger(drho))
    if dev > linop.HERMITICITY_TOL:
        raise ValueError(f"drho is not Hermitian: max deviation {dev:.3e}")
    spec = linop.hermitian_eig(rho)
    p = spec.eigenvalues
    v = spec.eigenvectors
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
    h = np.sum((l_eig * m.conj()).real, axis=(-2, -1))
    return v, l_eig, h


def sld_eig(rho: np.ndarray, drho: np.ndarray) -> SldResult:
    """General score operator from the eigendecomposition of rho.

    Pairs with p_i + p_j <= SUPPORT_TOL contribute nothing; if the
    derivative has weight above sqrt(SUPPORT_TOL) between two such null
    directions the Fisher information is ill-defined and this raises.

    rho and drho may be stacks (..., d, d): one batched eigensolve covers
    them, L keeps their shape and H is an array over the leading axes (a
    float for a single operator).
    """
    v, l_eig, h = _eigen_frame(rho, drho)
    return SldResult(L=v @ l_eig @ linop.dagger(v), H=linop.scalar_or_array(h))


def fisher_eig(rho: np.ndarray, drho: np.ndarray):
    """The Fisher information sld_eig(rho, drho).H, bit for bit, without
    rotating the score operator back out of the eigenbasis.

    Takes the same stacks and raises the same errors as sld_eig; returns a
    float for a single operator and an array over the leading axes of a
    stack.
    """
    return linop.scalar_or_array(_eigen_frame(rho, drho)[2])


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


def qfi_single_use(v, lam: float) -> float:
    """Fisher information of one phase-flip use on the state (I + r.sigma)/2.

        H = 4 (1-rz^2)(r^2-rz^2) / [(1-2 lam)^2 (1-r^2) + 4 lam (1-lam)(1-rz^2)]

    Maximal over orientations at rz = 0.
    """
    lam = _check_lambda(lam)
    rx, ry, rz = (float(c) for c in v)
    r2 = rx * rx + ry * ry + rz * rz
    if not r2 <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(f"Bloch vector norm must be <= 1, got {math.sqrt(r2)}")
    _reject_pure_corner(math.sqrt(r2), lam)
    num = 4.0 * (1.0 - rz * rz) * (r2 - rz * rz)
    if num <= 0.0:
        return 0.0
    den = (1.0 - 2.0 * lam) ** 2 * (1.0 - r2) + 4.0 * lam * (1.0 - lam) * (
        1.0 - rz * rz
    )
    return num / den


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
