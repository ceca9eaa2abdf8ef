"""Dense complex operator algebra on registers of qubits, and the input
rules that the other modules share.

Each rule is one function: ``check_unit_interval`` for every polarization
and channel strength, ``check_integer`` for every count and seed,
``check_invocations`` (``m >= 1``), ``reject_pure_corner`` (``r = 1`` with
``lam`` in {0, 1}), ``check_bloch_norm`` and ``check_scalar`` for every
argument that must be one number; ``protocol._validate_nm`` states the
qubit-count rule.

Operators are plain ``numpy`` arrays of shape ``(d, d)`` with ``d = 2**k``;
``dagger`` and ``is_density_operator`` also take stacks of shape
``(..., d, d)``.
Qubits are numbered 1..n with qubit 1 the least significant bit of the
basis index, so ``np.kron(a, b)`` places ``b`` on qubit 1.
"""

from __future__ import annotations

import operator

import numpy as np

#: Hard cap on dense operator dimension (2**12); analytic paths go further.
DIM_CAP = 2**12

#: Hermiticity tolerance on the operators that qfi.fisher_eig takes.
HERMITICITY_TOL = 1e-9


def scalar_or_array(v: np.ndarray):
    """A Python scalar for a 0-d array, the array itself otherwise: the
    return convention of the functions that broadcast over their inputs."""
    return v.item() if v.ndim == 0 else v


def check_unit_interval(v, what: str, interval: str = "[0, 1]") -> np.ndarray:
    """v as a float array, every element inside the unit interval with the
    ends that ``interval`` writes out: "[0, 1]", "[0, 1)", "(0, 1]" or "(0, 1)".
    Otherwise raises, naming ``what`` and the first element outside it."""
    v = np.asarray(v, dtype=float)
    ok = (v >= 0.0 if interval[0] == "[" else v > 0.0) & (
        v <= 1.0 if interval[-1] == "]" else v < 1.0
    )
    if not ok.all():
        raise ValueError(f"{what} must lie in {interval}, got {v[~ok].flat[0]}")
    return v


def check_integer(v, name: str) -> int:
    """v as a Python int, if operator.index takes it (an int, a bool or a
    numpy integer). Anything else, 2.0 included, raises naming ``name``."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {v!r}") from None


def check_invocations(m: int) -> None:
    """Raises unless m, a count of channel invocations, is an integer
    (check_integer) of at least 1."""
    if check_integer(m, "m") < 1:
        raise ValueError(f"invocation count must be >= 1, got {m}")


def reject_pure_corner(r, lam) -> None:
    """Raises if any (r, lam) pair, broadcast, is a pure state, r >= 1, with
    lam in {0, 1}, where no closed form holds. Any r below 1 is mixed."""
    pure = np.asarray(r) >= 1.0
    if pure.any() and (pure & ((lam == 0.0) | (lam == 1.0))).any():
        raise ValueError("pure state with lam in {0, 1} is outside the closed form's domain")


def check_bloch_norm(norm: float) -> float:
    """norm, if it is at most 1 + 1e-12: a qubit's Bloch vector, with room
    for rounding. Otherwise (NaN too) raises."""
    if not norm <= 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm must be <= 1, got {norm}")
    return norm


def check_scalar(v, what: str) -> float:
    """v as a Python float, if it is one number: a scalar or a 0-d array.
    Any other shape raises, naming ``what`` and the shape."""
    v = np.asarray(v, dtype=float)
    if v.ndim:
        raise ValueError(f"{what} must be a scalar, got shape {v.shape}")
    return float(v)


def _elementwise(f, v):
    """f of each element of v taken as a Python float, in v's shape (a float
    for a scalar). For closed forms whose scalar value is pinned to the last
    bit: numpy's vector pow, log1p and expm1 may round differently from the
    C library's."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        return f(v.item())
    return np.array([f(x) for x in v.ravel().tolist()]).reshape(v.shape)


def _as_operators(a) -> np.ndarray:
    """A stack of operators, shape (..., d, d) with d a power of two within
    the cap and every entry finite."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    d = a.shape[-1]
    if d < 2 or d & (d - 1):
        raise ValueError(f"dimension {d} is not a power of two >= 2")
    if d > DIM_CAP:
        raise ValueError(
            f"dimension {d} exceeds the dense cap {DIM_CAP}; use the analytic path"
        )
    if not np.isfinite(a).all():
        raise ValueError("operator has a non-finite entry")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator in a stack."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def frobenius_max(a: np.ndarray) -> float:
    """Largest entrywise magnitude, used for tolerance checks."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def is_density_operator(a: np.ndarray):
    """Hermitian and of unit trace to within 1e-8, eigenvalues >= -1e-8: a
    bool for one operator, a bool array over the leading axes of a stack
    (..., d, d)."""
    a = _as_operators(a)
    tol = 1e-8
    non_hermitian = np.max(np.abs(a - dagger(a)), axis=(-2, -1)) > tol
    off_trace = np.abs(np.trace(a, axis1=-2, axis2=-1) - 1.0) > tol
    positive = np.min(np.linalg.eigvalsh((a + dagger(a)) / 2), axis=-1) >= -tol
    return scalar_or_array(~non_hermitian & ~off_trace & positive)


# ---------------------------------------------------------------------------
# Gate builders


def identity() -> np.ndarray:
    return np.eye(2, dtype=complex)


def sigma_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def sigma_y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def sigma_z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

