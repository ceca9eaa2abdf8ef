"""Dense complex operator algebra on registers of qubits.

Operators are plain ``numpy`` arrays of shape ``(d, d)`` with ``d = 2**k``;
``dagger`` and ``hermitian_eig`` also take stacks of shape ``(..., d, d)``.
Qubits are numbered 1..n with qubit 1 the least significant bit of the
basis index, so ``tensor([a, b])`` places ``b`` on qubit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Hard cap on dense operator dimension (2**12); analytic paths go further.
DIM_CAP = 2**12

#: Hermiticity tolerance for eigensolves.
HERMITICITY_TOL = 1e-9

#: Eigenvalues below this count as zero for support detection downstream.
EIGENVALUE_ZERO_CUTOFF = 1e-12


class DimensionError(ValueError):
    """Operator shape is not a power-of-two square within the dense cap."""


def scalar_or_array(v: np.ndarray):
    """A Python scalar for a 0-d array, the array itself otherwise: the
    return convention of the functions that broadcast over their inputs."""
    return v.item() if v.ndim == 0 else v


def _as_operators(a) -> np.ndarray:
    """A stack of operators, shape (..., d, d) with d a power of two within the cap."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {a.shape}")
    d = a.shape[-1]
    if d < 2 or d & (d - 1):
        raise DimensionError(f"dimension {d} is not a power of two >= 2")
    if d > DIM_CAP:
        raise DimensionError(
            f"dimension {d} exceeds the dense cap {DIM_CAP}; use the analytic path"
        )
    return a


def _as_operator(a) -> np.ndarray:
    a = _as_operators(a)
    if a.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def num_qubits(a: np.ndarray) -> int:
    """Number of qubits an operator acts on."""
    return int(_as_operator(a).shape[0]).bit_length() - 1


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator in a stack."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def frobenius_max(a: np.ndarray) -> float:
    """Largest entrywise magnitude, used for tolerance checks."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def is_density_operator(a: np.ndarray, tol: float = 1e-9) -> bool:
    """Hermitian, unit trace, and eigenvalues >= -tol."""
    a = _as_operator(a)
    if frobenius_max(a - dagger(a)) > tol:
        return False
    if abs(np.trace(a) - 1.0) > tol:
        return False
    return bool(np.min(np.linalg.eigvalsh((a + dagger(a)) / 2)) >= -tol)


# ---------------------------------------------------------------------------
# Gate builders


def identity(n: int = 1) -> np.ndarray:
    return np.eye(2**n, dtype=complex)


def sigma_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def sigma_y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def sigma_z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def pauli(axis: str) -> np.ndarray:
    """Pauli operator for axis 'x', 'y' or 'z'."""
    try:
        return {"x": sigma_x, "y": sigma_y, "z": sigma_z}[axis]()
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def controlled_z() -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(complex)


def swap() -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = m[1, 2] = m[2, 1] = 1
    return m


def coin_toss(lam: float) -> np.ndarray:
    """Rotation with columns (sqrt(lam), sqrt(1-lam)) and (-sqrt(1-lam), sqrt(lam)).

    coin_toss(1) is the identity; coin_toss(0) maps |0> to |1>.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"coin-toss parameter must lie in [0, 1], got {lam}")
    s, c = np.sqrt(lam), np.sqrt(1.0 - lam)
    return np.array([[s, -c], [c, s]], dtype=complex)


def qubit_swap(n: int, i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging qubits i and j of an n-qubit register."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"qubit indices {i}, {j} out of range 1..{n}")
    d = 2**n
    m = np.zeros((d, d), dtype=complex)
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    for x in range(d):
        y = x
        if ((x >> (i - 1)) ^ (x >> (j - 1))) & 1:
            y = x ^ bi ^ bj
        m[y, x] = 1.0
    return m


# ---------------------------------------------------------------------------
# Composition and reduction


def tensor(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product; the last factor lands on qubit 1 (least significant)."""
    if len(factors) == 0:
        raise ValueError("tensor requires at least one factor")
    ops = [_as_operator(f) for f in factors]
    total = 1
    for op in ops:
        total *= op.shape[0]
    if total > DIM_CAP:
        raise DimensionError(f"tensor dimension {total} exceeds cap {DIM_CAP}")
    out = ops[0]
    for f in ops[1:]:
        out = np.kron(out, f)
    return out


def _check_qubit_set(qubits: Iterable[int], n: int) -> list[int]:
    qs = sorted(set(int(q) for q in qubits))
    if not qs:
        raise ValueError("qubit set must be nonempty")
    if qs[0] < 1 or qs[-1] > n:
        raise ValueError(f"qubit indices {qs} out of range 1..{n}")
    return qs


def partial_trace(a: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Trace out every qubit not in ``keep``; kept qubits keep their order."""
    a = _as_operator(a)
    n = num_qubits(a)
    keep_set = set(_check_qubit_set(keep, n))
    t = a.reshape([2] * (2 * n))
    # axis k holds qubit n-k for rows, axis n+k the same qubit for columns
    row_idx = list(range(n))
    col_idx = list(range(n, 2 * n))
    out_rows, out_cols = [], []
    for axis in range(n):
        q = n - axis
        if q in keep_set:
            out_rows.append(row_idx[axis])
            out_cols.append(col_idx[axis])
        else:
            col_idx[axis] = row_idx[axis]
    res = np.einsum(t, row_idx + col_idx, out_rows + out_cols)
    d = 2 ** len(keep_set)
    return np.ascontiguousarray(res.reshape(d, d))


def partial_transpose(a: np.ndarray, subsystem: Iterable[int]) -> np.ndarray:
    """Transpose the indices of the named qubits only."""
    a = _as_operator(a)
    n = num_qubits(a)
    qs = _check_qubit_set(subsystem, n)
    t = a.reshape([2] * (2 * n))
    for q in qs:
        axis = n - q
        t = np.swapaxes(t, axis, n + axis)
    return np.ascontiguousarray(t.reshape(a.shape))


def embed_two_level(op2: np.ndarray, i: int, j: int, dim: int) -> np.ndarray:
    """Scatter a 2x2 operator onto basis indices (i, j) of a dim-dim space."""
    op2 = np.asarray(op2, dtype=complex)
    if op2.shape != (2, 2):
        raise DimensionError("embed_two_level expects a 2x2 operator")
    if i == j or not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"invalid basis indices ({i}, {j}) for dim {dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[np.ix_([i, j], [i, j])] = op2
    return out


# ---------------------------------------------------------------------------
# Spectral decomposition


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, or of a stack of them.

    ``eigenvalues[..., :]`` is ascending; ``eigenvectors[..., :, k]`` belongs
    to ``eigenvalues[..., k]`` and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ dagger(v)


def hermitian_eig(a: np.ndarray, tol: float = HERMITICITY_TOL) -> Spectrum:
    """Eigendecompose a Hermitian operator, symmetrizing (A + A†)/2 first.

    ``a`` may be a stack (..., d, d); one batched solve covers all of it.
    Raises if the anti-Hermitian part of any operator exceeds ``tol``.
    """
    a = _as_operators(a)
    dev = frobenius_max(a - dagger(a))
    if dev > tol:
        raise ValueError(f"operator is not Hermitian: max |A - A†| = {dev:.3e}")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    return Spectrum(eigenvalues=w, eigenvectors=v)
