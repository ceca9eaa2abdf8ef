import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from paulifish import channels, linop, mc, qfi

#: Branch threshold for alpha = Tr(A^2) - (Tr A)^2 in the 2x2 route.
ALPHA_TOL = 1e-12


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
    Tr(a) != 0; the alpha = 0 branch arises for pure states. A second route
    to the Fisher information that the tests compare qfi.fisher_eig against.
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


def num_qubits(a: np.ndarray) -> int:
    """Number of qubits an operator acts on."""
    return int(linop._as_operators(a).shape[-1]).bit_length() - 1


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product in list order: the last factor lands on qubit 1."""
    return functools.reduce(np.kron, factors)


def raise_peak(match: str, call, *args) -> int:
    """Peak bytes that tracemalloc traces while call(*args) raises a
    ValueError matching ``match``: small for a check made before any
    allocation."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pauli(axis: str) -> np.ndarray:
    """Pauli operator for axis 'x', 'y' or 'z'."""
    try:
        return {"x": linop.sigma_x, "y": linop.sigma_y, "z": linop.sigma_z}[axis]()
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


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
    the invocation count. The dense channel map, which the tests check the
    closed-form states and outcome probabilities against."""
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho)
    tgts = [int(t) for t in targets]
    if len(set(tgts)) != len(tgts):
        raise ValueError(f"duplicate channel targets in {tgts}")
    if any(t < 1 or t > n for t in tgts):
        raise ValueError(f"channel targets {tgts} out of range 1..{n}")
    s = pauli(spec.axis)
    out = rho
    for t in tgts:
        factors = [np.eye(2, dtype=complex)] * n
        factors[n - t] = s  # qubit t sits at list position n-t (qubit 1 last)
        p = kron_all(factors)
        out = (1.0 - spec.lam) * out + spec.lam * (p @ out @ p)
    return out


def bitstring_weight(x, n: int, r):
    """Probability weight (1+r)**j (1-r)**(n-j) / 2**n, j = zero bits of x:
    the weight of one bitstring, which the tests check the Hamming-class
    weights of the blocks against.

    x and r broadcast against each other (a float comes back for scalars).
    """
    x = np.asarray(x)
    bad_x = (x < 0) | (x > 2**n - 1)
    if bad_x.any():
        raise ValueError(f"x={x[bad_x].flat[0]} out of range for {n} qubits")
    r = linop.check_unit_interval(r, "polarization", "[0, 1)")
    j = n - channels._popcount(x, n)
    return linop.scalar_or_array((1.0 + r) ** j * (1.0 - r) ** (n - j) / 2**n)


def block_route_sld(n, r, lam, m):
    """Score operator of the correlated protocol state assembled piecewise:
    a closed 2x2 solve per two-level block of channels.correlated_state, the
    sub-block on the basis pair (x, N-x). The blocks have orthogonal
    supports, so their score operators, placed back on their pairs, and
    their Fisher informations add.

    Uses no eigensolver, so it is an independent route against the
    closed-form and eigendecomposition paths.
    """
    rho, drho = channels.correlated_state(n, r, lam, m)
    big_l, h = np.zeros_like(rho), 0.0
    for x in range(2 ** (n - 1)):
        pair = np.ix_([x, 2**n - 1 - x], [x, 2**n - 1 - x])
        part = sld_2x2(rho[pair], drho[pair])
        big_l[pair] = part.L
        h += part.H
    return SldResult(L=big_l, H=h)


def class_route(n, m, r, lam):
    """Fisher information of the post-channel state from one eigensolve per
    Hamming class (channels.hamming_classes), broadcast over r and lam:
    H = sum_j p_j H_j, H_j that of class j's block at unit trace,
    (I - t_j s sigma_y)/2 with derivative m t_j (1-2 lam)^(m-1) sigma_y,
    s = (1-2 lam)^m. Every class block of n is solved in one fisher_eig
    call: the reference that the oracle suite's shared class blocks are
    checked against bit for bit.
    """
    _, p, t = channels.hamming_classes(n, r)
    c = 1.0 - 2.0 * np.asarray(lam, dtype=float)[..., None, None, None]
    t, sigma_y = t[..., None, None], linop.sigma_y()
    rho = 0.5 * (linop.identity() - t * c**m * sigma_y)
    drho = m * t * c ** (m - 1) * sigma_y
    return np.sum(qfi.fisher_eig(rho, drho) * p, axis=-1)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def swap():
    """Two-qubit SWAP gate."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = m[1, 2] = m[2, 1] = 1
    return m


def qubit_swap(n, i, j):
    """Permutation matrix exchanging qubits i and j of an n-qubit register
    (qubit 1 is the least significant bit)."""
    d = 2**n
    m = np.zeros((d, d), dtype=complex)
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    for x in range(d):
        y = x
        if ((x >> (i - 1)) ^ (x >> (j - 1))) & 1:
            y = x ^ bi ^ bj
        m[y, x] = 1.0
    return m


def mp_correlated_reference(n, r, ms, lams, dps=80):
    """Correlated Fisher information and gain from the defining j-sum in
    mpmath, as {(m, lam): (H, gain)} for one (n, r).

    The sum is taken term by term in its textbook form,
    C(n,j) diff^2 total / (total^2 - nu^m diff^2). Its denominator cancels
    about n log10(1/(1-r^2)) digits as r -> 1, so the working precision is
    raised by that much to keep dps digits in the result.
    """
    import mpmath

    extra = int(n * -math.log10((1.0 - r) * (1.0 + r))) + n
    out = {}
    with mpmath.workdps(dps + extra):
        r_ = mpmath.mpf(r)
        pairs = []
        for j in range(n + 1):
            a = (1 + r_) ** j * (1 - r_) ** (n - j)
            b = (1 + r_) ** (n - j) * (1 - r_) ** j
            pairs.append((mpmath.binomial(n, j), a - b, a + b))
        for m in ms:
            for lam in lams:
                nu = (1 - 2 * mpmath.mpf(lam)) ** 2
                s = sum(c * d**2 * t / (t**2 - nu**m * d**2) for c, d, t in pairs)
                pre = m * nu ** (m - 1)
                h = m * pre * s / mpmath.mpf(2) ** (n - 1)
                g = pre * (1 - nu * r_**2) * s / (mpmath.mpf(2) ** (n + 1) * r_**2)
                out[m, lam] = (+h, +g)
    return out


def binomial(keys: np.ndarray, n: int, p: float) -> np.ndarray:
    """``Generator(Philox(key=k)).binomial(n, p)`` for each key row k, int64,
    through mc's samplers: the whole draw of each key, which
    mc.run_experiment makes a block at a time."""
    r = p if p <= 0.5 else 1.0 - p
    x = mc._inversion(keys, n, r) if r * n <= 30.0 else mc._btpe(keys, n, r)[0]
    return x if p <= 0.5 else n - x


def child_env(**overrides):
    """The environment of a child interpreter that imports paulifish from
    this tree: ours with src on PYTHONPATH and without OPENBLAS_NUM_THREADS,
    which importing paulifish.cli sets in this process, then the overrides."""
    src = str(Path(qfi.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    return {**env, **overrides}


def run_child(args, **overrides):
    """A child interpreter run with args, in child_env(**overrides)."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=child_env(**overrides), timeout=120,
    )
