import math

import numpy as np

from paulifish import channels, qfi


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
        part = qfi.sld_2x2(rho[pair], drho[pair])
        big_l[pair] = part.L
        h += part.H
    return qfi.SldResult(L=big_l, H=h)


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
