"""Closed forms for the correlated-state protocol.

Everything here is analytic in (n, m, r, lam): the protocol's Fisher
information, its gain over the best independent scheme, the gain's extremes
and small/large-polarization limits, stationary polarizations of the
two-qubit gain, the channel-strength threshold for an n-fold gain, and the
map from dephasing time to channel strength.

The lam dependence enters only through nu = (1-2 lam)**2. By convention
nu**(m-1) is 1 when m = 1 even at lam = 1/2 (continuity).

The Fisher information and the gain share one j-sum over the weight pairs,
one term per Hamming class {j, n-j}, j < n/2, added in one fixed order. It
is evaluated once, in the log domain and broadcast over (j, r, lam), by
``_log_qfi_gain``; ``qfi_correlated``, ``gain``, ``gain_min``, ``gain_max``
and the grid form ``qfi_and_gain`` wrap it, a value having the same bits in
each. Only the scalar wrappers raise on a value outside float64's range.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from . import linop

#: Largest qubit count for the analytic path: the j-sum kernel is checked
#: against an 80-digit reference up to this n.
ANALYTIC_N_CAP = 64

_LOG2 = math.log(2.0)
_LOG4 = math.log(4.0)
#: Logs of the smallest normal and the largest finite float64.
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)


def _validate_nm(n: int, m: int = 1) -> tuple[int, int]:
    """n and m as Python ints (linop.check_integer), if 2 <= n <=
    ANALYTIC_N_CAP and 1 <= m <= n; otherwise raises."""
    n, m = linop.check_integer(n, "n"), linop.check_integer(m, "m")
    if not 2 <= n <= ANALYTIC_N_CAP:
        raise ValueError(f"n={n} must lie in 2..{ANALYTIC_N_CAP}")
    if not 1 <= m <= n:
        raise ValueError(f"invocations m={m} must lie in 1..{n}")
    return n, m


def _log_qfi_gain(n: int, m: int, r, lam) -> tuple[np.ndarray, np.ndarray]:
    """Natural logs of the correlated Fisher information and of the gain,
    broadcast over r and lam, from one log-domain j-sum; -inf is an exact 0.

    j and n-j give equal terms and j = n/2 gives 0, so one term per Hamming
    class j < n/2 is summed and doubled. With t = atanh r, class j's larger
    weight is M = (1-r^2)^j (1+r)^(n-2j) and its ratio e = exp(-2 (n-2j) t),
    so diff = M (1-e), total = M (1+e), and the j-term diff^2 total /
    (total^2 - nu^m diff^2) is M (1-e)^2 (1+e) / [(1+e)^2 (1-nu^m) +
    4 e nu^m], a sum of nonnegative pieces. 1-e, 1-nu^m and 1-nu r^2 are
    formed without cancellation (expm1, log1p, (1-r)(1+r) + 4 lam(1-lam) r^2).
    Classes are added in turn, j = 0, 1, ...: np.sum adds a column pairwise
    but a grid's rows in turn, and would make a cell's bits depend on its grid.
    """
    r, lam = np.asarray(r, dtype=float), np.asarray(lam, dtype=float)
    # per-class columns j < n/2, n-2j and log C(n, j), broadcast against (r, lam)
    j = np.arange((n + 1) // 2).reshape((-1,) + (1,) * max(r.ndim, lam.ndim))
    k = n - 2 * j
    log_choose = np.array(
        [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(j.size)]
    ).reshape(j.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        log1p_r, log1m_r = np.log1p(r), np.log1p(-r)
        log_pure = log1m_r + log1p_r  # log(1 - r^2)
        two_kt = k * (log1p_r - log1m_r)  # 2 (n-2j) atanh(r)
        log_nu = 2.0 * np.log1p(-2.0 * np.minimum(lam, 1.0 - lam))  # -inf at lam = 1/2
        log_q = np.log(-np.expm1(m * log_nu))  # log(1 - nu^m)
        log_t = np.log1p(np.exp(-two_kt))  # log(total / M)
        log_den = np.logaddexp(2.0 * log_t + log_q, _LOG4 + m * log_nu - two_kt)
        terms = (
            log_choose
            + j * log_pure
            + k * log1p_r
            + 2.0 * np.log(-np.expm1(-two_kt))
            + log_t
            - log_den
        )
        top = terms.max(axis=0)
        top = np.where(np.isfinite(top), top, 0.0)
        log_s = top + np.log(2.0 * functools.reduce(np.add, np.exp(terms - top)))
        # nu^(m-1) is 1 at m = 1, even at lam = 1/2
        log_pre = math.log(m) + ((m - 1) * log_nu if m > 1 else 0.0) + log_s
        log_h = log_pre + math.log(m) - (n - 1) * _LOG2
        log_r = np.log(r)
        log_decay = np.logaddexp(log_pure, np.log(4.0 * lam * (1.0 - lam)) + 2.0 * log_r)
        log_g = log_pre + log_decay - (n + 1) * _LOG2 - 2.0 * log_r
    return log_h, log_g


def _exp_checked(log_v: np.ndarray, what: str) -> np.ndarray:
    """exp of a log-domain result; a nonzero value outside the normal float64
    range raises instead of coming back as 0, a subnormal or inf."""
    log_v = np.asarray(log_v)
    bad = (log_v != -math.inf) & ~((log_v >= _LOG_TINY) & (log_v <= _LOG_HUGE))
    if bad.any():
        exponent = float(log_v[bad].flat[0]) / math.log(10.0)
        raise ValueError(f"{what} is about 1e{exponent:+.0f}, outside the float64 range")
    return np.exp(log_v)


def qfi_and_gain(n: int, m: int, r, lam) -> tuple[np.ndarray, np.ndarray]:
    """Correlated Fisher information and gain on a grid: r in (0, 1) and lam
    in [0, 1] broadcast against each other, one j-sum for both.

    Unlike the scalar wrappers, a value outside the normal float64 range
    comes back as a subnormal or 0 below it and as inf above it (at n = 64,
    m = 1, r = 0.999999, lam = 0, where H is about 1e403), without raising
    or warning, so one such cell does not discard a whole grid.
    """
    _validate_nm(n, m)
    r = linop.check_unit_interval(r, "polarization", "(0, 1)")
    lam = linop.check_unit_interval(lam, "channel strength")
    log_h, log_g = _log_qfi_gain(n, m, r, lam)
    with np.errstate(over="ignore"):
        return np.exp(log_h), np.exp(log_g)


def _checked(n: int, m: int, r: float, lam: float) -> tuple:
    """(n, m, r, lam) with n and m as _validate_nm returns them and r and
    lam as floats (linop.check_scalar), if r lies in [0, 1) and lam in
    [0, 1]; otherwise raises."""
    n, m = _validate_nm(n, m)
    r = linop.check_unit_interval(r, "polarization", "[0, 1)")
    lam = linop.check_unit_interval(lam, "channel strength")
    return n, m, linop.check_scalar(r, "polarization"), linop.check_scalar(lam, "channel strength")


def qfi_correlated(n: int, m: int, r: float, lam: float) -> float:
    """Fisher information of the correlated protocol.

        H = m^2 nu^(m-1) / 2^(n-1)
            * sum_j C(n,j) diff_j^2 total_j / (total_j^2 - nu^m diff_j^2)

    Zero at r = 0 and, for m >= 2, at lam = 1/2.
    """
    log_h, _ = _log_qfi_gain(*_checked(n, m, r, lam))
    return float(_exp_checked(log_h, "Fisher information"))


def gain(n: int, m: int, r: float, lam: float) -> float:
    """Ratio of the correlated-protocol Fisher information to the best
    independent one at equal (n, m, r, lam); undefined at r = 0.

        G = m nu^(m-1) (1 - nu r^2) / (2^(n+1) r^2) * (the same j-sum)
    """
    n, m, r, lam = _checked(n, m, r, lam)
    if r == 0.0:
        raise ValueError("gain is undefined at r = 0; use gain_limit_r0")
    _, log_g = _log_qfi_gain(n, m, r, lam)
    return float(_exp_checked(log_g, "gain"))


def gain_min(n: int, m: int, r: float) -> float:
    """Worst-case gain over lam, the gain at lam = 1/2: a closed sum for one
    invocation, zero otherwise."""
    return gain(n, m, r, 0.5)


def gain_max(n: int, m: int, r: float) -> float:
    """Best-case gain over lam, the gain at lam = 0 (equal to lam = 1)."""
    return gain(n, m, r, 0.0)


def gain_limit_r0(n: int, m: int, lam):
    """Vanishing-polarization limit of the gain: m n (1-2 lam)**(2m-2).
    lam may be an array (a float comes back for a scalar)."""
    _validate_nm(n, m)
    lam = linop.check_unit_interval(lam, "channel strength")
    return linop._elementwise(lambda x: m * n * ((1.0 - 2.0 * x) ** 2) ** (m - 1), lam)


def _one_minus_nu_pow(k: int, lam: float) -> float:
    """1 - nu^k = -expm1(2k log1p(-2 min(lam, 1-lam))), without cancellation
    as lam -> 0 or 1; 1 at lam = 1/2."""
    a = min(lam, 1.0 - lam)
    return -math.expm1(2.0 * k * math.log1p(-2.0 * a)) if a < 0.5 else 1.0


def gain_limit_r1(m: int, lam):
    """Pure-state limit of the gain, m nu^(m-1) (1-nu) / (1-nu^m);
    identically 1 for one invocation. lam may be an array (a float comes
    back for a scalar).

    1-nu = 4 lam(1-lam) and 1-nu^m = -expm1(2m log1p(-2 min(lam, 1-lam)))
    are formed without cancellation as lam -> 0 or 1.
    """
    linop.check_invocations(m)
    lam = linop.check_unit_interval(lam, "channel strength")
    if m == 1:
        return linop.scalar_or_array(np.ones_like(lam))
    linop.reject_pure_corner(1.0, lam)

    def limit(x: float) -> float:
        a = min(x, 1.0 - x)
        return m * (1.0 - 2.0 * a) ** (2 * m - 2) * 4.0 * x * (1.0 - x) / _one_minus_nu_pow(m, x)

    return linop._elementwise(limit, lam)


def gain_two_qubit(m: int, r, lam):
    """Two-qubit gain in fully reduced form:

        G = 2 m nu^(m-1) (1+r^2) (1 - nu r^2) / [(1+r^2)^2 - 4 r^2 nu^m]

    Regular at r = 0, where it equals gain_limit_r0(n=2, m, lam). r and lam
    may be arrays that broadcast against each other (a float comes back
    when both are scalars).

    The denominator is taken as (1-r^2)^2 + 4 r^2 (1-nu^m) and 1 - nu r^2
    as (1-r)(1+r) + 4 lam(1-lam) r^2, with 1-nu^m from _one_minus_nu_pow,
    so neither cancels as r -> 1 near lam in {0, 1}.
    """
    _validate_nm(2, m)
    r = linop.check_unit_interval(r, "polarization", "[0, 1)")
    lam = linop.check_unit_interval(lam, "channel strength")
    nu = (1.0 - 2.0 * lam) ** 2
    r2, pure = r * r, (1.0 - r) * (1.0 + r)
    decay = 4.0 * lam * (1.0 - lam)  # 1 - nu
    one_minus_nu_m = linop._elementwise(lambda x: _one_minus_nu_pow(m, x), lam)
    num = 2.0 * m * nu ** (m - 1) * (1.0 + r2) * (pure + decay * r2)
    return linop.scalar_or_array(num / (pure * pure + 4.0 * r2 * one_minus_nu_m))


def stationary_polarizations(m: int, lam: float) -> list[float]:
    """Polarizations in (0, 1) where the two-qubit gain is flat in r.

    Setting the r-derivative of the reduced two-qubit gain to zero gives
    (1+nu)(1+u)^2 = 4 nu^m (1 + nu u^2) in u = r^2, a quadratic

        [(1+nu) - 4 nu^(m+1)] u^2 + 2 (1+nu) u + (1+nu) - 4 nu^m = 0.

    Real roots with u in (0, 1) are returned as r = sqrt(u), ascending.
    lam must be one number (linop.check_scalar) in [0, 1], other than 1/2.

    At lam = 0 the quadratic is -2 (u-1)^2, so b^2 - 4ac formed from nu
    cancels near lam in {0, 1}. It is taken as 16 [(2+e)(d_m + d_(m+1)) -
    2e - 4 d_m d_(m+1)], with e = 1-nu = 4 lam(1-lam) and d_k = 1-nu^k,
    which does not cancel there, and the roots as q/a and c/q with
    q = -(b + sqrt(b^2 - 4ac))/2.
    """
    _validate_nm(2, m)
    lam = linop.check_unit_interval(lam, "channel strength")
    lam = linop.check_scalar(lam, "channel strength")
    if lam == 0.5:
        raise ValueError("stationarity is degenerate at lam = 1/2")
    e = 4.0 * lam * (1.0 - lam)
    d_m, d_next = _one_minus_nu_pow(m, lam), _one_minus_nu_pow(m + 1, lam)
    disc = (2.0 + e) * (d_m + d_next) - 2.0 * e - 4.0 * d_m * d_next  # b^2 - 4ac over 16
    if disc < 0.0:
        return []
    a = 4.0 * d_next - 2.0 - e
    c = 4.0 * d_m - 2.0 - e
    q = -(2.0 - e) - 2.0 * math.sqrt(disc)
    roots: list[float] = []
    for u in [c / q] if a == 0.0 else [q / a, c / q]:
        if 0.0 < u < 1.0:
            r = math.sqrt(u)
            if all(abs(r - other) > 1e-9 for other in roots):
                roots.append(r)
    return sorted(roots)


def lambda_threshold_gain_n(m: int) -> float:
    """Largest channel strength keeping the small-polarization gain >= n when
    every qubit is hit once (m = n): (1/2)(1 - m**(-1/(2m-2))). m must be
    an invocation count (linop.check_invocations) of at least 2."""
    linop.check_invocations(m)
    if m < 2:
        raise ValueError("threshold needs m >= 2; for m = 1 see gain_limit_r0")
    return 0.5 * (1.0 - m ** (-1.0 / (2.0 * m - 2.0)))


def lambda_from_t2(t: float, t2: float) -> float:
    """Channel strength of dephasing for time t: (1 - exp(-t/T2))/2. t and
    t2 must each be one number (linop.check_scalar)."""
    t, t2 = linop.check_scalar(t, "time"), linop.check_scalar(t2, "dephasing time")
    if not t >= 0.0:  # NaN fails the negated comparisons
        raise ValueError(f"time must be >= 0, got {t}")
    if not t2 > 0.0:
        raise ValueError(f"dephasing time must be > 0, got {t2}")
    if math.isinf(t) and math.isinf(t2):
        raise ValueError("t / T2 is undefined for t = T2 = inf")
    return 0.5 * (1.0 - math.exp(-t / t2))
