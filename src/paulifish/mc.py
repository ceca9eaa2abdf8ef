"""Monte Carlo check of the Cramér-Rao bound for the independent protocol.

Each run prepares (I + r sigma_y)/2, applies the phase-flip once, and
measures along +-y. The estimator inverts the empirical + fraction,
lambda_hat = (1 - (2 p_hat - 1)/r)/2, clamped to [0, 1]; it is linear in
p_hat, so its variance attains 1/(shots Fisher) exactly.

Trial t's count is numpy's ``Generator(Philox(child)).binomial(shots * m,
p_plus)`` for ``child = SeedSequence(seed).spawn(trials)[t]``, computed here
as array passes over a block of trials: the SeedSequence hash, the Philox
block function and numpy's binomial sampler are published algorithms with
every integer and rounding step reproduced, so numpy.random is never
imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channels, linop

# Trial t's substream is SeedSequence(seed).spawn(trials)[t]. Its spawn key
# (t,) is one uint32 word while t < 2**32, the only case _trial_keys mixes.
# The bound itself is set by memory: trials are drawn in blocks, but every
# trial keeps its float64 estimate and np.var takes a temporary of the same
# size, so 10**7 trials peak at 190 MiB RSS (numpy's import included).
MAX_TRIALS = 10**7

# Trials drawn per pass; bounds the temporaries of the keys and the sampler.
_BLOCK_TRIALS = 2**16

# SeedSequence hash constants (numpy/random/bit_generator.pyx; NEP 19 keeps
# this hash stable across numpy releases).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., "Parallel
# random numbers: as easy as 1, 2, 3", SC'11).
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


@dataclass(frozen=True)
class ExperimentConfig:
    r: float
    lambda_true: float
    m: int = 1
    trials: int = 200
    shots_per_trial: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"polarization must lie in (0, 1], got {self.r}")
        if not 0.0 < self.lambda_true < 1.0:
            raise ValueError(
                f"true channel strength must lie in (0, 1), got {self.lambda_true}"
            )
        if self.m < 1:
            raise ValueError(f"invocations per run must be >= 1, got {self.m}")
        if self.trials < 1 or self.shots_per_trial < 1:
            raise ValueError("trials and shots_per_trial must be >= 1")
        if self.shots_per_trial * self.m > 2**63 - 1:  # the binomial count is an int64
            raise ValueError("shots_per_trial * m must be <= 2**63 - 1")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= {MAX_TRIALS}, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentResult:
    estimates: np.ndarray
    sample_variance: float
    crb: float
    fisher_classical: float
    n_clamped: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.estimates))


def _measurement_ops() -> tuple[np.ndarray, np.ndarray]:
    # projectors onto (|0> +- i|1>)/sqrt(2)
    plus = (linop.identity() + linop.sigma_y()) / 2.0
    return plus, linop.identity() - plus


def outcome_probs(r: float, lam: float) -> tuple[float, float]:
    """Born-rule probabilities of the +-y measurement after one channel use."""
    rho = channels.bloch_state((0.0, r, 0.0))
    out = channels.apply_pauli_channel(rho, channels.ChannelSpec("z", lam), [1])
    p_plus_op, p_minus_op = _measurement_ops()
    p_plus = float(np.trace(out @ p_plus_op).real)
    p_minus = float(np.trace(out @ p_minus_op).real)
    return p_plus, p_minus


def outcome_prob_derivs(r: float, lam: float) -> tuple[float, float]:
    """Derivatives of the +-y outcome probabilities in the channel strength.

    Uses the exact derivative of the channel map, d rho_f = Z rho Z - rho,
    pushed through the Born rule; no closed-form shortcut.
    """
    rho = channels.bloch_state((0.0, r, 0.0))
    z = linop.sigma_z()
    drho = z @ rho @ z - rho
    p_plus_op, p_minus_op = _measurement_ops()
    return (
        float(np.trace(drho @ p_plus_op).real),
        float(np.trace(drho @ p_minus_op).real),
    )


def classical_fisher(p: Sequence[float], dp: Sequence[float]) -> float:
    """Discrete Fisher information sum dp_k**2 / p_k.

    A zero-probability outcome with nonzero derivative carries infinite
    information and returns ``math.inf``.
    """
    p = [float(v) for v in p]
    dp = [float(v) for v in dp]
    if len(p) != len(dp):
        raise ValueError("probability and derivative lists differ in length")
    if not abs(sum(p) - 1.0) <= 1e-9:  # a non-finite entry fails too
        raise ValueError(f"probabilities sum to {sum(p)}, not 1")
    if not abs(sum(dp)) <= 1e-9:
        raise ValueError(f"probability derivatives sum to {sum(dp)}, not 0")
    total = 0.0
    for pk, dpk in zip(p, dp):
        if pk <= 0.0:
            if abs(dpk) > 0.0:
                return math.inf
            continue
        total += dpk * dpk / pk
    return total


def _root_pool(seed: int) -> list[int]:
    """``SeedSequence(seed).pool``: the seed's uint32 words, least significant
    first, hashed into four words (mix_entropy in numpy's bit_generator.pyx)."""
    words = [(seed >> s) & _MASK32 for s in range(0, max(1, seed.bit_length()), 32)]
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of trials start..stop-1, shape (stop - start, 2), uint64.

    Row i equals ``SeedSequence(seed).spawn(trials)[start + i].generate_state(2,
    np.uint64)`` for any trials >= stop. Every child shares the root's pool before its spawn key
    is mixed in, so the key word t is mixed into that pool and the output
    hash applied as uint32 vectors over all t at once. Array arithmetic
    wraps modulo 2**32 like the C hash; scalar products are taken in Python
    ints so no numpy scalar overflows.
    """
    words = max(1, -(-int(seed).bit_length() // 32))
    # The root's hash took 4 + 12 steps over its first four words, 4 per further word.
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) & _MASK32
    t = np.arange(start, stop, dtype=np.uint32)
    keys = np.empty((stop - start, 2), dtype="<u8")
    state = keys.view("<u4")  # the four output words, low word of each key first
    hash_b = _INIT_B
    # Output word i reads only pool word i, so each pool word is mixed,
    # hashed into the state and dropped before the next one is formed.
    for i, word in enumerate(_root_pool(seed)):
        value = t ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value *= hash_a
        value ^= value >> 16
        value *= _MIX_MULT_R
        np.subtract(_MIX_MULT_L * word & _MASK32, value, out=value)
        value ^= value >> 16  # pool word i
        value ^= hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value *= hash_b
        value ^= value >> 16
        state[:, i] = value
    return keys.astype(np.uint64, copy=False)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lh, hl = b_hi * a_lo, b_lo * a_hi
    mid = (b_lo * a_lo >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return b_hi * a_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), b * a


def _philox_block(keys: np.ndarray, counter) -> np.ndarray:
    """Philox4x64-10 blocks at counter (counter, 0, 0, 0) under each key row,
    shape (4, len(keys)), uint64. numpy's Philox fills its buffer from the
    block at counter 1 and hands out the four words in order."""
    c0 = np.broadcast_to(np.asarray(counter, dtype=np.uint64), len(keys))
    k0, k1 = keys[:, 0], keys[:, 1]
    c1 = c2 = c3 = np.zeros(len(keys), np.uint64)
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3))


def _next_double(words: np.ndarray) -> np.ndarray:
    """numpy's next_double of each uint64 word: its top 53 bits over 2**53."""
    return (words >> 11) * 2.0**-53


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's log of each element, as numpy's sampler takes it
    (numpy's vector log may differ in the last bit); log(0) is -inf."""
    out = np.where(x == 0.0, -np.inf, np.nan)
    pos = x > 0.0
    out[pos] = np.fromiter(map(math.log, x[pos].tolist()), float)
    return out


def _inversion(keys: np.ndarray, n: int, p: float) -> np.ndarray:
    """numpy's random_binomial_inversion on each key row's stream (n p <= 30)."""
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(float(n), mean + 10.0 * math.sqrt(mean * q + 1)))
    x = np.zeros(len(keys), np.int64)
    px = np.full(len(keys), qn)
    draw = np.zeros(len(keys), np.int64)  # index of each stream's current draw
    u = _next_double(_philox_block(keys, 1)[0])
    live = np.flatnonzero(u > px)
    while live.size:
        x[live] += 1
        over = x[live] > bound
        step, restart = live[~over], live[over]
        u[step] -= px[step]
        px[step] = (n - x[step] + 1) * p * px[step] / (x[step] * q)
        if restart.size:
            x[restart], px[restart] = 0, qn
            draw[restart] += 1
            d = draw[restart]
            words = _philox_block(keys[restart], d // 4 + 1)
            u[restart] = _next_double(words[d % 4, np.arange(d.size)])
        live = live[u[live] > px[live]]
    return x


def _stirling(a, a2):
    """The Stirling-series term of log a! (1/(12 a) - ...), a2 = a * a, as BTPE
    evaluates it."""
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / a2) / a2) / a2) / a2) / a / 166320.0


def _btpe(keys: np.ndarray, n: int, r: float) -> np.ndarray:
    """numpy's random_binomial_btpe on each key row's stream (r <= 1/2, n r > 30).

    Kachitvichyanukul & Schmeiser, CACM 31(2), 1988. Attempt j of a trial
    takes draws 2j and 2j + 1 of its stream; each pass makes one attempt for
    every trial still pending and keeps the ones that were rejected. Integer
    steps wrap like the C int64 arithmetic they copy.
    """
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    s = r / q
    a = s * float((n + 1 + 2**63) % 2**64 - 2**63)  # C's n + 1 wraps at n = 2**63 - 1
    f1, z = float(m + 1), float(n + 1 - m)
    s_f1, s_z = _stirling(f1, f1 * f1), _stirling(z, z * z)

    out = np.empty(len(keys), np.int64)
    pending = np.arange(len(keys))
    attempt = 0
    while pending.size:
        if attempt % 2 == 0:  # attempts 2j and 2j + 1 read the four words of block j + 1
            words = _philox_block(keys[pending], attempt // 2 + 1)
        else:
            words = words[:, ~accept]
        u = _next_double(words[2 * (attempt % 2)]) * p4
        v = _next_double(words[2 * (attempt % 2) + 1])
        attempt += 1
        y = np.zeros(pending.size, np.int64)
        accept = u <= p1  # triangle: accepted at once
        y[accept] = np.floor(xm - p1 * v[accept] + u[accept])
        test = np.zeros(pending.size, bool)  # candidates for the ratio test
        # parallelograms
        i = np.flatnonzero((u > p1) & (u <= p2))
        x = xl + (u[i] - p1) / c
        w = v[i] * c + 1.0 - np.abs(float(m) - x + 0.5) / p1
        keep = w <= 1.0
        i = i[keep]
        y[i], v[i], test[i] = np.floor(x[keep]), w[keep], True
        # left exponential tail; v == 0 is rejected before its log
        i = np.flatnonzero((u > p2) & (u <= p3) & (v > 0.0))
        yl = np.floor(xl + _log(v[i]) / laml)
        keep = yl >= 0.0
        i = i[keep]
        y[i], v[i], test[i] = yl[keep], v[i] * (u[i] - p2) * laml, True
        # right exponential tail; y stays far inside int64 as r <= 1/2
        i = np.flatnonzero((u > p3) & (v > 0.0))
        yr = np.floor(xr - _log(v[i]) / lamr).astype(np.int64)
        keep = yr <= n
        i = i[keep]
        y[i], v[i], test[i] = yr[keep], v[i] * (u[i] - p3) * lamr, True

        i = np.flatnonzero(test)
        k = np.abs(y[i] - m)
        squeeze = (k > 20) & (k < nrq / 2.0 - 1)
        # the ratio f(y) / f(m), one factor at a time
        near, kn = i[~squeeze], k[~squeeze]
        lo, up = np.minimum(y[near], m), y[near] > m
        f = np.ones(near.size)
        for j in range(1, int(kn.max(initial=0)) + 1):
            sel = kn >= j
            term = a / (lo[sel] + j) - s
            f[sel] = np.where(up[sel], f[sel] * term, f[sel] / term)
        accept[near] = ~(v[near] > f)
        # the squeeze, then the log of Stirling's bound on the ratio
        far, kf = i[squeeze], k[squeeze]
        rho = (kf / nrq) * ((kf * (kf / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = -kf * kf / (2 * nrq)
        big_a = _log(v[far])
        accept[far] = big_a < t - rho
        full = ~accept[far] & ~(big_a > t + rho)
        yf, big_a = y[far[full]], big_a[full]
        x1 = (yf + 1).astype(float)
        w = (n - yf + 1).astype(float)
        bound = (
            xm * _log(f1 / x1)
            + (float(n - m) + 0.5) * _log(z / w)
            + (yf - m) * _log(w * r / (x1 * q))
            + s_f1
            + s_z
            + _stirling(x1, x1 * x1)
            + _stirling(w, w * w)
        )
        accept[far[full]] = ~(big_a > bound)

        out[pending[accept]] = y[accept]
        pending = pending[~accept]
    return out


def _binomial(keys: np.ndarray, n: int, p: float) -> np.ndarray:
    """``Generator(Philox(key=k)).binomial(n, p)`` for each key row k, int64."""
    if n == 0 or p == 0.0:
        return np.zeros(len(keys), np.int64)
    r = p if p <= 0.5 else 1.0 - p
    x = (_inversion if r * n <= 30.0 else _btpe)(keys, n, r)
    return x if p <= 0.5 else n - x


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Simulate the full experiment; deterministic in cfg.seed.

    Trial t draws from the Philox substream SeedSequence(seed).spawn(trials)[t]
    from its initial state, so the trial order (or any parallel schedule)
    cannot change the result. Trials are drawn in blocks of _BLOCK_TRIALS.
    """
    probs = outcome_probs(cfg.r, cfg.lambda_true)
    fisher = classical_fisher(probs, outcome_prob_derivs(cfg.r, cfg.lambda_true))
    if math.isinf(fisher):
        # only where rounding leaves an outcome probability at exactly 0
        raise ValueError(
            f"an outcome probability rounds to 0 at r={cfg.r}, lambda={cfg.lambda_true}: "
            "the Fisher information is infinite and the Cramér-Rao bound 0"
        )
    draws = cfg.shots_per_trial * cfg.m
    estimates = np.empty(cfg.trials)
    n_clamped = 0
    for start in range(0, cfg.trials, _BLOCK_TRIALS):
        stop = min(start + _BLOCK_TRIALS, cfg.trials)
        counts = _binomial(_trial_keys(cfg.seed, start, stop), draws, probs[0])
        # Python's int division rounds once, also past 2**53 draws
        p_hat = np.array([c / draws for c in counts.tolist()])
        # a subnormal r overflows the quotient to +-inf, which the clamp handles
        with np.errstate(over="ignore"):
            raw = 0.5 * (1.0 - (2.0 * p_hat - 1.0) / cfg.r)
        n_clamped += int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
        np.clip(raw, 0.0, 1.0, out=estimates[start:stop])
    var = float(np.var(estimates, ddof=1)) if cfg.trials > 1 else 0.0
    crb = math.inf if fisher == 0.0 else 1.0 / (draws * fisher)
    return ExperimentResult(
        estimates=estimates,
        sample_variance=var,
        crb=crb,
        fisher_classical=fisher,
        n_clamped=n_clamped,
    )
