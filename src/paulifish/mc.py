"""Monte Carlo check of the Cramér-Rao bound for the independent protocol.

Each run prepares (I + r sigma_y)/2, applies the phase-flip once, and
measures along +-y, with outcome probabilities (1 +- r(1-2 lam))/2 in
closed form: no matrix is built. The estimator inverts the empirical +
fraction, lambda_hat = (1 - (2 p_hat - 1)/r)/2, clamped to [0, 1]; it is
linear in p_hat, so its variance attains 1/(shots Fisher) exactly.

Trial t's count is numpy's ``Generator(Philox(child)).binomial(shots * m,
p_plus)`` for ``child = SeedSequence(seed).spawn(trials)[t]``, computed here
as array passes over a block of trials: one mix_entropy pass of the
SeedSequence hash, the Philox block function and numpy's binomial sampler,
published algorithms with every integer and rounding step reproduced, so
numpy.random is never imported. BTPE's few trials that a block's first two
attempts reject are carried to a tail shared by all blocks, finished a
block at a time. Every trial reads only its own stream, so neither the
block size nor the tail's order changes a draw, and the run's working set,
the estimates aside, is a few blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linop

# Trial t's substream is SeedSequence(seed).spawn(trials)[t]. Its spawn key
# (t,) is one uint32 word while t < 2**32, the only case _trial_keys mixes.
# The bound itself is set by memory: trials are drawn in blocks, but every
# trial keeps its float64 estimate, so 10**7 trials peak at 108 MiB RSS
# (numpy's import included).
MAX_TRIALS = 10**7

# Trials drawn, and CSV rows written (formatted with one % per block), per
# pass; bounds every temporary of the keys, the sampler, the variance and the
# trial CSV.
_BLOCK_TRIALS = 2**12

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
    """One run's settings. r and lambda_true must each be one number
    (linop.check_scalar), and are kept as Python floats; m, trials,
    shots_per_trial and seed must be integers (linop.check_integer), and are
    kept as Python ints."""

    r: float
    lambda_true: float
    m: int
    trials: int
    shots_per_trial: int
    seed: int

    def __post_init__(self):
        r = linop.check_unit_interval(self.r, "polarization", "(0, 1]")
        lam = linop.check_unit_interval(self.lambda_true, "true channel strength", "(0, 1)")
        object.__setattr__(self, "r", linop.check_scalar(r, "polarization"))
        object.__setattr__(self, "lambda_true", linop.check_scalar(lam, "true channel strength"))
        for name in ("m", "trials", "shots_per_trial", "seed"):
            # as a Python int: a numpy integer seed gives the plain int's run
            object.__setattr__(self, name, linop.check_integer(getattr(self, name), name))
        linop.check_invocations(self.m)
        for name in ("trials", "shots_per_trial"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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


def _checked(r: float, lam: float) -> tuple[float, float]:
    """(r, lam) as floats (linop.check_scalar), if r is the y component of a
    Bloch vector of norm at most 1 and lam lies in [0, 1]; otherwise raises."""
    r = linop.check_scalar(r, "polarization")
    linop.check_bloch_norm(abs(r))
    lam = linop.check_unit_interval(lam, "channel strength")
    return r, linop.check_scalar(lam, "channel strength")


def outcome_probs(r: float, lam: float) -> tuple[float, float]:
    """Born-rule probabilities of the +-y measurement after one channel use.

    The post-channel state (1-lam) rho + lam Z rho Z, rho = (I + r sigma_y)/2,
    has diagonal d and Im rho_01 = a, and p_+- = d -+ a. d and a are the
    channel map's own sums on those entries, and every other product of the
    dense trace is by 0, 1/2 or 1, so the bits are the dense Born rule's.
    """
    r, lam = _checked(r, lam)
    d = (1.0 - lam) * 0.5 + lam * 0.5
    a = (1.0 - lam) * (-0.5 * r) + lam * (0.5 * r)
    return d - a, d + a


def outcome_prob_derivs(r: float, lam: float) -> tuple[float, float]:
    """Derivatives of the +-y outcome probabilities in the channel strength.

    The exact derivative of the channel map, Z rho Z - rho = -r sigma_y,
    pushed through the Born rule: -+r, with the dense route's bits. It
    halves r as it forms rho, which rounds a subnormal r, and its trace
    adds +0.0, which turns r = -0.0 into +0.0.
    """
    r, _ = _checked(r, lam)
    twice_half = 2.0 * (0.5 * r)
    return 0.0 - twice_half, 0.0 + twice_half


def classical_fisher(p: Sequence[float], dp: Sequence[float]) -> float:
    """Discrete Fisher information sum dp_k**2 / p_k over one-dimensional p, dp.

    A zero-probability outcome with nonzero derivative carries infinite
    information and returns ``math.inf``.
    """
    p, dp = np.asarray(p, dtype=float), np.asarray(dp, dtype=float)
    if p.ndim != 1 or dp.ndim != 1:
        raise ValueError(f"p and dp must be one-dimensional, got shapes {p.shape} and {dp.shape}")
    p, dp = p.tolist(), dp.tolist()  # Python floats, as float(v) gives them
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


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of trials start..stop-1, shape (stop - start, 2), uint64.

    Row i is ``SeedSequence(seed).spawn(trials)[start + i].generate_state(2,
    np.uint64)`` for any trials >= stop: numpy's mix_entropy (bit_generator.pyx)
    runs once over the child's entropy, the seed's uint32 words as Python
    ints and then the spawn word t as an array over the block, and
    generate_state hashes the pool out. Each step is taken modulo 2**32, as
    in the C hash, for ints and uint32 arrays alike.
    """
    # the seed's words, least significant first, zero-padded to the pool's four
    words = max(4, -(-seed.bit_length() // 32))
    entropy = [seed >> s & _MASK32 for s in range(0, 32 * words, 32)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))  # the spawn key (t,)
    hash_const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        y = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return y ^ y >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):  # source-major, as in numpy
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((stop - start, 4), dtype="<u4")  # low word of each key first
    hash_const, mult = _INIT_B, _MULT_B  # generate_state hashes each pool word the same way
    for i, word in enumerate(pool):
        state[:, i] = hashmix(word)
    return state.view("<u8").astype(np.uint64, copy=False)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of the 128-bit products a * b, from 32-bit
    halves; each partial sum stays below 2**64."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    t = b_hi * a_lo + (b_lo * a_lo >> 32)
    w = b_lo * a_hi + (t & _MASK32)
    return b_hi * a_hi + (t >> 32) + (w >> 32), b * a


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


def _btpe(
    keys: np.ndarray, n: int, r: float, first: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's random_binomial_btpe on each key row's stream (r <= 1/2, n r > 30).

    Kachitvichyanukul & Schmeiser, CACM 31(2), 1988. Attempt j of a trial
    takes draws 2j and 2j + 1 of its stream; each pass makes one attempt for
    every trial still pending and keeps the ones that were rejected. Integer
    steps wrap like the C int64 arithmetic they copy.

    The passes run from attempt first (even) up to, not including, attempt
    stop, or until every row is accepted. Returns (out, pending): the rows
    in pending were rejected at every attempt made, and out holds the draw
    of every other row.
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
    attempt = first
    while pending.size and attempt != stop:
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
    return out, pending


def _sample_variance(x: np.ndarray) -> float:
    """float(np.var(x, ddof=1)) for len(x) >= 2, bit for bit, with no
    temporary longer than a block.

    np.var divides np.add.reduce(x) by n, then sums the squared deviations
    with numpy's pairwise sum: a range of more than 128 values is halved,
    the first half rounded down to a multiple of 8, and the halves' sums
    added. This follows those splits until a range fits in a block and
    hands each such range to np.add.reduce.
    """
    n = x.size
    mean = np.add.reduce(x) / n

    def squares(lo: int, hi: int):
        if hi - lo <= max(_BLOCK_TRIALS, 128):
            d = x[lo:hi] - mean
            return np.add.reduce(np.multiply(d, d, out=d))
        half = (hi - lo) // 2
        half -= half % 8
        return squares(lo, lo + half) + squares(lo + half, hi)

    return float(squares(0, n) / (n - 1))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Simulate the full experiment; deterministic in cfg.seed.

    Trial t draws from the Philox substream SeedSequence(seed).spawn(trials)[t]
    from its initial state, so the trial order (or any parallel schedule)
    cannot change the result. Trials are drawn in blocks of _BLOCK_TRIALS.
    BTPE makes attempts 0 and 1 of a block, the two that read Philox block 1;
    the trials they reject join one shared tail, which BTPE finishes from
    attempt 2 whenever it holds a block of trials, and once more at the end.
    A trial's estimate is formed as soon as its count is final.
    """
    if not isinstance(cfg, ExperimentConfig):  # only its constructor checks the settings
        raise TypeError(f"run_experiment takes an ExperimentConfig, got {type(cfg).__name__}")
    probs = outcome_probs(cfg.r, cfg.lambda_true)
    fisher = classical_fisher(probs, outcome_prob_derivs(cfg.r, cfg.lambda_true))
    if math.isinf(fisher):
        # only where rounding leaves an outcome probability at exactly 0
        raise ValueError(
            f"an outcome probability rounds to 0 at r={cfg.r}, lambda={cfg.lambda_true}: "
            "the Fisher information is infinite and the Cramér-Rao bound 0"
        )
    draws = cfg.shots_per_trial * cfg.m
    p = probs[0]
    r = p if p <= 0.5 else 1.0 - p  # numpy's split: draw the rarer outcome
    estimates = np.empty(cfg.trials)
    n_clamped = 0

    def settle(trials, x: np.ndarray) -> None:
        """Store the estimates of trials from their final draws x."""
        nonlocal n_clamped
        counts = x if p <= 0.5 else draws - x
        # Python's int division rounds once, also past 2**53 draws
        p_hat = np.array([c / draws for c in counts.tolist()])
        # a subnormal r overflows the quotient to +-inf, which the clamp handles
        with np.errstate(over="ignore"):
            raw = 0.5 * (1.0 - (2.0 * p_hat - 1.0) / cfg.r)
        n_clamped += int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
        estimates[trials] = np.clip(raw, 0.0, 1.0)

    tail = []  # (trials, keys) that BTPE rejected at attempts 0 and 1
    for start in range(0, cfg.trials, _BLOCK_TRIALS):
        stop = min(start + _BLOCK_TRIALS, cfg.trials)
        keys = _trial_keys(cfg.seed, start, stop)
        if r * draws <= 30.0:
            settle(slice(start, stop), _inversion(keys, draws, r))
            continue
        x, pending = _btpe(keys, draws, r, stop=2)
        done = np.delete(np.arange(stop - start), pending)
        settle(start + done, x[done])
        if pending.size:
            tail.append((start + pending, keys[pending]))
        if tail and (sum(len(t) for t, _ in tail) >= _BLOCK_TRIALS or stop == cfg.trials):
            trials, tail_keys = map(np.concatenate, zip(*tail))
            tail.clear()
            settle(trials, _btpe(tail_keys, draws, r, first=2)[0])
    var = _sample_variance(estimates) if cfg.trials > 1 else 0.0
    crb = math.inf if fisher == 0.0 else 1.0 / (draws * fisher)
    return ExperimentResult(
        estimates=estimates,
        sample_variance=var,
        crb=crb,
        fisher_classical=fisher,
        n_clamped=n_clamped,
    )
