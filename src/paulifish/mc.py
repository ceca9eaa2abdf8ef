"""Monte Carlo check of the Cramér-Rao bound for the independent protocol.

Each run prepares (I + r sigma_y)/2, applies the phase-flip once, and
measures along +-y. The estimator inverts the empirical + fraction,
lambda_hat = (1 - (2 p_hat - 1)/r)/2, clamped to [0, 1]; it is linear in
p_hat, so its variance attains 1/(shots Fisher) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channels, linop

# Trial t's substream is SeedSequence(seed).spawn(trials)[t]. Its spawn key
# (t,) is one uint32 word while t < 2**32, the only case _trial_keys mixes.
MAX_TRIALS = 2**32

# SeedSequence hash constants (numpy/random/bit_generator.pyx; NEP 19 keeps
# this hash stable across numpy releases).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= 2**32, got {self.trials}")
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
    out = channels.apply_pauli_channel(rho, channels.ChannelSpec("z", lam, 1), [1])
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
    if abs(sum(p) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {sum(p)}, not 1")
    if abs(sum(dp)) > 1e-9:
        raise ValueError(f"probability derivatives sum to {sum(dp)}, not 0")
    total = 0.0
    for pk, dpk in zip(p, dp):
        if pk <= 0.0:
            if abs(dpk) > 0.0:
                return math.inf
            continue
        total += dpk * dpk / pk
    return total


def _trial_keys(seed: int, trials: int) -> np.ndarray:
    """Philox keys of every trial substream, shape (trials, 2), uint64.

    Row t equals ``SeedSequence(seed).spawn(trials)[t].generate_state(2,
    np.uint64)``. Every child shares the root's pool before its spawn key
    is mixed in, so the key word t is mixed into that pool and the output
    hash applied as uint32 vectors over all t at once. Array arithmetic
    wraps modulo 2**32 like the C hash; scalar products are taken in Python
    ints so no numpy scalar overflows.
    """
    root = np.random.SeedSequence(seed)
    words = max(1, -(-int(seed).bit_length() // 32))
    # The root's hash took 4 + 12 steps over its first four words, 4 per further word.
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) & _MASK32
    t = np.arange(trials, dtype=np.uint32)
    pool = []
    for word in root.pool.tolist():
        value = t ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value *= hash_a
        value ^= value >> 16
        mixed = (_MIX_MULT_L * word & _MASK32) - _MIX_MULT_R * value
        pool.append(mixed ^ (mixed >> 16))
    hash_b = _INIT_B
    state = np.empty((trials, 4), dtype=np.uint32)
    for i, word in enumerate(pool):
        value = word ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value *= hash_b
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Simulate the full experiment; deterministic in cfg.seed.

    Trial t draws from the Philox substream SeedSequence(seed).spawn(trials)[t]:
    one generator is reset to that substream's initial state (its key, a
    zero counter, an empty buffer) before each draw, so the trial order (or
    any parallel schedule) cannot change the result.
    """
    p_plus, _ = outcome_probs(cfg.r, cfg.lambda_true)
    fisher = classical_fisher(
        outcome_probs(cfg.r, cfg.lambda_true), outcome_prob_derivs(cfg.r, cfg.lambda_true)
    )
    draws = cfg.shots_per_trial * cfg.m
    keys = _trial_keys(cfg.seed, cfg.trials)
    bitgen = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bitgen)
    initial = bitgen.state
    p_hat = np.empty(cfg.trials)
    for t, key in enumerate(keys):
        initial["state"]["key"] = key
        bitgen.state = initial
        p_hat[t] = rng.binomial(draws, p_plus) / draws
    raw = 0.5 * (1.0 - (2.0 * p_hat - 1.0) / cfg.r)
    n_clamped = int(np.count_nonzero((raw < 0.0) | (raw > 1.0)))
    estimates = np.clip(raw, 0.0, 1.0)
    var = float(np.var(estimates, ddof=1)) if cfg.trials > 1 else 0.0
    crb = math.inf if fisher == 0.0 else 1.0 / (draws * fisher)
    return ExperimentResult(
        estimates=estimates,
        sample_variance=var,
        crb=crb,
        fisher_classical=fisher,
        n_clamped=n_clamped,
    )
