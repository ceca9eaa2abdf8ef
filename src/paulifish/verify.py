"""Cross-module verification suites behind the ``verify`` CLI command.

Each suite exercises one family of invariants (oracle equivalence of the
closed-form Fisher information, analytic bounds, the weight-pair and gain
inequalities, discord monotonicity, stationary polarizations, separability
thresholds, preparation-unitary structure) and reports its worst observed
error against a fixed tolerance.

The suites are the single statement of these invariants: each grid,
tolerance and comparison is written here and nowhere else. The acceptance
tests run the suites through ``run_suites`` and assert that they pass.

The suites evaluate their grids in vectorised calls, not point by point:
the closed forms and the dense oracle routes (``qfi.fisher_eig``,
``channels.correlated_state``, ``correlations.is_separable_ppt``,
``bell_diagonalize``, ``discord_xstate``) take whole stacks, so each suite
makes one call per grid, per (n, m) or per m. The worst error over a grid
is the same number the point-by-point loop would find.

The oracle suite's eigensolve runs one 2x2 block per Hamming class
(``channels.hamming_classes``), not one per block of the state: floor(n/2)+1
blocks per grid cell instead of 2^(n-1), which takes it to every n the
closed form accepts. Every reduction goes through ``_worst``, so a NaN in
any compared cell fails its suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channels, correlations, linop, protocol, qfi


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_error: float
    detail: str


def _worst(*values) -> float:
    """Largest entry of the given scalars and arrays, inf if any is NaN:
    the builtin max(0.0, nan) is 0.0, so a NaN would pass every check."""
    top = -math.inf
    for v in values:
        v = float(np.max(v))  # NaN if any entry is NaN
        if math.isnan(v):
            return math.inf
        top = max(top, v)
    return top


def _point_gain(n: int, m: int, r, lam) -> float:
    """protocol.gain at one point, NaN if r or lam is not finite: a NaN from
    a closed form under test then fails its suite through _worst, where
    ProtocolPoint would raise and stop verify."""
    if not (math.isfinite(r) and math.isfinite(lam)):
        return math.nan
    return protocol.gain(protocol.ProtocolPoint(n, m, r, lam))


def _rel_err(a, b) -> float:
    """Largest relative difference between a and b, elementwise for arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return _worst(np.abs(a - b) / scale)


#: Largest qubit count at which the oracle suite also eigendecomposes the
#: dense state, whose eigensolve solves every one of its 2^(n-1) blocks,
#: and checks it against the one-block-per-class route.
DENSE_BRIDGE_N_MAX = 4


#: The lam and r values 0.1..0.9 of the oracle and bounds grids.
_TENTHS = [round(0.1 * k, 10) for k in range(1, 10)]


def _qubit_counts(n_max: int) -> range:
    """Qubit counts 2..n_max of the oracle and bounds suites."""
    if not 2 <= n_max <= protocol.ANALYTIC_N_CAP:
        raise ValueError(f"n_max must lie in 2..{protocol.ANALYTIC_N_CAP}, got {n_max}")
    return range(2, n_max + 1)


def _invocation_counts(n: int) -> list[int]:
    """Invocation counts of the oracle and bounds suites at n qubits: every
    m up to n = 12, and m in {1, 2, ceil(n/2), n-1, n} above."""
    if n <= 12:
        return list(range(1, n + 1))
    return [1, 2, (n + 1) // 2, n - 1, n]


def _class_route(n: int, m: int, r, lam) -> np.ndarray:
    """Fisher information of the post-channel state from one eigensolve per
    Hamming class (channels.hamming_classes), broadcast over r and lam.

    Class j's block is d_j I - o_j s sigma_y with derivative
    -o_j s' sigma_y, s = (1-2 lam)^m. It is solved at unit trace and its
    Fisher information scaled back by the trace 2 d_j: at large n every
    d_j may lie below qfi.SUPPORT_TOL, under which fisher_eig drops a
    direction. H = sum_j mult_j 2 d_j H_j, one batched fisher_eig call.
    """
    mult, diag, off = channels.hamming_classes(n, r)
    c = 1.0 - 2.0 * np.asarray(lam, dtype=float)[..., None, None, None]
    ratio = (off / (2.0 * diag))[..., None, None]
    sigma_y = linop.sigma_y()
    rho = 0.5 * linop.identity() - ratio * c**m * sigma_y
    drho = ratio * 2.0 * m * c ** (m - 1) * sigma_y
    h_unit = qfi.fisher_eig(rho, drho)
    return np.sum(h_unit * (np.array(mult, dtype=float) * 2.0 * diag), axis=-1)


def suite_oracle(n_max: int) -> SuiteResult:
    """Closed-form Fisher information vs the eigendecomposition route.

    For every n <= n_max the route solves one two-level block per Hamming
    class, the whole lams x rs grid in one batched call per (n, m), and
    adds the classes' Fisher informations weighted by their multiplicities;
    the classes' traces, so weighted, must add up to 1. Up to
    DENSE_BRIDGE_N_MAX it also eigendecomposes the dense states, one
    batched call per lam row, and checks them against the classes.
    """
    worst = 0.0
    r_grid, lam_grid = np.array(_TENTHS), np.array(_TENTHS)[:, None]
    for n in _qubit_counts(n_max):
        mult, diag, _ = channels.hamming_classes(n, r_grid)
        worst = _worst(worst, np.abs(2.0 * diag @ np.array(mult, dtype=float) - 1.0))
        for m in _invocation_counts(n):
            h_closed = protocol.qfi_and_gain(n, m, r_grid, lam_grid)[0]
            h_oracle = _class_route(n, m, r_grid, lam_grid)
            worst = _worst(worst, _rel_err(h_oracle, h_closed))
            if n <= DENSE_BRIDGE_N_MAX:
                # one lam row of dense states at a time: the whole grid's
                # stack would raise the peak memory of a run by about 3 MiB
                for lam, h_row in zip(lam_grid, h_oracle):
                    h_dense = qfi.fisher_eig(*channels.correlated_state(n, r_grid, lam, m))
                    worst = _worst(worst, _rel_err(h_dense, h_row))
    return SuiteResult("oracle", worst < 1e-8, worst, f"n<= {n_max}, tol 1e-8")


def suite_bounds(n_max: int) -> SuiteResult:
    """H <= m/(lam(1-lam)) everywhere; pure limit approaches the bound; m
    single uses at rz = 0 give the independent optimum."""
    # single use at lam = 0.05..0.95 against the bound, and on its odd rows,
    # the lam tenths, against the independent optimum
    lams = np.array([round(0.05 * k, 10) for k in range(1, 20)])
    single = np.stack([qfi.qfi_single_use((0.0, r, 0.0), lams) for r in _TENTHS], axis=-1)
    worst = _worst(single - qfi.qfi_upper_bound(lams[:, None], 1))
    single_err = 0.0
    r_grid, lam_grid = np.array(_TENTHS), np.array(_TENTHS)[:, None]
    for n in _qubit_counts(n_max):
        for m in _invocation_counts(n):
            h_closed = protocol.qfi_and_gain(n, m, r_grid, lam_grid)[0]
            h_ind = qfi.qfi_independent_opt(r_grid, lam_grid, m)
            bound = qfi.qfi_upper_bound(lam_grid, m)
            worst = _worst(worst, h_closed - bound, h_ind - bound)
            single_err = _worst(single_err, _rel_err(m * single[1::2], h_ind))
    pure_err = 0.0
    for m in (1, 2, 3):
        h = qfi.qfi_independent_opt(1.0 - 1e-8, lam_grid, m)
        pure_err = _worst(pure_err, _rel_err(h, qfi.qfi_upper_bound(lam_grid, m)))
    ok = worst <= 1e-8 and pure_err < 1e-4 and single_err < 1e-12
    err = max(max(worst, 0.0) + pure_err, single_err)
    return SuiteResult(
        "bounds", ok, err, f"max excess {worst:.2e}, pure-limit rel {pure_err:.2e}"
    )


def suite_weight_inequalities() -> SuiteResult:
    """diff^2/total^2 >= r^2 off the middle index, total >= 2(1-r^2)^(n-1),
    the weighted sum >= 2^(n+1) r^2, and gain > 1 for single invocations,
    for n = 2..8."""
    worst = 0.0  # most negative margin observed, as a positive number
    rs = np.array([round(0.02 * k, 10) for k in range(1, 50)])
    r2 = rs * rs
    lams = np.array([round(0.01 * k, 10) for k in range(0, 101)])[:, None]
    floor_margin = math.inf
    for n in range(2, 9):
        floor = linop._elementwise(lambda x: 2.0 * (1.0 - x * x) ** (n - 1), rs)
        # the weight pairs j <= n/2; j and n-j have the same total and |diff|
        mult, diag, off = channels.hamming_classes(n, rs)
        diff, total = 2.0 ** (n + 1) * off, 2.0 ** (n + 1) * diag
        ratio = (diff / total)[:, : (n + 1) // 2] ** 2  # without the middle class
        worst = _worst(worst, r2[:, None] - ratio, floor[:, None] - total)
        # j and n-j add equal terms, and the middle class, diff = 0, adds 0
        weighted = 2.0 * (diff**2 / total) @ np.array(mult, dtype=float)
        worst = _worst(worst, 2.0 ** (n + 1) * r2 - weighted)
        gain = protocol.qfi_and_gain(n, 1, rs, lams)[1]
        floor_margin = min(floor_margin, -_worst(1.0 - gain))
    ok = worst <= 1e-12 and floor_margin > 0.0
    return SuiteResult(
        "weight-inequalities",
        ok,
        max(worst, 0.0),
        f"worst margin {worst:.2e}, min single-use gain excess {floor_margin:.2e}",
    )


def suite_discord() -> SuiteResult:
    """Strict monotonicity of discord in both arguments, sign symmetry, route
    equivalence between the generic and protocol closed forms, the prepared
    state's discord at lam = 0, and no discord at half strength where the
    single-use gain still exceeds 1."""
    grid = [round(0.05 * k, 10) for k in range(1, 20)]
    r_col, mu_row = np.array(grid)[:, None], np.array(grid)
    worst_mono = -math.inf
    step = 1e-4
    for dr, dmu in ((0.0, step), (step, 0.0)):
        up = correlations.discord_rmu(r_col + dr, mu_row + dmu)
        down = correlations.discord_rmu(r_col - dr, mu_row - dmu)
        worst_mono = _worst(worst_mono, down - up)
    worst_sym = 0.0
    worst_route = 0.0
    worst_half = 0.0
    worst_prep = worst_prep_rel = 0.0
    rs = np.array(grid)
    q_prep = correlations.discord_prep(rs)
    lams = sorted([round(0.1 * k, 10) for k in range(0, 11)] + [0.95])
    lam_col = np.array(lams)[:, None]
    for m in (1, 2):
        mu = correlations._off_diagonal_scale(lam_col, m)
        sym = correlations.discord_rmu(rs, mu) - correlations.discord_rmu(rs, -mu)
        worst_sym = _worst(worst_sym, np.abs(sym))
        q_closed = correlations.discord_protocol(rs, lam_col, m)
        rho = channels.correlated_state(2, rs, lam_col, m)[0]
        q_dense = correlations.discord_xstate(*correlations.bell_diagonalize(rho))
        worst_route = _worst(worst_route, np.abs(q_dense - q_closed))
        worst_half = _worst(worst_half, np.abs(q_closed[lams.index(0.5)]))
        q_zero = q_closed[lams.index(0.0)]
        worst_prep = _worst(worst_prep, np.abs(q_zero - q_prep))
        worst_prep_rel = _worst(worst_prep_rel, _rel_err(q_zero, q_prep))
    half_gain_excess = -_worst(1.0 - protocol.qfi_and_gain(2, 1, rs, 0.5)[1])
    ok = (
        worst_mono < 0.0
        and worst_sym < 1e-12
        and worst_route < 1e-10
        and worst_half <= 1e-12
        and half_gain_excess > 0.0
        and worst_prep_rel < 1e-12
    )
    return SuiteResult(
        "discord",
        ok,
        max(worst_mono, worst_sym, worst_route, worst_half, worst_prep),
        f"mono {worst_mono:.2e}, sym {worst_sym:.2e}, routes {worst_route:.2e}, "
        f"half-strength Q {worst_half:.2e} with gain excess {half_gain_excess:.2e}",
    )


_TABLE_STATIONARY = [
    (1, 0.95, 0.66),
    (1, 0.99, 0.83),
    (2, 0.95, 0.48),
    (2, 0.99, 0.76),
]


def suite_stationary() -> SuiteResult:
    """Reference stationary polarizations of the two-qubit gain, and a flat
    central-difference derivative at every reported root; the reduced
    two-qubit gain, and the one-use gain's extremes over lam."""
    worst_val = 0.0
    worst_grad = 0.0
    h = 1e-4
    for m, lam, expected in _TABLE_STATIONARY:
        roots = protocol.stationary_polarizations(m, lam)
        if not roots:
            return SuiteResult("stationary", False, math.inf, f"no root at m={m}, lam={lam}")
        best = min(roots, key=lambda r: abs(r - expected))
        worst_val = _worst(worst_val, abs(best - expected))
        for root in roots:
            g_plus, g_minus = _point_gain(2, m, root + h, lam), _point_gain(2, m, root - h, lam)
            worst_grad = _worst(worst_grad, abs(g_plus - g_minus) / (2 * h))
    rs = np.array([round(0.05 * k, 10) for k in range(1, 20)])
    lams = np.array([round(0.05 * k, 10) for k in range(0, 21)])[:, None]
    worst_closed = 0.0
    for m in (1, 2):
        g = protocol.qfi_and_gain(2, m, rs, lams)[1]
        worst_closed = _worst(worst_closed, _rel_err(protocol.gain_two_qubit(m, rs, lams), g))
    for r in _TENTHS:
        lo, hi = 2.0 / (1.0 + r * r), 2.0 * (1.0 + r * r) / (1.0 - r * r)
        lo_err, hi_err = abs(protocol.gain_min(2, 1, r) - lo), abs(protocol.gain_max(2, 1, r) - hi)
        worst_closed = _worst(worst_closed, lo_err, hi_err)
    ok = worst_val <= 0.005 and worst_grad < 1e-5 and worst_closed < 1e-10
    worst = max(worst_val, worst_closed)
    return SuiteResult(
        "stationary", ok, worst, f"root dev {worst_val:.4f}, |dG/dr| {worst_grad:.2e}"
    )


def suite_separability() -> SuiteResult:
    """PPT verdict flips across the closed-form threshold, separable points
    with gain above 1 exist, and the closed-form partial-transpose
    eigenvalue and verdict match the dense route at every dense point."""
    margin = 1e-6
    worst = 0.0
    worst_route = 0.0
    found_separable_gain = False
    lams = np.array([round(0.1 * k, 10) for k in range(0, 11)])
    for m in (1, 2):
        thr = correlations.separability_threshold(m, lams)
        below, above = thr - margin > 0.0, thr + margin < 1.0
        # the points just below the threshold, expected separable, then those just above
        r = np.concatenate([thr[below] - margin, thr[above] + margin])
        lam = np.concatenate([lams[below], lams[above]])
        expected = np.arange(r.size) < np.count_nonzero(below)
        sep, min_eig = correlations.is_separable_ppt(channels.correlated_state(2, r, lam, m)[0])
        sep_closed, min_eig_closed = correlations.ppt_closed_form(r, lam, m)
        worst_route = _worst(worst_route, np.abs(min_eig - min_eig_closed))
        if (sep != sep_closed).any():
            worst_route = math.inf
        if (sep != expected).any():
            worst = margin
        interior = expected & (lam > 0.0) & (lam < 1.0)
        g = protocol.qfi_and_gain(2, m, r[interior], lam[interior])[1]
        # g > 1 is False for a NaN, which the search for one point would hide
        worst = _worst(worst, np.where(np.isnan(g), math.inf, 0.0))
        found_separable_gain |= bool((sep[interior] & (g > 1.0)).any())
    ok = worst == 0.0 and found_separable_gain and worst_route < 1e-14
    return SuiteResult(
        "separability",
        ok,
        max(worst, worst_route),
        f"flip margin 1e-6, separable-with-gain {found_separable_gain}, "
        f"routes {worst_route:.2e}",
    )


def suite_preparation() -> SuiteResult:
    """Column structure of the preparation unitary on the rotated basis:
    exactly two amplitudes, (1+i)/2 and (1-i)/2, plus unitarity."""
    worst = 0.0
    # the rotated basis is the sigma_y eigenbasis: bit 0 -> (|0>+i|1>)/sqrt2
    plus = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)
    for n in (2, 3, 4):
        u = channels.preparation_unitary(n)
        worst = _worst(worst, np.abs(u @ u.conj().T - np.eye(2**n)))
        big_n = 2**n - 1
        for x in range(2**n):
            vec = np.array([1.0], dtype=complex)
            for bit_pos in reversed(range(n)):  # qubit n first, qubit 1 last
                vec = np.kron(vec, minus if (x >> bit_pos) & 1 else plus)
            out = u @ vec
            expected = np.zeros(2**n, dtype=complex)
            expected[x] = (1.0 + 1.0j) / 2.0
            expected[big_n - x] = (1.0 - 1.0j) / 2.0
            worst = _worst(worst, np.abs(out - expected))
    return SuiteResult("preparation", worst < 1e-12, worst, "n in {2,3,4}, tol 1e-12")


def suite_threshold_gain() -> SuiteResult:
    """At the channel-strength threshold, the all-qubit small-polarization
    gain reaches n within 1e-2, dephasing time t* = T2 ln m / (2m-2) maps
    onto it, and at t = 0.2 T2 < t* the n = m = 5 gain is at least 4.9."""
    worst = worst_map = 0.0
    for m in range(2, 7):
        lam = protocol.lambda_threshold_gain_n(m)
        worst = _worst(worst, m - _point_gain(m, m, 1e-6, lam))
        t_star = math.log(m) / (2 * m - 2)
        worst_map = _worst(worst_map, abs(protocol.lambda_from_t2(t_star, 1.0) - lam))
    g_t2 = _point_gain(5, 5, 1e-4, protocol.lambda_from_t2(0.2, 1.0))  # NaN fails >= 4.9
    ok = worst < 1e-2 and worst_map <= 1e-12 and g_t2 >= 4.9
    return SuiteResult("threshold-gain", ok, max(worst, worst_map, 0.0), "m=n in 2..6")


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "oracle": suite_oracle,
    "bounds": suite_bounds,
    "weight-inequalities": suite_weight_inequalities,
    "discord": suite_discord,
    "stationary": suite_stationary,
    "separability": suite_separability,
    "preparation": suite_preparation,
    "threshold-gain": suite_threshold_gain,
}


def run_suites(names: list[str] | None, n_max: int) -> list[SuiteResult]:
    """Run the named suites, or all of them for None; n_max, checked before
    any suite runs, caps the qubit count of the oracle and bounds suites."""
    _qubit_counts(n_max)
    selected = names or list(SUITES)
    out = []
    for name in selected:
        fn = SUITES[name]
        if name in ("oracle", "bounds"):
            out.append(fn(n_max=n_max))
        else:
            out.append(fn())
    return out
