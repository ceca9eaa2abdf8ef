"""Cross-module verification suites behind the ``verify`` CLI command.

Each suite exercises one family of invariants (oracle equivalence of the
closed-form Fisher information, analytic bounds, the class-polarization and
gain inequalities, discord against its definition, stationary polarizations,
separability thresholds, preparation-unitary structure) as named checks,
each an observed error and the tolerance it must stay below.

The suites are the single statement of these invariants: each grid,
tolerance and comparison is written here and nowhere else. One rule, in
``SuiteResult``, turns a suite's checks into its verdict and its worst
error. The acceptance tests run the suites through ``run_suites`` and assert
that the checks of their criteria pass.

The suites evaluate their grids in vectorised calls, not point by point:
the closed forms and the dense oracle routes (``qfi.fisher_eig``,
``channels.correlated_state``, ``correlations.is_separable_ppt``, discord
from its definition) take whole stacks, so each suite makes one call per
grid or per budgeted slice of one. The worst error over a grid is the same
number the point-by-point loop would find.

The oracle suite solves one 2x2 block per Hamming class, not one per
block of the state (``suite_oracle``), which takes it to every n the
closed form accepts. The oracle and bounds suites walk one (n, m) table,
``_cases``, an m at a time, so what depends on m alone is formed once per
m. Every reduction goes through ``_worst``, so a NaN in any compared cell
fails its check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channels, correlations, linop, protocol, qfi


@dataclass(frozen=True)
class SuiteResult:
    """A suite's checks by name, each an (error, tolerance) pair, in the
    order of its detail line. A check fails unless its error is below its
    tolerance, so a NaN error fails it; the suite passes when no check
    fails, and its max_error is the worst error of any check."""

    name: str
    checks: dict[str, tuple[float, float]]
    detail: str

    @property
    def failed(self) -> list[str]:
        return [check for check, (error, tol) in self.checks.items() if not error < tol]

    @property
    def passed(self) -> bool:
        return not self.failed

    @property
    def max_error(self) -> float:
        return _worst(*(error for error, _ in self.checks.values()))


#: The tolerance of a check whose error must be at most 0: an exact zero, a
#: presence (0 if found, inf if not), or a floor the value may meet.
_EXACT = math.ulp(0.0)


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


def _tol_text(tol: float) -> str:
    """A tolerance as a detail line prints it: 1e-8, not f"{tol:g}"'s 1e-08."""
    return np.format_float_scientific(tol, trim="-", exp_digits=1)


def _point_gain(n: int, m: int, r, lam) -> float:
    """protocol.gain at one point, NaN if r or lam is not finite: a NaN from
    a closed form under test then fails its suite through _worst, where
    gain would raise and stop verify."""
    if not (math.isfinite(r) and math.isfinite(lam)):
        return math.nan
    return protocol.gain(n, m, r, lam)


def _rel_err(a, b) -> float:
    """Largest relative difference between a and b, elementwise for arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return _worst(np.abs(a - b) / scale)


#: Largest qubit count at which the oracle suite also eigendecomposes the
#: dense state, whose eigensolve solves every one of its 2^(n-1) blocks,
#: and checks it against the class blocks' sum.
DENSE_BRIDGE_N_MAX = 4


#: The lam and r values 0.1..0.9 of the bounds grid, and 0..1 with the ends.
_TENTHS = [round(0.1 * k, 10) for k in range(1, 10)]
_TENTHS_WITH_ENDS = [0.0, *_TENTHS, 1.0]
#: 0.05..0.95 in steps of 0.05; its odd entries are _TENTHS.
_TWENTIETHS = [round(0.05 * k, 10) for k in range(1, 20)]
#: The oracle grid: r out to 1e-12 from each end of (0, 1), lam to 1e-3.
_EDGE_RS = [1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9]
_EDGE_LAMS = [1e-3, 0.1, 0.3, 0.5 - 1e-6, 0.5, 0.5 + 1e-3, 0.7, 0.9, 1 - 1e-3]


def _cases(n_max: int) -> list[tuple[int, list[int]]]:
    """The (n, m) table of the oracle and bounds suites, by m: each m in
    1..n_max with the qubit counts n in 2..n_max that use it. An n uses
    every m up to n = 12, and m in {1, 2, ceil(n/2), n-1, n} above. n_max
    must be an integer (linop.check_integer)."""
    n_max = linop.check_integer(n_max, "n_max")
    if not 2 <= n_max <= protocol.ANALYTIC_N_CAP:
        raise ValueError(f"n_max must lie in 2..{protocol.ANALYTIC_N_CAP}, got {n_max}")
    ns = range(2, n_max + 1)
    return [
        (m, [n for n in ns if m <= n and (n <= 12 or m in (1, 2, (n + 1) // 2, n - 1, n))])
        for m in range(1, n_max + 1)
    ]


def _class_fisher(m: int, t, lam) -> np.ndarray:
    """Fisher information of the unit-trace class blocks of polarization t
    after m channel uses at strength lam: (I - t s sigma_y)/2 with
    derivative m t (1-2 lam)^(m-1) sigma_y, s = (1-2 lam)^m, in one batched
    fisher_eig call, over lam's shape then t's."""
    c = 1.0 - 2.0 * np.asarray(lam, dtype=float)[..., None, None, None]
    t, sigma_y = t[..., None, None], linop.sigma_y()
    rho = 0.5 * (linop.identity() - t * c**m * sigma_y)
    return qfi.fisher_eig(rho, m * t * c ** (m - 1) * sigma_y)


#: Complex entries (72 KiB) of the operator stack of one oracle fisher_eig
#: call, which only a slice of one item may exceed. It bounds the size of
#: fisher_eig's temporaries: with no budget, verify --n-max 64 peaks at
#: 34.3 MiB RSS instead of 32.2, and twice it doubles the traced peak of
#: suite_oracle(6), 0.59 MiB.
_ORACLE_ENTRIES = 4608


def _slices(count: int, entries: int) -> list[slice]:
    """Consecutive slices of count items of the given entries each, every
    slice within _ORACLE_ENTRIES or else of one item."""
    step = max(1, _ORACLE_ENTRIES // entries)
    return [slice(i, i + step) for i in range(0, count, step)]


def suite_oracle(n_max: int) -> SuiteResult:
    """Closed-form Fisher information vs the eigendecomposition route.

    Class j's unit-trace block depends on n only through k = n - 2j, its
    polarization t = tanh(k atanh r). So for each m the route solves every
    k that some n <= n_max with that m needs once, over the whole lams x rs
    grid and as many k at once as _ORACLE_ENTRIES allows, and adds each
    n's classes, H = sum_j p_j H_(n-2j), with p_j adding up to 1. Up to
    DENSE_BRIDGE_N_MAX it also eigendecomposes the dense states, as many
    lam rows per call as the budget allows, and checks them against the
    classes.
    """
    sums_err = closed_err = bridge_err = 0.0
    r_grid, lam_grid = np.array(_EDGE_RS), np.array(_EDGE_LAMS)[:, None]
    cases = _cases(n_max)
    probs, t_of_k = {}, np.zeros(r_grid.shape + (n_max + 1,))
    for n in range(2, n_max + 1):
        _, probs[n], t = channels.hamming_classes(n, r_grid)
        t_of_k[:, n - 2 * np.arange(n // 2 + 1)] = t  # t(n - 2j), the same bits for every n
        sums_err = _worst(sums_err, np.abs(probs[n].sum(-1) - 1.0))
    per_k = 4 * lam_grid.size * r_grid.size  # the 2x2 block of one k at every cell
    for m, ns in cases:
        ks = np.array(sorted({n - 2 * j for n in ns for j in range(n // 2 + 1)}))
        h_of_k = np.empty(lam_grid.shape[:1] + t_of_k.shape)
        for s in _slices(ks.size, per_k):
            h_of_k[..., ks[s]] = _class_fisher(m, t_of_k[:, ks[s]], lam_grid)
        for n in ns:
            h_classes = np.sum(h_of_k[..., n - 2 * np.arange(n // 2 + 1)] * probs[n], axis=-1)
            h_closed = protocol.qfi_and_gain(n, m, r_grid, lam_grid)[0]
            closed_err = _worst(closed_err, _rel_err(h_classes, h_closed))
            if n <= DENSE_BRIDGE_N_MAX:
                for s in _slices(lam_grid.size, 4**n * r_grid.size):
                    h_dense = qfi.fisher_eig(*channels.correlated_state(n, r_grid, lam_grid[s], m))
                    bridge_err = _worst(bridge_err, _rel_err(h_dense, h_classes[s]))
    errs = {"class-sums": sums_err, "closed-form": closed_err, "dense-bridge": bridge_err}
    tol = 1e-8
    checks = {k: (e, tol) for k, e in errs.items()}
    return SuiteResult("oracle", checks, f"n<= {n_max}, tol {_tol_text(tol)}")


def suite_bounds(n_max: int) -> SuiteResult:
    """H <= m/(lam(1-lam)) everywhere; pure limit approaches the bound; m
    single uses at rz = 0 give the independent optimum; and the zeros that
    the closed forms make exact are 0: H at r = 0, through qfi_correlated,
    the one closed form that takes r = 0, and for m >= 2 H and the gain at
    lam = 1/2, where nu = 0 takes the power m - 1."""
    # single use at lam = 0.05..0.95 against the bound, and on its odd rows,
    # the lam tenths, against the independent optimum
    lams = np.array(_TWENTIETHS)
    single = np.stack([qfi.qfi_single_use((0.0, r, 0.0), lams) for r in _TENTHS], axis=-1)
    worst = _worst(single - qfi.qfi_upper_bound(lams[:, None], 1))
    single_err = zero_err = 0.0
    r_grid, lam_grid = np.array(_TENTHS), np.array(_TENTHS)[:, None]
    half = _TENTHS.index(0.5)
    for m, ns in _cases(n_max):
        h_ind = qfi.qfi_independent_opt(r_grid, lam_grid, m)
        bound = qfi.qfi_upper_bound(lam_grid, m)
        single_err = _worst(single_err, _rel_err(m * single[1::2], h_ind))
        worst = _worst(worst, h_ind - bound)
        for n in ns:
            h, g = protocol.qfi_and_gain(n, m, r_grid, lam_grid)
            worst = _worst(worst, h - bound)
            h_r0 = protocol.qfi_correlated(n, m, 0.0, 0.1)
            zero_err = _worst(zero_err, abs(h_r0))
            if m > 1:
                zero_err = _worst(zero_err, np.abs(h[half]), np.abs(g[half]))
    pure_err = 0.0
    for m in (1, 2, 3):
        h = qfi.qfi_independent_opt(1.0 - 1e-8, lam_grid, m)
        pure_err = _worst(pure_err, _rel_err(h, qfi.qfi_upper_bound(lam_grid, m)))
    checks = {
        "excess": (worst, 1e-8),
        "pure-limit": (pure_err, 1e-4),
        "single-use": (single_err, 1e-12),
        "exact-zeros": (zero_err, _EXACT),
    }
    errs = (
        f"max excess {worst:.2e}, pure-limit rel {pure_err:.2e}, "
        f"single-use rel {single_err:.2e}, exact zeros {zero_err:.2e}"
    )
    return SuiteResult("bounds", checks, errs)


def suite_weight_inequalities() -> SuiteResult:
    """t_j^2 >= r^2 off the middle class, sum_j p_j t_j^2 >= r^2, each block's
    p_j/mult_j >= ((1-r^2)/2)^(n-1) relative to that floor (the paper's total
    >= 2(1-r^2)^(n-1)), and gain > 1 for single invocations, for n = 2..8."""
    worst = 0.0  # most negative margin observed, as a positive number
    rs = np.array([round(0.02 * k, 10) for k in range(1, 50)])
    r2 = rs * rs
    lams = np.array([round(0.01 * k, 10) for k in range(0, 101)])[:, None]
    shortfall = -math.inf  # largest 1 - gain, below 0 while every gain exceeds 1
    for n in range(2, 9):
        floor = ((0.5 * (1.0 - r2)) ** (n - 1))[:, None]
        mult, p, t = channels.hamming_classes(n, rs)
        floor_gap = 1.0 - p / (floor * np.array(mult, dtype=float))
        t_gap = r2[:, None] - t[:, : (n + 1) // 2] ** 2  # the middle class has t = 0
        worst = _worst(worst, t_gap, floor_gap, r2 - np.sum(p * t * t, axis=-1))
        gain = protocol.qfi_and_gain(n, 1, rs, lams)[1]
        shortfall = _worst(shortfall, 1.0 - gain)
    return SuiteResult(
        "weight-inequalities",
        {"ratio": (worst, 1e-12), "gain-floor": (shortfall, 0.0)},
        f"worst margin {worst:.2e}, min single-use gain excess {-shortfall:.2e}",
    )


def _xlog2(v: np.ndarray) -> np.ndarray:
    logs = np.log2(v, out=np.zeros_like(v), where=v > 0.0)  # 0 log2 0 := 0
    return np.multiply(v, logs, out=logs)


def _discord_from_definition(rho) -> np.ndarray:
    """Discord in bits of each two-qubit state of a stack (..., 4, 4) from
    its definition (Ollivier & Zurek, PRL 88, 017901 (2001)), measuring
    qubit 1: Q = S(rho_B) - S(rho) + min_n sum_+- p_+- S(rho_A|+-n).

    Outcome +- leaves qubit 2 in (R_0 +- n.R)/2, R_k = Tr_B[(I x sigma_k)
    rho], of trace u_0/2 and spectrum (u_0 +- |u_1..3|)/4, u = corr[0] +-
    n.corr[1:], corr[k, j] = Tr[R_k sigma_j]. Search: a 7 x 12 (theta, phi)
    grid on half the sphere (n and -n are one measurement), then 24 halvings
    of a 3 x 3 grid in a chart tangent at the best axis. discord_protocol
    solves the same minimum (Luo, PRA 77, 042303 (2008)) and shares no code.
    """
    paulis = np.array([linop.identity(), linop.sigma_x(), linop.sigma_y(), linop.sigma_z()])
    # blocks[s, a, b, c, d] = <ab| rho_s |cd>: qubit 2 in a, c and qubit 1 in b, d
    blocks = np.asarray(rho, dtype=complex).reshape((-1, 2, 2, 2, 2))
    parts = np.einsum("kdb,sabcd->skac", paulis, blocks)  # R_k of each state
    corr = np.einsum("skac,jca->skj", parts, paulis).real
    base = np.sum(_xlog2(np.linalg.eigvalsh(blocks.reshape(-1, 4, 4))), axis=-1)  # -S(rho)
    base -= np.sum(_xlog2(np.linalg.eigvalsh(np.einsum("sabad->sbd", blocks))), axis=-1)

    def measured(coef, basis):  # sum_+- p_+- S(rho_A|+-n), by state and axis n
        tilt = sum(coef[..., i, None] * basis[:, None, i] for i in range(3))  # n.corr[1:]
        u = corr[:, None, 0] + np.array([1.0, -1.0])[:, None, None, None] * tilt
        u0, bloch = u[..., 0], np.sqrt(np.einsum("...i,...i->...", u[..., 1:], u[..., 1:]))
        x = _xlog2(np.stack([u0 / 2.0, (u0 + bloch) / 4.0, (u0 - bloch) / 4.0]))
        return np.sum(x[0] - x[1] - x[2], axis=0)

    grid = np.meshgrid(np.arange(7) * np.pi / 6, np.arange(12) * np.pi / 12, indexing="ij")
    (ct, cp), (st, sp) = np.cos(grid).reshape(2, -1), np.sin(grid).reshape(2, -1)
    # each coarse axis e_0, then its unit tangents e_1, e_2 along theta and phi
    frames = np.array([[st * cp, st * sp, ct], [ct * cp, ct * sp, -st], [-sp, cp, 0.0 * sp]])
    # one theta row per call keeps the temporaries, and a run's peak memory, small
    cost = [measured(e_0, corr[:, 1:]) for e_0 in np.split(frames[0].T, 7)]
    best = np.argmin(np.concatenate(cost, axis=-1), axis=-1)
    # n = (e_0 + a e_1 + b e_2) / sqrt(1 + a^2 + b^2) about the best axis, at = (1, a, b)
    proj = np.einsum("iks,skj->sij", frames[..., best], corr[:, 1:])  # e_i.corr[1:]
    rows, at = np.arange(best.size), np.tile([1.0, 0.0, 0.0], (best.size, 1))
    offsets = np.array([(0.0, a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])
    for halving in range(1, 25):
        cand = at[:, None] + np.pi / 6 / 2**halving * offsets
        cost = measured(cand / np.sqrt(np.sum(cand * cand, axis=-1, keepdims=True)), proj)
        k = np.argmin(cost, axis=-1)
        at, low = cand[rows, k], cost[rows, k]
    return (base + low).reshape(np.shape(rho)[:-2])


def suite_discord() -> SuiteResult:
    """Strict monotonicity of discord in both arguments, sign symmetry, the
    closed form against discord from its definition, the prepared state's
    discord at lam = 0, and no discord at half strength where the
    single-use gain still exceeds 1."""
    r_col, mu_row = np.array(_TWENTIETHS)[:, None], np.array(_TWENTIETHS)
    worst_mono = -math.inf
    step = 1e-4
    for dr, dmu in ((0.0, step), (step, 0.0)):
        up = correlations.discord_rmu(r_col + dr, mu_row + dmu)
        down = correlations.discord_rmu(r_col - dr, mu_row - dmu)
        worst_mono = _worst(worst_mono, down - up)
    # both branches of c = max(r^2, r|mu|), lam = 1/2 (Q = 0) and lam = 0
    route_rs = np.array([0.05, 0.3, 0.6, 0.9, 0.99])
    route_lams = np.array([0.0, 0.1, 0.3, 0.45, 0.5, 0.7, 0.95])[:, None]
    rho = np.stack([channels.correlated_state(2, route_rs, route_lams, m)[0] for m in (1, 2)])
    q_closed = np.stack([correlations.discord_protocol(route_rs, route_lams, m) for m in (1, 2)])
    worst_route = _worst(np.abs(_discord_from_definition(rho) - q_closed))
    worst_sym = worst_half = 0.0
    worst_prep = 0.0
    rs = np.array(_TWENTIETHS)
    q_prep = correlations.discord_prep(rs)
    lams = sorted(_TENTHS_WITH_ENDS + [0.95])
    lam_col = np.array(lams)[:, None]
    for m in (1, 2):
        mu = (1.0 - 2.0 * lam_col) ** m
        sym = correlations.discord_rmu(rs, mu) - correlations.discord_rmu(rs, -mu)
        worst_sym = _worst(worst_sym, np.abs(sym))
        q_closed = correlations.discord_protocol(rs, lam_col, m)
        worst_half = _worst(worst_half, np.abs(q_closed[lams.index(0.5)]))
        q_zero = q_closed[lams.index(0.0)]
        worst_prep = _worst(worst_prep, _rel_err(q_zero, q_prep))
    half_shortfall = _worst(1.0 - protocol.qfi_and_gain(2, 1, rs, 0.5)[1])
    checks = {
        "monotone": (worst_mono, 0.0),
        "sign-symmetry": (worst_sym, 1e-12),
        "dense-route": (worst_route, 1e-10),
        "half-strength-discord": (worst_half, 1e-12),
        "half-strength-gain": (half_shortfall, 0.0),
        "prepared-state": (worst_prep, 1e-12),
    }
    return SuiteResult(
        "discord",
        checks,
        f"mono {worst_mono:.2e}, sym {worst_sym:.2e}, routes {worst_route:.2e}, "
        f"half-strength Q {worst_half:.2e} with gain excess {-half_shortfall:.2e}",
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
        best = min(roots, key=lambda r: abs(r - expected), default=math.inf)
        worst_val = _worst(worst_val, abs(best - expected))
        for root in roots:
            g_plus, g_minus = _point_gain(2, m, root + h, lam), _point_gain(2, m, root - h, lam)
            worst_grad = _worst(worst_grad, abs(g_plus - g_minus) / (2 * h))
    rs = np.array(_TWENTIETHS)
    lams = np.array([0.0, *_TWENTIETHS, 1.0])[:, None]
    worst_closed = 0.0
    for m in (1, 2):
        g = protocol.qfi_and_gain(2, m, rs, lams)[1]
        worst_closed = _worst(worst_closed, _rel_err(protocol.gain_two_qubit(m, rs, lams), g))
    for r in _TENTHS:
        lo, hi = 2.0 / (1.0 + r * r), 2.0 * (1.0 + r * r) / (1.0 - r * r)
        extremes = protocol.gain_min(2, 1, r), protocol.gain_max(2, 1, r)
        worst_closed = _worst(worst_closed, _rel_err(extremes, (lo, hi)))
    checks = {
        "root": (worst_val, 0.005),
        "gain-slope": (worst_grad, 1e-5),
        "closed-forms": (worst_closed, 1e-12),
    }
    return SuiteResult("stationary", checks, f"root dev {worst_val:.4f}, |dG/dr| {worst_grad:.2e}")


def suite_separability() -> SuiteResult:
    """PPT verdict flips across the closed-form threshold, separable points
    with gain above 1 exist, and the closed-form partial-transpose
    eigenvalue and verdict match the dense route at every dense point."""
    margin = 1e-6
    worst = worst_route = gain_err = 0.0
    found_separable_gain = False
    lams = np.array(_TENTHS_WITH_ENDS)
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
        gain_err = _worst(gain_err, np.where(np.isnan(g), math.inf, 0.0))
        found_separable_gain |= bool((sep[interior] & (g > 1.0)).any())
    checks = {
        "threshold": (worst, _EXACT),
        "separable-gain": (gain_err if found_separable_gain else math.inf, _EXACT),
        "dense-route": (worst_route, 1e-14),
    }
    return SuiteResult(
        "separability",
        checks,
        f"flip margin 1e-6, separable-with-gain {found_separable_gain}, "
        f"routes {worst_route:.2e}",
    )


def suite_preparation() -> SuiteResult:
    """Column structure of the preparation unitary on the rotated basis:
    exactly two amplitudes, (1+i)/2 and (1-i)/2, plus unitarity."""
    unit_err = col_err = 0.0
    # the rotated basis is the sigma_y eigenbasis: bit 0 -> (|0>+i|1>)/sqrt2,
    # bit 1 -> (|0>-i|1>)/sqrt2; column x of its n-fold tensor product holds
    # the bits of x, qubit n first
    basis = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0)
    for n in (2, 3, 4):
        u = channels.preparation_unitary(n)
        unit_err = _worst(unit_err, np.abs(u @ u.conj().T - np.eye(2**n)))
        x = np.arange(2**n)
        expected = np.zeros((2**n, 2**n), dtype=complex)
        expected[x, x] = (1.0 + 1.0j) / 2.0
        expected[2**n - 1 - x, x] = (1.0 - 1.0j) / 2.0
        col_err = _worst(col_err, np.abs(u @ functools.reduce(np.kron, [basis] * n) - expected))
    tol = 1e-12
    checks = {"unitary": (unit_err, tol), "columns": (col_err, tol)}
    return SuiteResult("preparation", checks, f"n in {{2,3,4}}, tol {_tol_text(tol)}")


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
    t2_err = 4.9 - _point_gain(5, 5, 1e-4, protocol.lambda_from_t2(0.2, 1.0))  # NaN fails
    checks = {"gain": (worst, 1e-2), "t2-map": (worst_map, 1e-12), "t2-gain": (t2_err, _EXACT)}
    return SuiteResult("threshold-gain", checks, "m=n in 2..6")


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


def run_suites(name: str | None, n_max: int) -> list[SuiteResult]:
    """Run the named suite, or all of them for None. The name and n_max are
    checked before any suite runs; n_max caps the qubit count of the oracle
    and bounds suites."""
    if name is not None and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    _cases(n_max)
    return [
        SUITES[s](n_max=n_max) if s in ("oracle", "bounds") else SUITES[s]()
        for s in (SUITES if name is None else [name])
    ]
