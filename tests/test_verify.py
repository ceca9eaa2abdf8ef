"""Every verify check catches a fault: one input of a suite is made slightly
wrong, just past a check's tolerance, and the check must fail. Each
comparison a suite makes has a fault of its own, keyed "suite/what breaks";
the case keyed by the bare suite name is the first fault of that suite. A
fault's footprint names, as suite/check, every check it fails: those of its
own suite, plus any check of another suite that reads the same value past
its tolerance. Every suite is run under every fault, and must fail exactly
the checks of it that the fault's footprint names."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from conftest import class_route, rejects
from paulifish import channels, correlations, protocol, qfi, verify


def _ppt_eigenvalue_shifted(real):
    # past the verdict tolerance, so the closed-form verdict can flip too
    def wrong(*args):
        _, min_eig = real(*args)
        min_eig = min_eig - 2.0 * correlations.PPT_TOL
        return min_eig >= -correlations.PPT_TOL, min_eig

    return wrong


def _independent_above_bound(real):
    def wrong(r, lam, m):
        shape = np.broadcast(np.asarray(r), np.asarray(lam)).shape
        return np.broadcast_to(qfi.qfi_upper_bound(lam, m), shape) * (1.0 + 1e-6)

    return wrong


def _roots_shifted(real):
    # 3e-7 off a stationary point, |dG/dr| reaches 6.5e-5, past the suite's 1e-5
    def wrong(m, lam):
        return [root + 3e-7 for root in real(m, lam)]

    return wrong


def _discord_rounded(arg):
    # one argument rounded to 3 decimals: discord is flat across the suite's
    # +-1e-4 monotonicity step, and unchanged on its route grid, whose r and
    # mu values have at most 3 decimals
    def make_wrong(real):
        def wrong(r, mu):
            if arg == "r":
                r = np.round(np.asarray(r, dtype=float), 3)
            else:
                mu = np.round(np.asarray(mu, dtype=float), 3)
            return real(r, mu)

        return wrong

    return make_wrong


def _discord_odd_in_mu(real):
    # Q(r, mu) - Q(r, -mu) reaches 1e-11, past the suite's 1e-12; on the
    # route grid the term stays under 5e-12, inside the routes' 1e-10
    def wrong(r, mu):
        return real(r, mu) + 5e-12 * np.asarray(mu, dtype=float)

    return wrong


def _half_strength_discord(real):
    # 2e-12 of discord at lam = 1/2 only, past the suite's 1e-12 there and
    # inside its 1e-10 between the routes
    def wrong(r, lam, m):
        return real(r, lam, m) + np.where(np.asarray(lam) == 0.5, 2e-12, 0.0)

    return wrong


def _coherence_scaled(real):
    # the state's off-diagonals scaled by 1 - 1e-6: its discord moves by up
    # to 3.8e-6, past the suite's 1e-10 between the routes, and no other
    # comparison of the discord suite reads the dense state
    def wrong(*args):
        rho, drho = real(*args)
        diagonal = np.eye(rho.shape[-1], dtype=bool)
        return np.where(diagonal, rho, rho * (1.0 - 1e-6)), drho

    return wrong


def _changed(change, part=None):
    # change applied to the patched function's value, or to element `part`
    # of its tuple, the rest of the tuple kept
    def make_wrong(real):
        def wrong(*args):
            value = real(*args)
            if part is None:
                return change(value)
            parts = list(value)
            parts[part] = change(parts[part])
            return tuple(parts)

        return wrong

    return make_wrong


def _scaled(factor, part=None):
    return _changed(lambda value: value * factor, part)


def _shifted(delta, part=None):
    return _changed(lambda value: value + delta, part)


def _nan_cell(part=None):
    # NaN in the first cell; max(0.0, nan) is 0.0, so a suite that does not
    # map NaN to a failure passes it
    def first_cell_nan(value):
        cell = np.array(value, dtype=float)
        cell.flat[0] = np.nan
        return cell

    return _changed(first_cell_nan, part)


def _t2_gain_lowered(real):
    # 3 % low at r = 1e-4 only, where the suite takes the n = m = 5 gain at
    # t = 0.2 T2: 5.047 falls to 4.896, below its 4.9. The threshold points
    # are at r = 1e-6.
    def wrong(p):
        return real(p) * (0.97 if p.r == 1e-4 else 1.0)

    return wrong


def _single_use_above_bound_off_tenths(real):
    # above the bound at lam = 0.05, 0.15, ..., 0.95, where the suite checks
    # single use against the bound only; unchanged at the lam tenths, where
    # it is also checked against the independent optimum
    def wrong(v, lam):
        odd = np.round(20 * np.asarray(lam)) % 2 == 1
        return np.where(odd, qfi.qfi_upper_bound(lam, 1) * (1.0 + 1e-6), real(v, lam))

    return wrong


def _point_gain_tilted(real):
    # a slope of 2e-5 in r at every root, past the suite's 1e-5
    def wrong(p):
        return real(p) + 2e-5 * p.r

    return wrong


def _closed_above_bound(real):
    # 1e-6 above the bound wherever H is not an exact zero; the zeros at
    # lam = 1/2, m >= 2 stay, as the suite checks them on their own
    def wrong(n, m, r, lam):
        h, g = real(n, m, r, lam)
        above = np.broadcast_to(qfi.qfi_upper_bound(lam, m), np.shape(h)) * (1.0 + 1e-6)
        return np.where(h == 0.0, h, above), g

    return wrong


def _half_strength_shifted(real):
    # 1e-300 on H and the gain at lam = 1/2, where for m >= 2 both are exact
    # zeros; far inside the bound, and unchanged wherever they are not zero
    def wrong(n, m, r, lam):
        h, g = real(n, m, r, lam)
        shift = np.where(np.asarray(lam) == 0.5, 1e-300, 0.0)
        return h + shift, g + shift

    return wrong


def _no_gain_at_separable_edge(real):
    # the two-qubit gain set to 1 where r lies less than 2e-6 below the
    # separability threshold, as it does at the points (1e-6 below) where
    # the suite looks for a separable state with gain above 1; no other
    # suite's grid comes that close to the threshold
    def wrong(n, m, r, lam):
        h, g = real(n, m, r, lam)
        gap = correlations.separability_threshold(m, lam) - r if n == 2 else -1.0
        return h, np.where((gap >= 0.0) & (gap < 2e-6), 1.0, g)

    return wrong


def _no_roots(real):
    def wrong(m, lam):
        return []

    return wrong


def _extra_root(real):
    # a near-duplicate 3e-7 above the last root, where |dG/dr| is 6.5e-5; the
    # root nearest the reference value is unchanged
    def wrong(m, lam):
        roots = real(m, lam)
        return roots + [roots[-1] + 3e-7]

    return wrong


def _closed_verdict_flipped(real):
    # the closed form's verdict negated and its eigenvalue kept: the routes'
    # eigenvalues still agree, and only their verdicts differ
    def wrong(*args):
        sep, min_eig = real(*args)
        return np.logical_not(sep), min_eig

    return wrong


def _column_phase(real):
    # a phase of 1.6e-11 on column 0 keeps the unitary unitary; at n = 2 the
    # column's entries and each image's weight on it are 1/2, so every image
    # moves by 4e-12, past the suite's 1e-12
    def wrong(n):
        u = real(n).copy()
        u[:, 0] *= np.exp(1.6e-11j)
        return u

    return wrong


def _nan_root(real):
    # a NaN in place of the first stationary root
    def wrong(m, lam):
        return [np.nan, *real(m, lam)[1:]]

    return wrong


def _drho_scaled_in_last_row(real):
    # as "oracle/dense-bridge", in the oracle grid's last lam row (1 - 1e-3)
    # alone and past n = 2, where the dense bridge solves the grid in more
    # than one slice: a slice loop that drops the trailing slice, or compares
    # it with another row, passes this
    def wrong(n, r, lam, m):
        rho, drho = real(n, r, lam, m)
        last = (np.asarray(lam)[..., None, None] == verify._EDGE_LAMS[-1]) & (n > 2)
        return rho, np.where(last, drho * np.sqrt(1.0 + 1e-7), drho)

    return wrong


def _middle_class_unhalved(real):
    # at even n the class j = n/2 pairs x with N-x inside itself, so its
    # C(n, n/2) bitstrings make C(n, n/2)/2 blocks; counted twice, its
    # probability is doubled. Its polarization and Fisher information are 0
    # and its blocks keep their weight p_j/(2 mult_j), so only the check
    # that the p_j add up to 1 sees it
    def wrong(n, r):
        mult, p, t = real(n, r)
        if n % 2 == 0:
            mult, p = (*mult[:-1], 2 * mult[-1]), np.concatenate([p[..., :-1], 2 * p[..., -1:]], -1)
        return mult, p, t

    return wrong


def _polarization_by_subtraction(real):
    # t_j as (w_(n-j) - w_j)/(w_(n-j) + w_j) in floats, which cancels as r
    # -> 0: 3.3e-5 off at r = 1e-12, which only the edge of the suite's r
    # grid reaches. The class route and the dense states read the same t
    def wrong(n, r):
        mult, p, _ = real(n, r)
        r, j = np.asarray(r, dtype=float)[..., None], np.arange(n // 2 + 1)
        w, w_c = (1 + r) ** j * (1 - r) ** (n - j), (1 + r) ** (n - j) * (1 - r) ** j
        return mult, p, (w_c - w) / (w_c + w)

    return wrong


# case: (module, name patched, fault, footprint): the footprint names every
# check the fault fails at n_max = 4, as space-separated suite/check
FAULTS = {
    "discord": (
        correlations, "discord_protocol", _shifted(1e-9),
        "discord/dense-route discord/half-strength-discord discord/prepared-state",
    ),
    "discord/monotone-in-r": (
        correlations, "discord_rmu", _discord_rounded("r"), "discord/monotone"
    ),
    "discord/monotone-in-mu": (
        correlations, "discord_rmu", _discord_rounded("mu"), "discord/monotone"
    ),
    "discord/sign-symmetry": (
        correlations, "discord_rmu", _discord_odd_in_mu,
        "discord/sign-symmetry discord/prepared-state",
    ),
    "discord/dense-route": (
        channels, "correlated_state", _coherence_scaled,
        "discord/dense-route oracle/dense-bridge separability/dense-route",
    ),
    "discord/half-strength-discord": (
        correlations, "discord_protocol", _half_strength_discord, "discord/half-strength-discord"
    ),
    # the minimum gain excess at lam = 1/2 is 5.1e-2
    "discord/half-strength-gain": (
        protocol, "qfi_and_gain", _scaled(0.95, part=1),
        "discord/half-strength-gain stationary/closed-forms weight-inequalities/gain-floor",
    ),
    # 2e-12 relative, past the suite's 1e-12 between discord_prep and lam = 0
    "discord/prepared-state": (
        correlations, "discord_prep", _scaled(1.0 + 2e-12), "discord/prepared-state"
    ),
    "separability": (
        correlations, "ppt_closed_form", _ppt_eigenvalue_shifted, "separability/dense-route"
    ),
    # 2e-6 down, twice the suite's 1e-6 flip margin (up would put r past 1
    # where the threshold is 1)
    "separability/threshold": (
        correlations, "separability_threshold", _shifted(-2e-6), "separability/threshold"
    ),
    # 2e-14 off the dense route's minimum eigenvalue, past the suite's 1e-14
    # between the routes; every verdict is unchanged
    "separability/dense-route": (
        correlations, "is_separable_ppt", _shifted(-2e-14, part=1), "separability/dense-route"
    ),
    "separability/closed-verdict": (
        correlations, "ppt_closed_form", _closed_verdict_flipped, "separability/dense-route"
    ),
    "separability/separable-gain": (
        protocol, "qfi_and_gain", _no_gain_at_separable_edge, "separability/separable-gain"
    ),
    "separability/nan-gain": (
        protocol, "qfi_and_gain", _nan_cell(1),
        "separability/separable-gain discord/half-strength-gain stationary/closed-forms "
        "weight-inequalities/gain-floor",
    ),
    # 1e-7 relative on H, past the suite's 1e-8; the gain is kept
    "oracle": (protocol, "qfi_and_gain", _scaled(1.0 + 1e-7, part=0), "oracle/closed-form"),
    "oracle/nan-cell": (
        protocol, "qfi_and_gain", _nan_cell(0), "oracle/closed-form bounds/excess"
    ),
    # the derivative times sqrt(1 + 1e-7): the Fisher information, quadratic
    # in it, rises 1e-7, past the suite's 1e-8
    "oracle/dense-bridge": (
        channels, "correlated_state", _scaled(math.sqrt(1.0 + 1e-7), part=1), "oracle/dense-bridge"
    ),
    "oracle/dense-bridge-last-row": (
        channels, "correlated_state", _drho_scaled_in_last_row, "oracle/dense-bridge"
    ),
    "oracle/class-multiplicity": (
        channels, "hamming_classes", _middle_class_unhalved, "oracle/class-sums"
    ),
    "oracle/edge-polarization": (
        channels, "hamming_classes", _polarization_by_subtraction,
        "oracle/closed-form oracle/dense-bridge",
    ),
    "bounds": (
        qfi, "qfi_independent_opt", _independent_above_bound, "bounds/excess bounds/single-use"
    ),
    "bounds/nan-cell": (
        qfi, "qfi_independent_opt", _nan_cell(),
        "bounds/excess bounds/pure-limit bounds/single-use",
    ),
    "bounds/closed-form": (
        protocol, "qfi_and_gain", _closed_above_bound, "bounds/excess oracle/closed-form"
    ),
    # H at r = 0 is an exact zero, and 1e-300 is not
    "bounds/exact-zero-r0": (protocol, "qfi_correlated", _shifted(1e-300), "bounds/exact-zeros"),
    "bounds/exact-zero-half-strength": (
        protocol, "qfi_and_gain", _half_strength_shifted,
        "bounds/exact-zeros oracle/closed-form stationary/closed-forms",
    ),
    # the pure limit sits 5.6e-8 from the bound; 2e-4 is past the suite's
    # 1e-4, and m single uses move off the optimum with it
    "bounds/pure-limit": (
        qfi, "qfi_independent_opt", _scaled(1.0 - 2e-4), "bounds/pure-limit bounds/single-use"
    ),
    # 1e-11 relative, past the suite's 1e-12 between m single uses and the
    # independent optimum, and far inside the bound
    "bounds/single-use": (qfi, "qfi_single_use", _scaled(1.0 + 1e-11), "bounds/single-use"),
    "bounds/single-use-bound": (
        qfi, "qfi_single_use", _single_use_above_bound_off_tenths, "bounds/excess"
    ),
    # a block's probability meets its floor ((1-r^2)/2)^(n-1) at n = 2 in the
    # middle class: 2e-12 off every p_j puts it past the suite's 1e-12
    "weight-inequalities": (
        channels, "hamming_classes", _scaled(1.0 - 2e-12, part=1), "weight-inequalities/ratio"
    ),
    # t_j = r at j = (n-1)/2: 1e-11 off t puts t_j^2 2e-11 r^2 below r^2,
    # past the suite's 1e-12
    "weight-inequalities/ratio": (
        channels, "hamming_classes", _scaled(1.0 - 1e-11, part=2),
        "weight-inequalities/ratio separability/dense-route",
    ),
    # the minimum single-use gain excess is 2.02e-2
    "weight-inequalities/gain-floor": (
        protocol, "qfi_and_gain", _scaled(0.98, part=1),
        "weight-inequalities/gain-floor stationary/closed-forms",
    ),
    "stationary": (
        protocol, "stationary_polarizations", _roots_shifted, "stationary/gain-slope"
    ),
    "stationary/no-root": (protocol, "stationary_polarizations", _no_roots, "stationary/root"),
    "stationary/extra-root": (
        protocol, "stationary_polarizations", _extra_root, "stationary/gain-slope"
    ),
    "stationary/nan-root": (
        protocol, "stationary_polarizations", _nan_root, "stationary/root stationary/gain-slope"
    ),
    # the extremes read protocol.gain too
    "stationary/gain-slope": (
        protocol, "gain", _point_gain_tilted, "stationary/gain-slope stationary/closed-forms"
    ),
    # 2e-12 relative, past the suite's 1e-12 between the closed forms
    "stationary/reduced-gain": (
        protocol, "gain_two_qubit", _scaled(1.0 + 2e-12), "stationary/closed-forms"
    ),
    "stationary/gain-min": (protocol, "gain_min", _scaled(1.0 + 2e-12), "stationary/closed-forms"),
    "stationary/gain-max": (protocol, "gain_max", _scaled(1.0 + 2e-12), "stationary/closed-forms"),
    # u u^dagger - 1 is 4e-12, past the suite's 1e-12
    "preparation": (
        channels, "preparation_unitary", _scaled(1.0 + 2e-12),
        "preparation/unitary preparation/columns",
    ),
    "preparation/column-phase": (
        channels, "preparation_unitary", _column_phase, "preparation/columns"
    ),
    # 0.2 % stronger than the threshold, the gain falls 2.4e-2 below n, past
    # the suite's 1e-2, and the threshold moves off lam(t*)
    "threshold-gain": (
        protocol, "lambda_threshold_gain_n", _scaled(1.002),
        "threshold-gain/gain threshold-gain/t2-map",
    ),
    # 0.3 % low, the gain at m = 6 falls 1.8e-2 below 6, past the suite's 1e-2
    "threshold-gain/gain": (
        protocol, "gain", _scaled(0.997), "threshold-gain/gain stationary/closed-forms"
    ),
    # 2e-12 stronger, past the suite's 1e-12 between lam(t*) and the threshold
    "threshold-gain/t2-map": (
        protocol, "lambda_from_t2", _shifted(2e-12), "threshold-gain/t2-map"
    ),
    "threshold-gain/t2-gain": (protocol, "gain", _t2_gain_lowered, "threshold-gain/t2-gain"),
    "threshold-gain/nan-threshold": (
        protocol, "lambda_threshold_gain_n", _nan_cell(),
        "threshold-gain/gain threshold-gain/t2-map",
    ),
    "threshold-gain/nan-t2-map": (
        protocol, "lambda_from_t2", _nan_cell(), "threshold-gain/t2-map threshold-gain/t2-gain"
    ),
}


def _run(suite):
    (result,) = verify.run_suites(suite, n_max=4)
    return result


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
@pytest.mark.parametrize("case", sorted(FAULTS))
def test_fault_fails_exactly_the_checks_of_its_footprint(case, suite, monkeypatch):
    module, name, make_wrong, footprint = FAULTS[case]
    monkeypatch.setattr(module, name, make_wrong(getattr(module, name)))
    result = _run(suite)
    assert result.name == suite
    expected = {check for s, check in (f.split("/") for f in footprint.split()) if s == suite}
    assert set(result.failed) == expected


def test_every_check_has_a_fault_and_every_fault_its_own_suite():
    # a check that no fault trips could fail to compare anything and pass
    results = verify.run_suites(None, n_max=4)
    assert all(result.passed for result in results), results
    reported = {f"{result.name}/{check}" for result in results for check in result.checks}
    named = {check for *_, footprint in FAULTS.values() for check in footprint.split()}
    assert named == reported
    for case, (*_, footprint) in FAULTS.items():
        assert any(f.startswith(case.split("/")[0] + "/") for f in footprint.split()), case


def test_bounds_error_is_the_largest_excess_alone(monkeypatch):
    # the closed form 1e-6 above the bound m/(lam(1-lam)) exceeds it most at
    # m = 4, lam = 0.1
    monkeypatch.setattr(protocol, "qfi_and_gain", _closed_above_bound(protocol.qfi_and_gain))
    result = _run("bounds")
    assert result.passed is False
    assert result.checks["excess"][0] == pytest.approx(4 / (0.1 * 0.9) * 1e-6, rel=1e-9)


def test_discord_definition_shares_no_code_with_the_closed_form(monkeypatch):
    rs, lams = np.array([0.05, 0.3, 0.6, 0.9, 0.99]), np.array([0.0, 0.1, 0.45, 0.5, 0.95])[:, None]
    rho = np.stack([channels.correlated_state(2, rs, lams, m)[0] for m in (1, 2)])
    expected = np.stack([correlations.discord_protocol(rs, lams, m) for m in (1, 2)])

    def refuse(*args, **kwargs):
        raise AssertionError("the definition route called into correlations")

    patched = [
        name
        for name, fn in vars(correlations).items()
        if inspect.isfunction(fn) and fn.__module__ == correlations.__name__
    ]
    assert {"_xlog2", "discord_rmu", "discord_protocol"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(correlations, name, refuse)
    q = verify._discord_from_definition(rho)
    np.testing.assert_allclose(q, expected, rtol=0.0, atol=1e-14)


def test_oracle_suite_passes_at_every_qubit_count():
    # the class-oracle eigensolve against the j-sum kernel for every n the
    # closed form accepts, 2..64, within its working set: 0.72 MiB traced
    # peak measured (1.30 MiB when each n solved its own classes, 5.7 MiB
    # with every m of one n in one call)
    verify.suite_oracle(2)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        (result,) = verify.run_suites("oracle", n_max=protocol.ANALYTIC_N_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result
    assert peak < 2 * 2**20


def test_oracle_batching_changes_no_number(monkeypatch):
    # a budget of 1 solves every lam row and every m alone, one call per
    # item; 10**9 solves each n's m values, and each (n, m)'s grid, in one
    results = []
    for budget in (1, 10**9):
        monkeypatch.setattr(verify, "_ORACLE_ENTRIES", budget)
        results.append(verify.suite_oracle(6))
    assert results[0] == results[1]


def test_oracle_suite_shares_class_blocks_without_changing_a_bit(monkeypatch):
    # the suite solves each k = n - 2j once per m and hands it to every n
    # with that class; each n's sum must be the one its own blocks give
    real_kernel, real_rel_err = protocol.qfi_and_gain, verify._rel_err
    closed, seen = {}, {}

    def kernel(n, m, r, lam):
        closed["at"], closed["h"] = (n, m), real_kernel(n, m, r, lam)
        return closed["h"]

    def rel_err(a, b):
        if b is closed["h"][0]:  # the class route against the closed form
            seen[closed["at"]] = np.array(a)
        return real_rel_err(a, b)

    monkeypatch.setattr(protocol, "qfi_and_gain", kernel)
    monkeypatch.setattr(verify, "_rel_err", rel_err)
    assert verify.suite_oracle(12).passed
    rs, lams = np.array(verify._EDGE_RS), np.array(verify._EDGE_LAMS)[:, None]
    assert sorted(seen) == [(n, m) for n in range(2, 13) for m in range(1, n + 1)]
    for (n, m), h in seen.items():
        assert h.tobytes() == class_route(n, m, rs, lams).tobytes(), (n, m)


def test_oracle_suite_solves_in_budgeted_batches(monkeypatch):
    # dense bridge: 1, 2 and 5 calls per (n, m) at n = 2, 3, 4, 28 in all;
    # class route: 1 call per m, each solving the k = n - 2j of every n with
    # that m, 6 in all. One item per call made 81 + 39 = 120
    real, shapes = qfi.fisher_eig, []

    def spy(rho, drho):
        shapes.append(np.shape(rho))
        return real(rho, drho)

    monkeypatch.setattr(qfi, "fisher_eig", spy)
    assert verify.suite_oracle(6).passed
    assert len(shapes) == 34
    for shape in shapes:  # a slice of lam rows, or every lam row for a slice of k
        assert math.prod(shape) <= verify._ORACLE_ENTRIES or shape[0] == 1, shape


def test_unknown_suite_is_rejected_before_any_suite_runs(monkeypatch):
    def refuse(**_):
        raise AssertionError("a suite ran before its arguments were checked")

    for name in list(verify.SUITES):
        monkeypatch.setitem(verify.SUITES, name, refuse)
    listed = ", ".join(sorted(verify.SUITES))
    for name, n_max, message in [("nope", 4, f"unknown suite 'nope'; choose from {listed}"),
                                 (None, 65, "n_max must lie in 2..64, got 65"),
                                 (None, 2.0, "n_max must be an integer, got 2.0")]:
        with rejects(message):
            verify.run_suites(name, n_max=n_max)
