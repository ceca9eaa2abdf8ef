"""The batched verify suites still catch faults: one input of each suite is
made slightly wrong, and the suite must report passed=False."""

import dataclasses

import numpy as np
import pytest

from paulifish import correlations, protocol, qfi, verify


def _discord_off_by_1e9(real):
    def wrong(*args):
        rep = real(*args)
        return dataclasses.replace(rep, Q=rep.Q + 1e-9)

    return wrong


def _ppt_eigenvalue_shifted(real):
    # past the verdict tolerance, so the closed-form verdict can flip too
    def wrong(*args):
        _, min_eig = real(*args)
        min_eig = min_eig - 2.0 * correlations.PPT_TOL
        return min_eig >= -correlations.PPT_TOL, min_eig

    return wrong


def _qfi_scaled(real):
    def wrong(*args):
        h, g = real(*args)
        return h * (1.0 + 1e-7), g

    return wrong


def _independent_above_bound(real):
    def wrong(r, lam, m):
        shape = np.broadcast(np.asarray(r), np.asarray(lam)).shape
        return np.broadcast_to(qfi.qfi_upper_bound(lam, m), shape) * (1.0 + 1e-6)

    return wrong


FAULTS = {
    "discord": (correlations, "discord_protocol", _discord_off_by_1e9),
    "separability": (correlations, "ppt_closed_form", _ppt_eigenvalue_shifted),
    "oracle": (protocol, "qfi_and_gain", _qfi_scaled),
    "bounds": (qfi, "qfi_independent_opt", _independent_above_bound),
}


def _run(suite):
    fn = verify.SUITES[suite]
    return fn(n_max=4) if suite in ("oracle", "bounds") else fn()


@pytest.mark.parametrize("suite", sorted(FAULTS))
def test_suite_passes_unpatched(suite):
    assert _run(suite).passed


@pytest.mark.parametrize("suite", sorted(FAULTS))
def test_suite_fails_on_a_slightly_wrong_input(suite, monkeypatch):
    module, name, make_wrong = FAULTS[suite]
    monkeypatch.setattr(module, name, make_wrong(getattr(module, name)))
    result = _run(suite)
    assert result.name == suite
    assert result.passed is False
