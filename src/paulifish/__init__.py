"""Quantum Fisher information and estimation gain for mixed-state
Pauli-channel parameter estimation, with separability and discord
diagnostics and Monte Carlo validation of the Cramér-Rao bound.

The package is lazy (PEP 562): each module below, and each name it exports,
is imported on first access, so a command loads only the modules it runs.
"""

import importlib as _importlib

#: Each exported module with the names the package exports from it.
_EXPORTS = {
    "channels": ("correlated_state", "preparation_unitary"),
    "correlations": (
        "discord_prep", "discord_protocol", "discord_rmu", "is_separable_ppt", "ppt_closed_form",
        "separability_threshold",
    ),
    "linop": (),
    "mc": (
        "ExperimentConfig", "ExperimentResult", "classical_fisher", "outcome_probs", "run_experiment",
    ),
    "protocol": (
        "ProtocolPoint", "gain", "gain_limit_r0", "gain_limit_r1", "gain_max", "gain_min",
        "gain_two_qubit", "lambda_from_t2", "lambda_threshold_gain_n", "qfi_and_gain",
        "qfi_correlated", "stationary_polarizations",
    ),
    "qfi": ("fisher_eig", "qfi_independent_opt", "qfi_single_use", "qfi_upper_bound"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
