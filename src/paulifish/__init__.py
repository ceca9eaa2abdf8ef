"""Quantum Fisher information and estimation gain for mixed-state
Pauli-channel parameter estimation, with separability and discord
diagnostics and Monte Carlo validation of the Cramér-Rao bound."""

from . import channels, correlations, linop, mc, protocol, qfi
from .channels import correlated_state, preparation_unitary
from .correlations import (
    bell_diagonalize,
    discord_prep,
    discord_protocol,
    discord_rmu,
    discord_xstate,
    is_separable_ppt,
    ppt_closed_form,
    separability_threshold,
)
from .linop import tensor
from .mc import ExperimentConfig, ExperimentResult, classical_fisher, outcome_probs, run_experiment
from .protocol import (
    ProtocolPoint,
    gain,
    gain_limit_r0,
    gain_limit_r1,
    gain_max,
    gain_min,
    gain_two_qubit,
    lambda_from_t2,
    lambda_threshold_gain_n,
    qfi_and_gain,
    qfi_correlated,
    stationary_polarizations,
)
from .qfi import (
    fisher_eig,
    qfi_independent_opt,
    qfi_single_use,
    qfi_upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ProtocolPoint",
    "bell_diagonalize",
    "channels",
    "classical_fisher",
    "correlated_state",
    "correlations",
    "discord_prep",
    "discord_protocol",
    "discord_rmu",
    "discord_xstate",
    "fisher_eig",
    "gain",
    "gain_limit_r0",
    "gain_limit_r1",
    "gain_max",
    "gain_min",
    "gain_two_qubit",
    "is_separable_ppt",
    "lambda_from_t2",
    "lambda_threshold_gain_n",
    "linop",
    "mc",
    "outcome_probs",
    "ppt_closed_form",
    "preparation_unitary",
    "protocol",
    "qfi",
    "qfi_and_gain",
    "qfi_correlated",
    "qfi_independent_opt",
    "qfi_single_use",
    "qfi_upper_bound",
    "run_experiment",
    "separability_threshold",
    "stationary_polarizations",
    "tensor",
]
