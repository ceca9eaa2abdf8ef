import ast
import dataclasses
import importlib
import inspect
import math
import os
import pathlib
import pkgutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulifish
from conftest import rejects, run_child
from paulifish import channels, correlations, linop, mc, protocol, qfi


def test_every_export_resolves_once():
    # to its home module's object: paulifish.gain is paulifish.protocol.gain
    assert len(paulifish.__all__) == len(set(paulifish.__all__))
    assert set(paulifish.__all__) <= set(dir(paulifish))
    for name in paulifish.__all__:
        obj = getattr(paulifish, name)
        if inspect.ismodule(obj):
            assert obj is sys.modules[f"paulifish.{name}"], name
        else:
            assert obj.__module__.startswith("paulifish."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name


#: The paulifish modules, besides paulifish and paulifish.cli, that importing
#: the CLI and running each command loads: a command loads only what it runs.
COMMAND_MODULES = {
    "import": ([], set()),
    "mc": (["mc", "--r", "0.8", "--lambda", "0.3", "--trials", "3"], {"linop", "mc"}),
    "sweep": (["sweep", "--out", os.devnull], {"correlations", "linop", "protocol", "qfi"}),
    "qfi": (
        ["qfi", "--n", "3", "--m", "2", "--r", "0.5", "--lambda", "0.1"],
        {"linop", "protocol", "qfi"},
    ),
    "verify": (
        ["verify", "--n-max", "2"],
        {"channels", "correlations", "linop", "protocol", "qfi", "verify"},
    ),
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(command):
    argv, loaded = COMMAND_MODULES[command]
    script = (
        "import sys\n"
        "from paulifish import cli\n"
        f"assert not {argv!r} or cli.main({argv!r}) == 0\n"
        "print(*sorted(k for k in sys.modules if k.split('.')[0] == 'paulifish'))\n"
    )
    done = run_child(["-c", script])
    assert done.returncode == 0, done.stderr
    expected = {"paulifish", "paulifish.cli"} | {f"paulifish.{m}" for m in loaded}
    assert set(done.stdout.splitlines()[-1].split()) == expected


#: Each retired name, with the module that held it; none is on the package either.
RETIRED = {
    "BlockPair": channels,
    "prepared_state_blocks": channels,
    "post_channel_blocks": channels,
    "blocks_to_dense": channels,
    "embed_two_level": linop,
    "sld_block_sum": qfi,
    "EIGENVALUE_ZERO_CUTOFF": linop,
    "sld_eig": qfi,
    "extended_channel_state": channels,
    "partial_trace": linop,
    "coin_toss": linop,
    "controlled_z": linop,
    "rho_final_two_qubit": correlations,
    "hermitian_eig": linop,
    "Spectrum": linop,
    "partial_transpose": linop,
    "correlated_blocks": channels,
    "weight_pair": protocol,
    "WeightPair": protocol,
    "DiscordReport": correlations,
    "BellDiagonalCoeffs": correlations,
    "sld_2x2": qfi,
    "SldResult": qfi,
    "ALPHA_TOL": qfi,
    "_real_trace": qfi,
    "bitstring_weight": channels,
    "ChannelSpec": channels,
    "bloch_state": channels,
    "apply_pauli_channel": channels,
    "pauli": linop,
    "num_qubits": linop,
    "_measurement_ops": mc,
    "bell_diagonalize": correlations,
    "discord_xstate": correlations,
    "_bell_frame": correlations,
    "_BELL_FRAME": correlations,
    "BELL_RESIDUAL_TOL": correlations,
    "_discord": correlations,
    "tensor": linop,
    "_as_operator": linop,
    "DimensionError": linop,
    "_class_weight": channels,
}


@pytest.mark.parametrize("name", list(RETIRED))
def test_retired_block_records_are_gone(name):
    assert not hasattr(paulifish, name)
    assert not hasattr(RETIRED[name], name)


#: Every parameter with a default on a public function or dataclass of a
#: paulifish module, as "module.callable(parameter)". A new option has to be
#: added here, where a reviewer sees it.
OPTIONS = {
    "cli.main(argv)",
    "linop.check_unit_interval(interval)",
}


def test_options_are_the_listed_ones():
    found = set()
    for info in pkgutil.iter_modules(paulifish.__path__):
        module = importlib.import_module(f"paulifish.{info.name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                found |= {
                    f"{info.name}.{attr}({p.name})"
                    for p in inspect.signature(obj).parameters.values()
                    if p.default is not inspect.Parameter.empty
                }
    assert found == OPTIONS


def _defined(node) -> set[str]:
    """Names a module-level statement defines: a function, a class or an
    assignment target."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_module_level_name_has_a_reader_in_src():
    # public or private: a reference that only the tests read lives in
    # tests/conftest.py
    src = pathlib.Path(paulifish.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py") if p.stem != "__init__"}
    defined, read = set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            own = {f"{module}.{name}" for name in _defined(node)}
            defined |= own
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                    found = {f"{sub.module}.{alias.name}" for alias in sub.names}
                elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in trees:
                    found = {f"{sub.value.id}.{sub.attr}"}
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    found = {f"{module}.{sub.id}"}
                else:
                    continue
                read |= found - own
    assert defined - read == set()


#: Private names of one src/paulifish module that another reads, as
#: {reader: {"module._name", ...}}. A new coupling to a module's internals
#: has to be listed here; the block layout of the state, which
#: correlated_state writes from the Hamming classes, stays inside channels.
PRIVATE_READS = {
    "channels": {"protocol._validate_nm"},
    "cli": {"mc._BLOCK_TRIALS", "protocol._validate_nm"},
    "correlations": {"linop._elementwise", "protocol._validate_nm"},
    "protocol": {"linop._elementwise"},
    "qfi": {"linop._as_operators", "linop._elementwise"},
}


def test_cross_module_private_reads_are_the_listed_ones():
    src = pathlib.Path(paulifish.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}
    found = {}
    for module, tree in trees.items():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                names = {f"{sub.module}.{alias.name}" for alias in sub.names}
            elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in trees:
                names = {f"{sub.value.id}.{sub.attr}"}
            else:
                continue
            private = {n for n in names if n.split(".")[1].startswith("_")}
            if private:
                found.setdefault(module, set()).update(private)
    assert found == PRIVATE_READS


#: The paulifish modules that each src/paulifish module imports. A new
#: dependency between modules has to be listed here. mc reads only linop:
#: its outcome model is in closed form and builds no state. The package
#: itself imports none: it loads each module on first access.
IMPORTS = {
    "__init__": set(),
    "channels": {"linop", "protocol"},
    "cli": {"correlations", "linop", "mc", "protocol", "qfi", "verify"},
    "correlations": {"linop", "protocol"},
    "linop": set(),
    "mc": {"linop"},
    "protocol": {"linop"},
    "qfi": {"linop"},
    "verify": {"channels", "correlations", "linop", "protocol", "qfi"},
}


def test_module_imports_are_the_listed_ones():
    src = pathlib.Path(paulifish.__file__).parent
    found = {}
    for path in src.glob("*.py"):
        imported = found.setdefault(path.stem, set())
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.ImportFrom):
                base = ".".join(["paulifish"] * sub.level + [sub.module or ""]).strip(".")
                # "from paulifish import x" names modules, "from paulifish.x import f" one
                names = [f"{base}.{a.name}" for a in sub.names] if base == "paulifish" else [base]
            elif isinstance(sub, ast.Import):
                names = [alias.name for alias in sub.names]
            else:
                continue
            imported |= {n.split(".")[1] for n in names if n.startswith("paulifish.")}
    assert found == IMPORTS


#: Functions that reject a non-finite entry in any argument, each with finite
#: arguments that it accepts.
FINITE_INPUTS = {
    "qfi.fisher_eig": (qfi.fisher_eig, [np.eye(2) / 2, np.diag([0.5, -0.5])]),
    "correlations.is_separable_ppt": (correlations.is_separable_ppt, [np.eye(4) / 4]),
    "mc.classical_fisher": (mc.classical_fisher, [np.array([0.5, 0.5]), np.array([0.25, -0.25])]),
}


@given(
    st.sampled_from(sorted(FINITE_INPUTS)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_non_finite_input_rejected(name, bad, data):
    fn, args = FINITE_INPUTS[name]
    fn(*args)
    args = [a.copy() for a in args]
    arg = args[data.draw(st.integers(0, len(args) - 1))]
    arg.flat[data.draw(st.integers(0, arg.size - 1))] = bad
    with pytest.raises(ValueError, match="non-finite|sum to"):
        fn(*args)


def _unit(what: str, interval: str, bad: float):
    return bad, f"{what} must lie in {interval}, got {bad}"


def _integer(name: str, bad: float = 2.0):
    return bad, f"{name} must be an integer, got {bad!r}"


def _scalar(what: str):
    """Arrays of shapes (1,) and (2,) of a value inside every range, which
    the rule for one number rejects."""
    return [(np.full(shape, 0.5), f"{what} must be a scalar, got shape {shape}")
            for shape in ((1,), (2,))]


# The bad values that several rows share, each with its rule's message
_N = [(1, "n=1 must lie in 2..64"), (65, "n=65 must lie in 2..64"), _integer("n", 3.0)]
_M = [(0, "invocation count must be >= 1, got 0"),
      (2**63, f"invocation count must be <= 2**63 - 1, got {2**63}"), _integer("m")]
_M2 = [(3, "invocations m=3 must lie in 1..2"), _integer("m")]
_M3 = [(4, "invocations m=4 must lie in 1..3"), _integer("m")]
_LAM = [_unit("channel strength", "[0, 1]", 1.5)]
_R = [_unit("polarization", "[0, 1)", 1.0)]
_R_CLOSED = [_unit("polarization", "[0, 1]", 1.5)]
_R_ONE, _LAM_ONE = _scalar("polarization"), _scalar("channel strength")
_PURE = (0.0, "pure state with lam in {0, 1} is outside the closed form's domain")
_R0 = (0.0, "gain is undefined at r = 0; use gain_limit_r0")
_CAP = (13, "2**13 exceeds the dense cap 4096")
_BLOCH = f"Bloch vector norm must be <= 1, got {1.0 + 2e-12}"

#: Every public function that takes an argument of the paper's domain (see
#: DOMAIN_PARAMETERS), by name: the callable, the arguments of one call it
#: accepts, at an edge of its domain where it has one, and for each argument
#: its bad values, each with the exact message of the rule that rejects it.
#: tests/test_linop.py tests each shared rule at every edge it decides; a row
#: states which rule guards an argument. A list marks an argument the
#: function broadcasts: a bad value goes last in it.
DOMAINS = {
    "correlated_state": (channels.correlated_state, dict(n=3, r=[0.5], lam=[0.2], m=2),
                         dict(n=[*_N, _CAP], r=_R, lam=_LAM, m=_M3)),
    "hamming_classes": (channels.hamming_classes, dict(n=64, r=[0.5]), dict(n=_N, r=_R)),
    "preparation_unitary": (channels.preparation_unitary, dict(n=2), dict(n=[*_N, _CAP])),
    "discord_prep": (correlations.discord_prep, dict(r=[1.0]), dict(r=_R_CLOSED)),
    "discord_protocol": (correlations.discord_protocol, dict(r=[0.5], lam=[0.0], m=2),
                         dict(r=_R, lam=_LAM, m=_M2)),
    "discord_rmu": (correlations.discord_rmu, dict(r=[0.5], mu=[-1.0]),
                    dict(r=_R, mu=[(-1.5, "off-diagonal scale must lie in [-1, 1], got 1.5")])),
    "ppt_closed_form": (correlations.ppt_closed_form, dict(r=[0.5], lam=[1.0], m=2),
                        dict(r=_R, lam=_LAM, m=_M2)),
    "separability_threshold": (correlations.separability_threshold, dict(m=2, lam=[0.2]),
                               dict(m=_M2, lam=_LAM)),
    "ExperimentConfig": (
        mc.ExperimentConfig,
        dict(r=1.0, lambda_true=0.3, m=1, trials=10**7, shots_per_trial=1, seed=0),
        dict(r=[_unit("polarization", "(0, 1]", 0.0), *_R_ONE],
             lambda_true=[_unit("true channel strength", "(0, 1)", 0.0),
                          *_scalar("true channel strength")],
             m=_M,
             trials=[(0, "trials must be >= 1, got 0"), _integer("trials"),
                     (10**7 + 1, "trials must be <= 10000000, got 10000001")],
             shots_per_trial=[(0, "shots_per_trial must be >= 1, got 0"),
                              _integer("shots_per_trial"),
                              (2**63, "shots_per_trial * m must be <= 2**63 - 1")],
             seed=[(-1, "seed must be >= 0, got -1"), _integer("seed")])),
    "outcome_probs": (mc.outcome_probs, dict(r=-(1.0 + 8e-13), lam=0.3),
                      dict(r=[(1.0 + 2e-12, _BLOCH), *_R_ONE], lam=[*_LAM, *_LAM_ONE])),
    "outcome_prob_derivs": (mc.outcome_prob_derivs, dict(r=1.0 + 8e-13, lam=0.3),
                            dict(r=[(-(1.0 + 2e-12), _BLOCH), *_R_ONE],
                                 lam=[*_LAM, *_LAM_ONE])),
    "gain": (protocol.gain, dict(n=3, m=3, r=1e-300, lam=1.0),
             dict(n=_N, m=_M3, r=[*_R, _R0, *_R_ONE], lam=[*_LAM, *_LAM_ONE])),
    "gain_limit_r0": (protocol.gain_limit_r0, dict(n=3, m=2, lam=[0.3]),
                      dict(n=_N, m=_M3, lam=_LAM)),
    "gain_limit_r1": (protocol.gain_limit_r1, dict(m=2, lam=[0.3]), dict(m=_M, lam=[*_LAM, _PURE])),
    "gain_max": (protocol.gain_max, dict(n=3, m=2, r=0.5),
                 dict(n=_N, m=_M3, r=[*_R, _R0, *_R_ONE])),
    "gain_min": (protocol.gain_min, dict(n=3, m=2, r=0.5),
                 dict(n=_N, m=_M3, r=[*_R, _R0, *_R_ONE])),
    "gain_two_qubit": (protocol.gain_two_qubit, dict(m=2, r=[0.0], lam=[0.3]),
                       dict(m=_M2, r=_R, lam=_LAM)),
    "lambda_from_t2": (
        protocol.lambda_from_t2, dict(t=math.inf, t2=1.0),
        dict(t=[(-1.0, "time must be >= 0, got -1.0"), (math.nan, "time must be >= 0, got nan"),
                *_scalar("time")],
             t2=[(0.0, "dephasing time must be > 0, got 0.0"), *_scalar("dephasing time"),
                 (math.nan, "dephasing time must be > 0, got nan"),
                 (math.inf, "t / T2 is undefined for t = T2 = inf")])),
    "lambda_threshold_gain_n": (
        protocol.lambda_threshold_gain_n, dict(m=2),
        dict(m=[*_M, (1, "threshold needs m >= 2; for m = 1 see gain_limit_r0")])),
    "qfi_and_gain": (protocol.qfi_and_gain, dict(n=3, m=2, r=[0.5], lam=[0.3]),
                     dict(n=_N, m=_M3, r=[_unit("polarization", "(0, 1)", 0.0)], lam=_LAM)),
    "qfi_correlated": (protocol.qfi_correlated, dict(n=3, m=3, r=0.0, lam=1.0),
                       dict(n=_N, m=_M3, r=[*_R, *_R_ONE], lam=[*_LAM, *_LAM_ONE])),
    "stationary_polarizations": (
        protocol.stationary_polarizations, dict(m=2, lam=0.3),
        dict(m=_M2, lam=[*_LAM, (0.5, "stationarity is degenerate at lam = 1/2"),
                         (np.array([0.3]), "channel strength must be a scalar, got shape (1,)"),
                         (np.array([0.1, 0.2]),
                          "channel strength must be a scalar, got shape (2,)")])),
    "qfi_independent_opt": (qfi.qfi_independent_opt, dict(r=[1.0], lam=[0.3], m=2),
                            dict(r=_R_CLOSED, lam=[*_LAM, _PURE], m=_M)),
    "qfi_single_use": (
        qfi.qfi_single_use, dict(v=(0.0, 1.0 + 8e-13, 0.0), lam=[0.3]),
        dict(v=[((0.0, 1.0 + 2e-12, 0.0), _BLOCH),
                ((math.nan, 0.0, 0.0), "Bloch vector norm must be <= 1, got nan"),
                ((0.5, 0.5), "Bloch vector must have shape (3,), got (2,)"),
                ((0.1, 0.2, 0.3, 0.4), "Bloch vector must have shape (3,), got (4,)"),
                (np.array([[0.0, 0.5, 0.0]]), "Bloch vector must have shape (3,), got (1, 3)")],
             lam=[*_LAM, _PURE])),
    "qfi_upper_bound": (qfi.qfi_upper_bound, dict(lam=[0.0], m=2), dict(lam=_LAM, m=_M)),
}

#: The parameters of the paper's domain, (n, m, r, lam, mu, the Bloch vector
#: v, the times t and t2), and of a Monte Carlo run.
DOMAIN_PARAMETERS = {
    "n", "m", "r", "lam", "mu", "v", "t", "t2", "lambda_true", "trials", "shots_per_trial", "seed"
}
DOMAIN_CASES = [(name, arg, *case) for name, (_, _, args) in DOMAINS.items()
                for arg, cases in args.items() for case in cases]


@pytest.mark.parametrize(
    "name, arg, bad, message", DOMAIN_CASES, ids=[f"{c[0]}-{c[1]}={c[2]!r}" for c in DOMAIN_CASES]
)
def test_each_argument_is_guarded_by_its_rule(name, arg, bad, message):
    fn, valid, _ = DOMAINS[name]
    fn(**valid)
    given = valid[arg]
    with rejects(message):
        fn(**valid | {arg: np.array([*given, bad]) if isinstance(given, list) else bad})


def test_every_public_function_of_the_domain_has_a_row():
    for name in paulifish.__all__:
        obj = getattr(paulifish, name)
        if not inspect.ismodule(obj) and DOMAIN_PARAMETERS & set(inspect.signature(obj).parameters):
            assert name in DOMAINS, name
    # a row's accepted call names every parameter, and its bad values each of the domain's
    for name, (fn, valid, args) in DOMAINS.items():
        params = set(inspect.signature(fn).parameters)
        assert set(valid) == params and params & DOMAIN_PARAMETERS <= set(args) <= params, name
