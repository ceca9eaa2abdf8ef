import ast
import dataclasses
import importlib
import inspect
import math
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulifish
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
    src = str(pathlib.Path(paulifish.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
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


def test_every_public_name_has_a_reader_in_src():
    # a reference that only the tests read lives in tests/conftest.py
    src = pathlib.Path(paulifish.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py") if p.stem != "__init__"}
    public, read = set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            own = {f"{module}.{name}" for name in _defined(node)}
            public |= {name for name in own if not name.split(".")[1].startswith("_")}
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
    assert public - read == set()


#: Private names of one src/paulifish module that another reads, as
#: {reader: {"module._name", ...}}. A new coupling to a module's internals
#: has to be listed here; the block layout of the state, which
#: correlated_state writes from the Hamming classes, stays inside channels.
PRIVATE_READS = {
    "cli": {"mc._BLOCK_TRIALS", "protocol._validate_nm"},
    "correlations": {"linop._elementwise", "protocol._validate_nm"},
    "protocol": {"linop._elementwise"},
    "qfi": {"linop._as_operators", "linop._elementwise"},
    "verify": {"correlations._off_diagonal_scale", "linop._elementwise"},
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
    "cli": {"correlations", "mc", "protocol", "qfi", "verify"},
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
