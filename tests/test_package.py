import ast
import dataclasses
import importlib
import inspect
import math
import pathlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulifish
from paulifish import channels, correlations, linop, mc, protocol, qfi


def test_every_export_resolves_once():
    assert len(paulifish.__all__) == len(set(paulifish.__all__))
    for name in paulifish.__all__:
        assert getattr(paulifish, name) is not None, name


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
    "mc.ExperimentConfig(m)",
    "mc.ExperimentConfig(trials)",
    "mc.ExperimentConfig(shots_per_trial)",
    "mc.ExperimentConfig(seed)",
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


#: Public module-level names of src/paulifish that no module there reads, as
#: "module.name". sld_2x2 is the eigensolve-free route that the tests compare
#: the eigendecomposition oracle against; bitstring_weight, the weight of one
#: bitstring, is what they check the Hamming-class weights of the blocks
#: against. A new name without a reader has to be listed here.
UNREAD = {"qfi.sld_2x2", "channels.bitstring_weight"}


def _defined(node) -> set[str]:
    """Names a module-level statement defines: a function, a class or an
    assignment target."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_public_name_has_a_reader_in_src():
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
    assert public - read == UNREAD


#: Private names of one src/paulifish module that another reads, as
#: {reader: {"module._name", ...}}. A new coupling to a module's internals
#: has to be listed here; the block layout of the state, which
#: correlated_state writes from the Hamming classes, stays inside channels.
PRIVATE_READS = {
    "cli": {"protocol._validate_nm"},
    "correlations": {"linop._as_operators", "linop._elementwise", "protocol._validate_nm"},
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


#: Functions that reject a non-finite entry in any argument, each with finite
#: arguments that it accepts.
FINITE_INPUTS = {
    "qfi.fisher_eig": (qfi.fisher_eig, [np.eye(2) / 2, np.diag([0.5, -0.5])]),
    "qfi.sld_2x2": (qfi.sld_2x2, [np.eye(2) / 2, np.diag([0.5, -0.5])]),
    "correlations.bell_diagonalize": (correlations.bell_diagonalize, [np.eye(4) / 4]),
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
