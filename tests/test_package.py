import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import paulifish
from paulifish import channels, linop, qfi


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
