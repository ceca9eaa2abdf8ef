import pytest

import paulifish
from paulifish import channels


def test_every_export_resolves_once():
    assert len(paulifish.__all__) == len(set(paulifish.__all__))
    for name in paulifish.__all__:
        assert getattr(paulifish, name) is not None, name


@pytest.mark.parametrize(
    "name", ["BlockPair", "prepared_state_blocks", "post_channel_blocks", "blocks_to_dense"]
)
def test_retired_block_records_are_gone(name):
    assert not hasattr(paulifish, name)
    assert not hasattr(channels, name)
