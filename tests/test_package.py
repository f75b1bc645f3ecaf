"""The package's public surface."""

import ckmsched


def test_every_exported_name_resolves_once():
    assert len(ckmsched.__all__) == len(set(ckmsched.__all__))
    missing = [name for name in ckmsched.__all__ if not hasattr(ckmsched, name)]
    assert missing == []
