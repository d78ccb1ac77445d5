"""The package's public names."""

import lgqsmooth


def test_every_export_resolves():
    # a name deleted from the package must leave __all__ too
    missing = [name for name in lgqsmooth.__all__
               if not hasattr(lgqsmooth, name)]
    assert missing == []
    assert len(set(lgqsmooth.__all__)) == len(lgqsmooth.__all__)
