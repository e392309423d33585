import geomcrystal


def test_every_export_resolves():
    missing = [name for name in geomcrystal.__all__ if not hasattr(geomcrystal, name)]
    assert missing == []
    assert len(set(geomcrystal.__all__)) == len(geomcrystal.__all__)
