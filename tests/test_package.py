import fowtctl


def test_every_exported_name_resolves():
    missing = [name for name in fowtctl.__all__ if not hasattr(fowtctl, name)]
    assert missing == []
    assert len(set(fowtctl.__all__)) == len(fowtctl.__all__)
