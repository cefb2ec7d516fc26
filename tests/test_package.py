import gsolve


def test_every_exported_name_resolves():
    missing = [name for name in gsolve.__all__ if not hasattr(gsolve, name)]
    assert not missing
    assert len(set(gsolve.__all__)) == len(gsolve.__all__)
