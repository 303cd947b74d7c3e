"""The package's public name list, which is kept by hand beside its imports."""

import bentfn


def test_public_names_resolve_once():
    assert len(set(bentfn.__all__)) == len(bentfn.__all__)
    missing = [name for name in bentfn.__all__ if not hasattr(bentfn, name)]
    assert missing == []
