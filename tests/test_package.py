"""The package namespace: every exported name resolves and is listed once."""
import slpkit


def test_every_export_resolves_once():
    names = slpkit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(slpkit, name)]
    assert missing == []
    for gone in ("rank", "max_rank_check"):
        assert gone not in names and not hasattr(slpkit, gone)
