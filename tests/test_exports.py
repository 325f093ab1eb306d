import holonomy_sim


def test_every_export_resolves_once():
    names = holonomy_sim.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names)
                                                 if names.count(n) > 1)
    missing = [n for n in names if not hasattr(holonomy_sim, n)]
    assert not missing
