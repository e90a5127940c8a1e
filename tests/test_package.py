"""The package's public names."""

import robustnp


def test_all_lists_each_name_once_and_every_name_resolves():
    names = robustnp.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(robustnp, name)]
    assert missing == []
