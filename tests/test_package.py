from __future__ import annotations

import flowsep


def test_all_names_resolve():
    # a stale __all__ entry breaks `from flowsep import *`
    missing = [name for name in flowsep.__all__ if not hasattr(flowsep, name)]
    assert missing == []
