"""The size guards read from ORDSGP_LIMITS."""

import pytest

from ordsgp import limits
from ordsgp.errors import BadLimit


def test_each_value_is_parsed_once(monkeypatch):
    """A value already read is not parsed again; a changed value is read."""
    limits._bounds.cache_clear()
    monkeypatch.setenv("ORDSGP_LIMITS", "ideals=3")
    assert [limits.get("ideals") for _ in range(3)] == [3, 3, 3]
    assert limits.get("partitions") == limits.DEFAULTS["partitions"]
    assert limits._bounds.cache_info().misses == 1
    monkeypatch.setenv("ORDSGP_LIMITS", "ideals=5")
    assert limits.get("ideals") == 5
    monkeypatch.delenv("ORDSGP_LIMITS")
    assert limits.get("ideals") == limits.DEFAULTS["ideals"]
    monkeypatch.setenv("ORDSGP_LIMITS", "ideals=3")
    assert limits.get("ideals") == 3
    assert limits._bounds.cache_info().misses == 3


def test_a_bad_entry_raises_on_every_read(monkeypatch):
    monkeypatch.setenv("ORDSGP_LIMITS", "ideals=3,partitions=x")
    for _ in range(2):
        with pytest.raises(BadLimit, match="'partitions=x'"):
            limits.get("ideals")
    monkeypatch.setenv("ORDSGP_LIMITS", "ideals=3")
    assert limits.get("ideals") == 3
