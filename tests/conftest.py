import pytest

from diracforge import cache


@pytest.fixture(autouse=True)
def _isolated_character_cache(tmp_path, monkeypatch):
    """Give each test its own empty character cache.

    Otherwise a test that sets no cache directory reads and writes
    ``~/.cache/diracforge``, and a wrong entry there changes its outcome.
    """
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path / "dfcache"))
