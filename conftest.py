import pytest


@pytest.fixture(autouse=True)
def no_developer_cache(monkeypatch):
    # an exported COMPONENT_TABLEAUX_CACHE must be neither read nor filled by
    # any test, perfbench's included; the cache tests point it at their own
    # tmp_path
    monkeypatch.delenv("COMPONENT_TABLEAUX_CACHE", raising=False)
