import pytest

from nilfibre import invariants
from nilfibre.conformance import compositions_of


def all_compositions(max_n: int) -> list[tuple[int, ...]]:
    return [parts for n in range(1, max_n + 1) for parts in compositions_of(n)]


@pytest.fixture(scope="session")
def small_compositions() -> list[tuple[int, ...]]:
    return all_compositions(7)


@pytest.fixture
def restricted_route(monkeypatch):
    # a routing bound of 0 sends every pair past it: no generator is
    # expanded, restricted minors and matchings decide everything
    monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", 0)


@pytest.fixture
def fresh_memos():
    # empties the generator cache and every interval-keyed memo, before the
    # test and after it, so a test can count each extraction, zero test and
    # restriction; the test gets the emptying function to call again itself
    def clear():
        invariants.invariant_for.cache_clear()
        for memo in invariants._MEMOS:
            memo.clear()

    clear()
    yield clear
    clear()
