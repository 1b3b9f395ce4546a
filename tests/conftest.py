import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from brandt_omega import brandt, equations, topology
from brandt_omega.families import AtomicFamily, SupportSet


@pytest.fixture(autouse=True)
def window_cache_cleared():
    """Each test starts with an empty window cache, so none depends on the
    windows an earlier test left behind."""
    brandt._cached_window.cache_clear()


@pytest.fixture
def window_builds(monkeypatch):
    """The (family, bound) of every call to `brandt.window`, through any
    module that holds the name, in order."""
    builds = []
    original = brandt.window

    def counted(f, bound):
        builds.append((f, bound))
        return original(f, bound)

    for module in (brandt, equations, topology):
        monkeypatch.setattr(module, "window", counted)
    return builds


@pytest.fixture
def fam013():
    return AtomicFamily(SupportSet((0, 1, 3)))


@pytest.fixture
def fam0():
    return AtomicFamily(SupportSet((0,)))


@pytest.fixture
def fam25():
    return AtomicFamily(SupportSet((2, 5)))


@pytest.fixture
def fam_tail():
    return AtomicFamily(SupportSet((0,), 4))
