import pytest

from cusumac import gaussian_mean_shift, montecarlo


@pytest.fixture(autouse=True)
def shared_pool_per_test():
    """Shut the shared worker pool down after each test.

    A pool kept across tests would hide a later test's stub of
    ``montecarlo.ProcessPoolExecutor``, and its workers, forked before a
    later monkeypatch, would never see the patch.
    """
    yield
    montecarlo.shutdown_pool()


@pytest.fixture(scope="session")
def pair():
    """The Gaussian mean-shift pair used throughout: N(0,1) -> N(0.5,1)."""
    return gaussian_mean_shift(0.0, 0.5, 1.0)


@pytest.fixture(scope="session")
def pairs3(pair):
    return [pair, pair, pair]


class PairWithout:
    """The Gaussian pair with one method hidden; logs every method it forwards.

    Unhashable, so ``optimize`` neither memoizes it nor keeps it alive.
    """

    __hash__ = None

    def __init__(self, pair, hidden):
        self.pair, self.hidden, self.calls = pair, hidden, []

    def __getattr__(self, name):
        if name == self.hidden:
            raise AttributeError(name)
        attr = getattr(self.pair, name)
        if not callable(attr):
            return attr
        return lambda *args: self.calls.append(name) or attr(*args)


@pytest.fixture
def pair_without(pair):
    """Factory: ``pair_without(name)`` is the shared pair lacking method ``name``."""
    return lambda hidden: PairWithout(pair, hidden)
