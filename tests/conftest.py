import pytest
from hypothesis import settings

from colosim import engine, scheduler

# property tests run derandomized so CI results are reproducible
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def run_calls(monkeypatch):
    """The plans ``scheduler._run`` is called with: one per dispatch loop run."""
    calls = []
    run = scheduler._run

    def counting(plan, blocks):
        calls.append(plan)
        return run(plan, blocks)

    monkeypatch.setattr(scheduler, "_run", counting)
    return calls


@pytest.fixture
def expansions(monkeypatch):
    """The block tuples ``engine._expand`` builds rows from: one per expansion."""
    calls = []
    expand = engine._expand

    def counting(blocks):
        calls.append(blocks)
        return expand(blocks)

    monkeypatch.setattr(engine, "_expand", counting)
    return calls
