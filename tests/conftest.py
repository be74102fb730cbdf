import pytest
from hypothesis import settings

from colosim import scheduler

# property tests run derandomized so CI results are reproducible
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def run_calls(monkeypatch):
    """The plans ``scheduler._run`` is called with: one per dispatch loop run."""
    calls = []
    run = scheduler._run

    def counting(plan, rows):
        calls.append(plan)
        return run(plan, rows)

    monkeypatch.setattr(scheduler, "_run", counting)
    return calls
