import pytest
from hypothesis import settings

from colosim import cli, engine, scheduler

# property tests run derandomized so CI results are reproducible
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def run_calls(monkeypatch):
    """The policy of each ``scheduler._run`` call: one per dispatch loop run.

    The CLI's sweep calls ``_run`` by its own name, so that name counts too.
    """
    calls = []
    run = scheduler._run

    def counting(policy, jobs, comm_times, blocks):
        calls.append(policy)
        return run(policy, jobs, comm_times, blocks)

    monkeypatch.setattr(scheduler, "_run", counting)
    monkeypatch.setattr(cli, "_run", counting)
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
