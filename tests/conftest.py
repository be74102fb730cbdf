import sys

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
    """The block tuples ``Trace.rows`` is built from: one per build.

    Rows are built only by zipping the columns of ``engine._chunks``, which
    the trace writer also calls; a call counts when ``Trace.__getattr__``
    makes it.
    """
    calls = []
    chunks = engine._chunks
    builder = engine.Trace.__getattr__.__code__

    def counting(blocks):
        if sys._getframe(1).f_code is builder:
            calls.append(blocks)
        return chunks(blocks)

    monkeypatch.setattr(engine, "_chunks", counting)
    return calls
