"""The declared Python floor (``requires-python >= 3.10``) runs the package.

Before 3.11, ``object`` has no ``__getstate__``, so pickling a ``Trace``
looks the name up through ``Trace.__getattr__``; ``sweep`` writes its ratios
and speedups from ``int / int``.  These tests run only when
a ``python3.10`` on PATH starts, directly or as a pyenv shim given one of
pyenv's 3.10 versions, and skip otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from colosim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
FORMATS = ("json", "csv", "table", "chrome-trace")


def _starts_floor(path: str, env: dict[str, str]) -> bool:
    probe = subprocess.run([path, "-c", "import sys; print(sys.version_info[:2])"],
                           capture_output=True, text=True, env=env, timeout=60)
    return probe.stdout == "(3, 10)\n"


def _pyenv_floor() -> str | None:
    """The newest 3.10 that ``pyenv versions --bare`` lists, if any."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True,
                            timeout=60).stdout.split()
    floors = [v for v in listed if re.fullmatch(r"3\.10\.\d+", v)]
    return max(floors, key=lambda v: int(v.rsplit(".", 1)[1]), default=None)


@pytest.fixture(scope="module")
def floor_python():
    """A command that runs python3.10 with the package importable, or a skip.

    A pyenv shim starts 3.10 only where a pyenv version selects it, so when
    the shim fails, the newest 3.10 that pyenv lists is tried through
    ``PYENV_VERSION``.
    """
    path = shutil.which("python3.10")
    if path is None:
        pytest.skip("no python3.10 on PATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if not _starts_floor(path, env):
        version = _pyenv_floor()
        if version is None or not _starts_floor(path, {**env, "PYENV_VERSION": version}):
            pytest.skip(f"{path} does not start Python 3.10")
        env["PYENV_VERSION"] = version

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([path, *argv], capture_output=True, text=True, env=env,
                              timeout=120)

    return run


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_simulate_writes_the_same_bytes(floor_python, scenario, tmp_path):
    argv = ["simulate", "--config", str(scenario)]
    for fmt in FORMATS:
        argv += ["--format", fmt]
    proc = floor_python("-m", "colosim.cli", *argv, "--out", str(tmp_path / "floor"))
    assert proc.returncode == 0, proc.stderr
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, "--out", str(tmp_path / "here")]) == 0
    assert proc.stdout.replace(str(tmp_path / "floor"), str(tmp_path / "here")) == out.getvalue()
    assert _files(tmp_path / "floor") == _files(tmp_path / "here")


@pytest.mark.parametrize("flags", [
    [], ["--ratio-min", "0.123456789", "--ratio-max", "3.9", "--steps", "1000"],
], ids=["default", "long_decimal_1000_steps"])
def test_sweep_writes_the_same_bytes(floor_python, flags, tmp_path):
    argv = ["sweep", "--config", str(ROOT / "scenarios" / "sweep_base.json"), *flags]
    proc = floor_python("-m", "colosim.cli", *argv, "--out", str(tmp_path / "floor"))
    assert proc.returncode == 0, proc.stderr
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / "here")]) == 0
    assert _files(tmp_path / "floor") == _files(tmp_path / "here")


_PICKLE = """
import copy, pickle, sys
from colosim.scenario import load_config
from colosim.scheduler import simulate
plan = load_config(sys.argv[1]).plan()
trace = simulate(plan)
for other in (pickle.loads(pickle.dumps(trace)), copy.copy(trace), copy.deepcopy(trace)):
    assert "rows" not in vars(other) and other.plan == plan
    assert getattr(other, "spam", None) is None
    assert other == simulate(plan) and other.makespan == trace.makespan
assert "rows" not in vars(trace) and "numpy" not in sys.modules
print("ok")
"""


def test_unread_trace_pickles(floor_python):
    proc = floor_python("-c", _PICKLE, str(ROOT / "scenarios" / "speedup_band.json"))
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
