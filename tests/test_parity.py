"""``tools/parity.py`` lists every difference between two record trees, and only those."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def _write(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


RECORDS = {
    "simulate-a/exit": b"0\n",
    "simulate-a/stdout": b"a: policy=crossover makespan_ns=13 spans=18 -> <out>\n",
    "simulate-a/stderr": b"",
    "simulate-a/out/trace.json": b"[\n  {}\n]\n",
    "simulate-a/out/metrics.json": b"{}\n",
    "argv-help/exit": b"0\n",
}


@pytest.fixture
def base(tmp_path):
    return _write(tmp_path / "base", RECORDS)


def test_equal_record_trees_have_no_difference(base, tmp_path):
    assert parity.compare(base, _write(tmp_path / "head", RECORDS)) == []


def test_every_difference_is_listed(base, tmp_path):
    head = _write(tmp_path / "head", {
        **{k: v for k, v in RECORDS.items() if k != "simulate-a/out/metrics.json"},
        "simulate-a/exit": b"2\n",
        "simulate-a/out/trace.json": b"[\n  {},\n]\n",
        "simulate-a/out/trace_chrome.json": b"{}\n",
        "argv-help/stdout": b"usage\n",
    })
    assert parity.compare(base, head) == [
        "argv-help/stdout: only in head",
        "simulate-a/exit: differs from byte 0 (sizes 2 and 2)",
        "simulate-a/out/metrics.json: only in base",
        "simulate-a/out/trace.json: differs from byte 6 (sizes 9 and 10)",
        "simulate-a/out/trace_chrome.json: only in head",
    ]


def test_a_prefix_differs_where_the_shorter_file_ends(base, tmp_path):
    head = _write(tmp_path / "head", {**RECORDS, "simulate-a/stderr": b"error\n"})
    assert parity.compare(base, head) == ["simulate-a/stderr: differs from byte 0 (sizes 0 and 6)"]


def test_records_of_one_run_match_whatever_their_out_directory(tmp_path):
    argv = parity.commands(["golden_2jobs"], tmp_path / "corpus")["simulate-golden_2jobs"]
    for side in ("base", "head"):
        parity.record(ROOT, argv, tmp_path / side / "simulate")
    assert (tmp_path / "base" / "simulate" / "stdout").read_bytes().endswith(b"-> <out>\n")
    assert sorted(p.name for p in (tmp_path / "base" / "simulate" / "out").iterdir()) == [
        "metrics.csv", "metrics.json", "metrics.txt", "trace.json", "trace_chrome.json"]
    assert parity.compare(tmp_path / "base", tmp_path / "head") == []
