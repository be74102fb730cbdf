"""The README's examples run against the current API."""

import json
import re
from pathlib import Path

from colosim.scenario import parse_scenario

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_scenario_example_builds_a_plan():
    doc = json.loads(_block("Scenario files", "json"))
    scenario = parse_scenario(doc, origin="README")
    plan = scenario.plan()
    assert [j.job_id for j in plan.jobs] == [j["job_id"] for j in doc["jobs"]]


def test_scenario_example_has_only_read_keys():
    text = _block("Scenario files", "json")
    for key in ("tensor_count", "gpus_per_worker", "ps_servers"):
        assert key not in text


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
