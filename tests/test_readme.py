"""The README's examples run against the current API, and its CLI flags match the parser."""

import argparse
import json
import re
from pathlib import Path

from colosim.cli import build_parser
from colosim.engine import Trace
from colosim.scenario import (_CLUSTER_KEYS, _INLINE_JOB_KEYS, _PROFILE_JOB_KEYS,
                               _TOP_KEYS, RETIRED_KEYS, load_config, parse_scenario)
from colosim.scheduler import simulate, validate_trace

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
FLAG = re.compile(r"--[a-z][a-z-]*")


def _section(section: str) -> str:
    """The text under the ``## section`` heading, up to the next one."""
    return README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    return re.search(rf"```{lang}\n(.*?)```", _section(section), re.S).group(1)


def _parser_flags() -> set[str]:
    """Every option string of the top-level parser and its subcommands."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for p in (parser, *sub.choices.values())
            for action in p._actions for flag in action.option_strings}


def test_scenario_example_builds_a_plan():
    doc = json.loads(_block("Scenario files", "json"))
    scenario = parse_scenario(doc, origin="README")
    plan = scenario.plan()
    assert [j.job_id for j in plan.jobs] == [j["job_id"] for j in doc["jobs"]]


def test_scenario_example_has_only_read_keys():
    text = _block("Scenario files", "json")
    for key in ("tensor_count", "gpus_per_worker", "ps_servers"):
        assert key not in text


def test_readme_scenario_keys_match_the_schema():
    # each key appears in the section as `key` or "key"
    documented = {quoted or code for code, quoted in
                  re.findall(r'`([a-z_]+)`|"([a-z_]+)"', _section("Scenario files"))}
    schema = _TOP_KEYS | _CLUSTER_KEYS | _INLINE_JOB_KEYS | _PROFILE_JOB_KEYS | RETIRED_KEYS
    assert schema - documented == set()


def test_library_example_runs(capsys):
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_library_example_runs_each_schedule_once(run_calls):
    # each measure call gets a fresh SchedulePlan equal to the simulated one
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
    assert len(run_calls) == 2


def test_readme_cli_flags_match_the_parser():
    equivalence = [par for par in _section("Library").split("\n\n")
                   if "colosim equivalence" in par]
    assert equivalence
    documented = set(FLAG.findall(_section("CLI") + "".join(equivalence)))
    parser = _parser_flags()
    assert documented - parser == set()
    assert parser - {"-h", "--help"} - set(FLAG.findall(README)) == set()


def test_traces_example_message_is_the_validators():
    # golden_2jobs with its last sync stretched by 1,000 ns
    plan = load_config(ROOT / "scenarios" / "golden_2jobs.json").plan()
    rows = simulate(plan).rows
    *last, sync_end = rows[-1]
    stretched = Trace(rows[:-1] + ((*last, sync_end + 1000),))
    messages = validate_trace(stretched, plan)
    assert len(messages) == 1
    assert f"`{messages[0]}`" in _section("Traces")
