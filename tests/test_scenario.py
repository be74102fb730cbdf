import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from colosim.cli import main
from colosim.comm import Architecture, comm_time
from colosim.errors import ConfigError
from colosim.engine import _JOB_ID_LIMIT, _TRACE_BYTES, Trace, trace_to_chrome_json, trace_to_json
from colosim.scenario import (_CLUSTER_KEYS, _INLINE_JOB_KEYS, _PROFILE_JOB_KEYS, _TOP_KEYS,
                               MAX_JOB_ITERATIONS, RETIRED_KEYS, load_config, parse_scenario,
                               scaled_int)
from colosim.scheduler import Policy
from colosim.workload import comp_time
from oracles import scaled_int_reference

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def base_doc(**overrides):
    doc = {
        "name": "unit",
        "policy": "crossover",
        "cluster": {
            "workers": 2,
            "bandwidth_gbps": 16,
            "latency_us": 0,
            "architecture": "parameter_server",
        },
        "jobs": [
            {"job_id": "a", "forward_ms": 1, "backward_ms": 1, "grad_mb": 1,
             "iterations": 3},
            {"job_id": "b", "forward_ms": 1, "backward_ms": 1, "grad_mb": 1,
             "iterations": 3},
        ],
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestBundledScenarios:
    @pytest.mark.parametrize("name", [
        "golden_2jobs", "resnet50_2jobs_100g", "vgg16_2jobs_10g",
        "speedup_band", "sweep_base",
    ])
    def test_loads_and_validates(self, name):
        scenario = load_config(SCENARIO_DIR / f"{name}.json")
        assert scenario.name == name
        scenario.plan()  # must build without errors
        # the shipped examples use only schema keys, none of RETIRED_KEYS
        doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        assert set(doc) <= _TOP_KEYS
        assert set(doc["cluster"]) <= _CLUSTER_KEYS
        for job in doc["jobs"]:
            assert set(job) <= (_PROFILE_JOB_KEYS if "profile" in job else _INLINE_JOB_KEYS)

    def test_golden_units_land_on_integers(self):
        scenario = load_config(SCENARIO_DIR / "golden_2jobs.json")
        job = scenario.jobs[0]
        assert (job.forward_time, job.backward_time) == (1, 1)
        assert job.grad_bytes == 1
        sync = comm_time(job.grad_bytes, scenario.cluster)
        assert sync == 1  # comp 2ns, comm 1ns: the hand-enumerated setup

    def test_speedup_band_ratio_is_calibrated(self):
        scenario = load_config(SCENARIO_DIR / "speedup_band.json")
        job = scenario.jobs[0]
        assert Fraction(comm_time(job.grad_bytes, scenario.cluster),
                        comp_time(job)) == Fraction(3, 20)


class TestUnitConversion:
    def test_milliseconds_to_nanoseconds(self):
        assert scaled_int(1.5, 10**6, 1, "f", 0) == 1_500_000

    def test_tiny_exact_values(self):
        assert scaled_int(1e-6, 10**6, 1, "f", 0) == 1

    def test_gbps_to_bytes_per_second(self):
        assert scaled_int(10, 10**9, 8, "bw", 1) == 1_250_000_000
        assert scaled_int(0.1, 10**9, 8, "bw", 1) == 12_500_000

    def test_sub_unit_value_rejected(self):
        with pytest.raises(ConfigError, match="whole internal unit"):
            scaled_int(5e-7, 10**6, 1, "f", 0)

    def test_overflow_rejected(self):
        with pytest.raises(ConfigError, match="overflows"):
            scaled_int(1e13, 10**6, 1, "f", 0)

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            scaled_int("fast", 10**6, 1, "f", 0)
        with pytest.raises(ConfigError):
            scaled_int(True, 10**6, 1, "f", 0)

    @pytest.mark.parametrize("value", [10**5000, -10**5000], ids=["10**5000", "-10**5000"])
    def test_integer_past_the_digit_limit_names_the_field(self, value):
        # its text would raise ValueError, so the message does not quote it
        with pytest.raises(ConfigError, match=r"^f: an integer of magnitude 2\^63 or more "
                                              r"overflows the internal integer range$"):
            scaled_int(value, 10**6, 1, "f", 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            scaled_int(float("inf"), 10**6, 1, "f", 0)

    @given(value=st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True),
                           st.integers(-10**25, 10**25),
                           # short decimal literals, most of which land
                           st.builds(lambda m, e: float(f"{m}e{e}"),
                                     st.integers(-10**6, 10**6), st.integers(-12, 12))),
           scale=st.sampled_from([(10**6, 1), (10**3, 1), (10**9, 8)]),
           minimum=st.sampled_from([0, 1]))
    @example(value=1e-05, scale=(10**6, 1), minimum=0)
    @example(value=5e-324, scale=(10**9, 8), minimum=1)
    @example(value=1.5e+300, scale=(10**3, 1), minimum=0)
    @example(value=-0.0, scale=(10**6, 1), minimum=1)
    @example(value=2**63, scale=(10**3, 1), minimum=0)
    @example(value=float("nan"), scale=(10**6, 1), minimum=0)
    @settings(max_examples=2000)
    def test_matches_the_rational_reference(self, value, scale, minimum):
        # same integer, or the same ConfigError text, as exact Fraction arithmetic
        def outcome(convert):
            try:
                return convert(value, *scale, "f", minimum)
            except ConfigError as exc:
                return f"ConfigError: {exc}"

        assert outcome(scaled_int) == outcome(scaled_int_reference)


class TestValidation:
    def test_zero_bandwidth(self, tmp_path):
        doc = base_doc()
        doc["cluster"]["bandwidth_gbps"] = 0
        with pytest.raises(ConfigError, match="bandwidth_gbps"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_policy_lists_choices(self, tmp_path):
        doc = base_doc(policy="roundrobin")
        with pytest.raises(ConfigError, match="crossover, sequential"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_architecture_lists_choices(self, tmp_path):
        doc = base_doc()
        doc["cluster"]["architecture"] = "mesh"
        with pytest.raises(ConfigError, match="parameter_server, ring_allreduce"):
            load_config(write_config(tmp_path, doc))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n}')
        with pytest.raises(ConfigError, match=r"line 3"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_duplicate_job_ids(self, tmp_path):
        doc = base_doc()
        doc["jobs"][1]["job_id"] = "a"
        scenario = load_config(write_config(tmp_path, doc))
        with pytest.raises(ConfigError, match=r'^jobs\[1\]\.job_id: "a" is also jobs\[0\]'):
            scenario.plan()

    def test_duplicate_job_id_is_usage_error(self, tmp_path, capsys):
        doc = base_doc()
        doc["jobs"].append(dict(doc["jobs"][0], job_id="\u00e9"))
        doc["jobs"].append(dict(doc["jobs"][0], job_id="\u00e9"))
        assert main(["validate-config", "--config", str(write_config(tmp_path, doc))]) == 1
        assert capsys.readouterr().err == (
            'error: jobs[3].job_id: "\\u00e9" is also jobs[2].job_id, and ids must be unique\n')

    def test_empty_jobs(self, tmp_path):
        with pytest.raises(ConfigError, match="non-empty"):
            load_config(write_config(tmp_path, base_doc(jobs=[])))

    def test_missing_required_job_field(self, tmp_path):
        doc = base_doc()
        del doc["jobs"][0]["grad_mb"]
        with pytest.raises(ConfigError, match=r"jobs\[0\].*grad_mb"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_profile_reference(self, tmp_path):
        doc = base_doc(jobs=[{"job_id": "a", "profile": "alexnet"}])
        with pytest.raises(ConfigError, match="resnet50, vgg16"):
            load_config(write_config(tmp_path, doc))

    def test_inline_requires_iterations(self, tmp_path):
        doc = base_doc()
        del doc["jobs"][0]["iterations"]
        with pytest.raises(ConfigError, match="iterations"):
            load_config(write_config(tmp_path, doc))


class TestUnknownKeys:
    def _rejects(self, doc, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: unknown key"):
            parse_scenario(doc)

    def test_top_level(self):
        self._rejects(base_doc(iterations_overide=5), "iterations_overide")

    def test_cluster(self):
        doc = base_doc()
        doc["cluster"]["latency_ms"] = 5
        with pytest.raises(ConfigError, match=re.escape(
                "cluster.latency_ms: unknown key (allowed: architecture, "
                "bandwidth_gbps, latency_us, workers)")):
            parse_scenario(doc)

    def test_inline_job(self):
        doc = base_doc()
        doc["jobs"][1]["backward_sm"] = 1
        self._rejects(doc, "jobs[1].backward_sm")

    def test_profile_job(self):
        self._rejects(base_doc(jobs=[{"job_id": "a", "profile": "resnet50",
                                      "iteration": 9}]), "jobs[0].iteration")

    def test_profile_job_takes_no_inline_fields(self):
        self._rejects(base_doc(jobs=[{"job_id": "a", "profile": "resnet50",
                                      "grad_mb": 1}]), "jobs[0].grad_mb")

    @pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
    def test_retired_keys_only_where_they_were_read(self, key):
        self._rejects(base_doc(**{key: 1}), key)
        self._rejects(base_doc(jobs=[{"job_id": "a", "profile": "vgg16", key: 1}]),
                      f"jobs[0].{key}")


class TestScenarioSemantics:
    def test_profile_reference_with_override(self):
        doc = base_doc(jobs=[
            {"job_id": "left", "profile": "resnet50", "iterations": 9},
            {"job_id": "right", "profile": "vgg16"},
        ])
        scenario = parse_scenario(doc)
        assert scenario.jobs[0].iterations == 9
        assert comp_time(scenario.jobs[0]) == 230_000_000
        assert scenario.jobs[1].iterations == 100  # fixture default

    def test_keys_that_change_no_cost_are_ignored(self):
        # documents from older scenario files and the benchmark generator
        # still carry these keys, including values that were once rejected
        plain = base_doc()
        extra = base_doc()
        extra["cluster"].update(gpus_per_worker=0, ps_servers=0)
        for job in extra["jobs"]:
            job["tensor_count"] = 20_000
        assert parse_scenario(extra).plan() == parse_scenario(plain).plan()

    def test_iterations_override_is_an_unknown_key(self, tmp_path, capsys):
        # a job's budget is stated once, on the job; null is no exception
        for value in (None, 50, 0, "x"):
            config = write_config(tmp_path, base_doc(iterations_override=value))
            assert main(["validate-config", "--config", str(config)]) == 1
            assert capsys.readouterr().err.startswith(
                "error: iterations_override: unknown key")

    def test_iters_replaces_every_budget(self):
        doc = base_doc()
        doc["jobs"][1]["iterations"] = 5
        scenario = parse_scenario(doc)
        assert [j.iterations for j in scenario.plan().jobs] == [3, 5]
        assert [j.iterations for j in scenario.plan(iterations=7).jobs] == [7, 7]

    def test_run_size_is_bounded(self):
        # plan() only builds job profiles, so neither case allocates a trace
        doc = base_doc()
        doc["jobs"][0]["iterations"] = 10**12
        scenario = parse_scenario(doc)
        with pytest.raises(ConfigError, match=f"iterations.*{MAX_JOB_ITERATIONS}"):
            scenario.plan()
        doc = base_doc()
        for job in doc["jobs"]:
            job["iterations"] = MAX_JOB_ITERATIONS // 2
        at_limit = parse_scenario(doc)
        assert sum(j.iterations for j in at_limit.plan().jobs) == MAX_JOB_ITERATIONS
        with pytest.raises(ConfigError, match="iterations"):
            at_limit.plan(iterations=MAX_JOB_ITERATIONS // 2 + 1)

    def test_policy_enum(self):
        assert parse_scenario(base_doc()).policy is Policy.CROSSOVER
        assert parse_scenario(base_doc(policy="sequential")).policy is Policy.SEQUENTIAL

    def test_architecture_enum(self):
        doc = base_doc()
        doc["cluster"]["architecture"] = "ring_allreduce"
        assert parse_scenario(doc).cluster.architecture is Architecture.RING_ALLREDUCE


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-m", "colosim.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestMalformedFiles:
    """Files the JSON parser fails on without a JSONDecodeError, or would
    load silently wrong, end in a ConfigError that names the file."""

    def _rejected(self, tmp_path, data: bytes, reason: str):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        for command in (["validate-config"], ["simulate", "--out", str(tmp_path / "out")]):
            code, _, err = run_cli(*command, "--config", str(path))
            assert code == 1, err
            assert "Traceback" not in err
            assert err.startswith(f"error: {path}: ") and reason in err, err

    def test_integer_literal_over_the_digit_limit(self, tmp_path):
        doc = b'{"name": "x", "cluster": {"workers": ' + b"7" * 4301 + b"}}"
        self._rejected(tmp_path, doc, "more than 4300 digits")

    def test_nesting_beyond_the_recursion_limit(self, tmp_path):
        doc = b'{"name": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        self._rejected(tmp_path, doc, "nested too deeply")

    def test_file_that_is_not_utf8(self, tmp_path):
        self._rejected(tmp_path, b'{"name": "caf\xe9"}', "not UTF-8")

    def test_duplicate_key(self, tmp_path):
        doc = json.dumps(base_doc())
        doc = doc.replace('"latency_us": 0', '"latency_us": 0, "latency_us": 5')
        path = tmp_path / "dup.json"
        path.write_text(doc)
        with pytest.raises(ConfigError, match=r"duplicate key 'latency_us'"):
            load_config(path)


class TestFieldLimits:
    def test_count_beyond_the_integer_range(self):
        doc = base_doc()
        doc["cluster"]["workers"] = 2**63
        with pytest.raises(ConfigError, match=r"cluster\.workers: .* overflows"):
            parse_scenario(doc)

    def test_count_past_the_digit_limit_names_the_field(self):
        # its text would raise ValueError, so the message does not quote it
        doc = base_doc()
        doc["cluster"]["workers"] = 10**5000
        with pytest.raises(ConfigError, match=r"^cluster\.workers: an integer of magnitude "
                                              r"2\^63 or more overflows"):
            parse_scenario(doc)

    def test_negative_latency_names_the_field(self):
        doc = base_doc()
        doc["cluster"]["latency_us"] = -1
        with pytest.raises(ConfigError, match=r"cluster\.latency_us: must be >= 0"):
            parse_scenario(doc)

    @pytest.mark.parametrize("field, value, message", [
        ("cluster.bandwidth_gbps", 0, "must be > 0"),
        ("jobs[1].grad_mb", -1, "must be >= 0"),
        ("jobs[1].forward_ms", -1, "must be >= 0"),
        ("jobs[1].backward_ms", -0.5, "must be >= 0"),
    ])
    def test_below_minimum_names_the_field(self, field, value, message):
        doc = base_doc()
        part, key = field.split(".")
        (doc["cluster"] if part == "cluster" else doc["jobs"][1])[key] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: {message}$"):
            parse_scenario(doc)

    def test_zero_compute_job_is_usage_error(self, tmp_path, capsys):
        doc = base_doc()
        doc["jobs"][1].update(forward_ms=0, backward_ms=0)
        config = write_config(tmp_path, doc)
        assert main(["validate-config", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: jobs[1]: forward_ms + backward_ms must be > 0\n")

    def test_lone_surrogate_in_a_name(self):
        with pytest.raises(ConfigError, match="name: .*lone surrogate"):
            parse_scenario(base_doc(name="\ud800"))

    # "x" escapes to 1 character, U+1F680 to 12 (a \u surrogate pair)
    @pytest.mark.parametrize("unit", ["x", "\U0001f680"])
    def test_longest_job_ids_keep_both_trace_files_within_budget(self, unit):
        width = len(json.dumps(unit)) - 2
        longest = unit * (_JOB_ID_LIMIT // width) + "x" * (_JOB_ID_LIMIT % width)
        assert len(json.dumps(longest)) - 2 == _JOB_ID_LIMIT
        doc = base_doc()
        doc["jobs"][0]["job_id"] = longest
        assert parse_scenario(doc).jobs[0].job_id == longest
        # every number 19 digits, and each Chrome ts and dur past 10^15 ns
        row = (longest, 10**18, *(k * (10**18 + 1) for k in range(1, 6)))
        total = 0
        for serialize in (trace_to_json, trace_to_chrome_json):
            one, two = (len(serialize(Trace((row,) * n))) for n in (1, 2))
            total += one + (MAX_JOB_ITERATIONS - 1) * (two - one)
        assert total <= _TRACE_BYTES

    @pytest.mark.parametrize("job_id", [
        "x" * (_JOB_ID_LIMIT + 1),
        "\u00e9" * (_JOB_ID_LIMIT // 6) + "x" * (_JOB_ID_LIMIT % 6 + 1),
    ])
    @pytest.mark.parametrize("command", ["validate-config", "simulate"])
    def test_job_id_past_the_limit_is_usage_error(self, tmp_path, capsys, job_id, command):
        doc = base_doc()
        doc["jobs"][1]["job_id"] = job_id
        argv = [command, "--config", str(write_config(tmp_path, doc))]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: jobs[1].job_id: {_JOB_ID_LIMIT + 1} characters once JSON-escaped "
            f"exceed the limit of {_JOB_ID_LIMIT}\n")
        assert not (tmp_path / "out").exists()

    def test_long_values_are_quoted_short(self):
        with pytest.raises(ConfigError) as info:
            parse_scenario(base_doc(policy="x" * 10_000))
        assert len(str(info.value)) < 200


# Scenario documents with one field replaced, added or deleted.  Values
# cover wrong types, nesting (up to 900 levels, which json.loads still
# accepts), integers of up to 4,000 digits, non-finite and extreme floats,
# and strings with lone surrogates; every value is small in memory.
_edge_values = st.sampled_from((
    None, True, False, 0, -1, 1, 2**63 - 1, 2**63, -2**63, 0.5, -0.5, -0.0, 1e308,
    5e-324, math.nan, math.inf, -math.inf, "", "\ud800", "x" * 1000, "crossover",
    "ring_allreduce", "resnet50", "a", [], {}, [1], {"a": 1}))
_json_leaf = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=8)
              | st.builds(lambda k, sign: sign * 10**k, st.integers(0, 4000),
                          st.sampled_from((1, -1))))
_json_value = st.one_of(
    _edge_values,
    st.recursive(_json_leaf,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=8),
    st.builds(lambda depth, leaf: json.loads("[" * depth + json.dumps(leaf) + "]" * depth),
              st.integers(1, 900), _json_leaf))


def _fuzz_doc():
    doc = base_doc()
    doc["jobs"].append({"job_id": "c", "profile": "resnet50", "iterations": 2})
    return doc


def _paths(node, prefix=()):
    """Every path of keys and indexes in the document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix + (key,)
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield prefix + (index,)
            yield from _paths(child, prefix + (index,))


_FUZZ_PATHS = [()] + list(_paths(_fuzz_doc()))


def _names(path):
    """What an error about ``path`` may call it: its last key, or an
    enclosing array element such as ``jobs[2]``."""
    names, dotted = set(), ""
    for step in path:
        if isinstance(step, int):
            dotted += f"[{step}]"
            names.add(dotted)
        else:
            dotted += f".{step}" if dotted else step
    names.add(next(step for step in reversed(path) if isinstance(step, str)))
    return names


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_FUZZ_PATHS),
       st.sampled_from(("replace", "replace", "replace", "add", "delete", "duplicate_id")),
       _json_value, st.text(min_size=1, max_size=6))
def test_fuzzed_documents_fail_cleanly(tmp_path_factory, path, action, value, new_key):
    """validate-config exits 0, or 1 with the field named, and never raises."""
    doc = _fuzz_doc()
    if action == "duplicate_id":
        doc["jobs"][2]["job_id"] = "a"
        path = ("jobs", 2, "job_id")
    elif not path:
        doc = value
    else:
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], dict) and new_key not in parent[path[-1]]:
            parent[path[-1]][new_key] = value
            path += (new_key,)
        else:
            return
    config = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    config.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate-config", "--config", str(config)])
    out.getvalue().encode()  # stdout must be printable as UTF-8
    if code == 0:
        assert out.getvalue().startswith("OK: ")
        return
    assert code == 1
    assert err.getvalue().startswith("error: ")
    if path:
        assert any(name in err.getvalue() for name in _names(path)), err.getvalue()
