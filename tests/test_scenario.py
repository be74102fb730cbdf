import json
import re
from pathlib import Path

import pytest

from colosim.comm import Architecture, comm_time
from colosim.errors import ConfigError
from colosim.scenario import (MAX_JOB_ITERATIONS, RETIRED_KEYS, load_config,
                               parse_scenario, scaled_int)
from colosim.scheduler import Policy
from colosim.workload import comp_time

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

    def test_golden_units_land_on_integers(self):
        scenario = load_config(SCENARIO_DIR / "golden_2jobs.json")
        job = scenario.jobs[0]
        assert (job.forward_time, job.backward_time) == (1, 1)
        assert job.grad_bytes == 1
        sync = comm_time(job.grad_bytes, scenario.cluster)
        assert sync == 1  # comp 2ns, comm 1ns: the hand-enumerated setup

    def test_speedup_band_ratio_is_calibrated(self):
        from colosim.comm import comm_comp_ratio
        from fractions import Fraction
        scenario = load_config(SCENARIO_DIR / "speedup_band.json")
        assert comm_comp_ratio(scenario.jobs[0], scenario.cluster) == Fraction(3, 20)


class TestUnitConversion:
    def test_milliseconds_to_nanoseconds(self):
        assert scaled_int(1.5, 10**6, 1, "f") == 1_500_000

    def test_tiny_exact_values(self):
        assert scaled_int(1e-6, 10**6, 1, "f") == 1

    def test_gbps_to_bytes_per_second(self):
        assert scaled_int(10, 10**9, 8, "bw") == 1_250_000_000
        assert scaled_int(0.1, 10**9, 8, "bw") == 12_500_000

    def test_sub_unit_value_rejected(self):
        with pytest.raises(ConfigError, match="whole internal unit"):
            scaled_int(5e-7, 10**6, 1, "f")

    def test_overflow_rejected(self):
        with pytest.raises(ConfigError, match="overflows"):
            scaled_int(1e13, 10**6, 1, "f")

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="expected a number"):
            scaled_int("fast", 10**6, 1, "f")
        with pytest.raises(ConfigError):
            scaled_int(True, 10**6, 1, "f")

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            scaled_int(float("inf"), 10**6, 1, "f")


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
        with pytest.raises(ConfigError, match="unique"):
            load_config(write_config(tmp_path, doc))

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

    def test_iterations_override_layering(self):
        scenario = parse_scenario(base_doc(iterations_override=50))
        assert scenario.plan().jobs[0].iterations == 50
        assert scenario.plan(iterations=7).jobs[0].iterations == 7
        assert parse_scenario(base_doc()).plan().jobs[0].iterations == 3

    def test_run_size_is_bounded(self):
        # plan() only builds job profiles, so neither case allocates a trace
        doc = base_doc()
        doc["jobs"][0]["iterations"] = 10**12
        scenario = parse_scenario(doc)
        with pytest.raises(ConfigError, match=f"iterations.*{MAX_JOB_ITERATIONS}"):
            scenario.plan()
        at_limit = parse_scenario(base_doc(iterations_override=MAX_JOB_ITERATIONS // 2))
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
