"""BENCHMARK.json against the benchmark's contract and its own code."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def doc():
    text = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    assert len(text.encode()) <= 64 * 1024
    return json.loads(text)


@pytest.fixture(scope="module")
def run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def valid_name(name: str) -> bool:
    return bool(NAME.match(name))


@pytest.mark.parametrize(
    "name, ok",
    [
        ("setup_s", True),
        ("codec.encode.self_us", True),
        ("requester.phase.wait_initial_responses_ms", True),
        ("9lives", True),
        ("_hidden", False),
        (".dot", False),
        ("has space", False),
        ("slash/name", False),
        ("x" * 64, True),
        ("x" * 65, False),
        ("", False),
    ],
)
def test_metric_name_rule(name, ok):
    assert valid_name(name) is ok


def test_top_level_keys(doc):
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def test_command_and_paths(doc):
    paths = doc["paths"]
    assert 1 <= len(paths) <= 16
    for path in paths:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    command = doc["command"]
    assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
    for part in command[1:]:
        assert not part.startswith("/") and ".." not in part.split("/")
        if "/" in part:
            assert any(part == p or part.startswith(p.rstrip("/") + "/") for p in paths)
            assert (ROOT / part).is_file()


def test_run_seconds(doc):
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60


def test_names_units_and_uniqueness(doc):
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"]] + [m["name"] for m in doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_workloads_match_the_code(doc):
    assert 2 <= len(doc["workloads"]) <= 8
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_the_code(doc, run_module):
    metrics = doc["end_to_end"]
    assert 1 <= len(metrics) <= 16
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    by_name = {m["name"]: m for m in metrics}
    assert by_name["setup_s"]["unit"] == "s" and by_name["setup_s"]["better"] == "lower"
    assert by_name["setup_s"]["bound"] == max(m["bound"] for m in metrics)
    assert {k: m["unit"] for k, m in by_name.items()} == run_module.END_TO_END


def test_per_layer_metrics_match_the_code(doc):
    metrics = doc["per_layer"]
    assert 1 <= len(metrics) <= 128
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better"}
    assert {m["name"]: m["unit"] for m in metrics} == layers.PER_LAYER


def test_every_per_layer_metric_is_computed():
    empty = layers.compute(
        {},
        {},
        completed=0,
        attempted=1,
        failed=1,
        latencies_ms=[1.0] * 1000,
        lateness_ms=[],
        phases_ms=[],
        transmissions=[],
        pending_peak=0,
        attributed_ns=0,
        timed_cpu_s=0.0,
        overhead_ratio=0.0,
        live=False,
    )
    assert set(empty) == set(layers.PER_LAYER)
    assert empty["failed_frac"] == 1.0
