"""Tests of the benchmark itself, on shrunken copies of its workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import gate
from perfbench.run import (ROOT, declared_metrics, end_to_end_metrics,
                           execution_gap, per_layer_metrics, run_units)
from perfbench.spans import NullRecorder, SpanRecorder
from perfbench.machine import REFERENCE_CALIBRATION_S
from perfbench.workloads import (MIX_SEED, STATS, WORKLOADS, FloodWorkload,
                                 UnitOutcome)
from repro.workloads.query_mix import generate_query_mix

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def small(workload):
    """The same workload shape at a size a unit test can afford."""
    if isinstance(workload, FloodWorkload):
        return dataclasses.replace(workload, hosts=300)
    return dataclasses.replace(
        workload, hosts=150,
        mix=dataclasses.replace(workload.mix, max_queries=24))


def one_unit(workload, seed, trace=False, units=1):
    return run_units(small(workload), seed, seconds=0.0, trace=trace,
                     min_units=units, max_units=units)


def digests(record):
    return [u["outcome"].digest for u in record["units"]]


def test_metric_and_workload_names_use_allowed_characters():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert names and all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", u) for u in units)


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("higher", "lower")


def test_each_workload_carries_its_why():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        why = entry["why"]
        assert why and "\n" not in why and len(why) <= 200
        assert why == WORKLOADS[entry["name"]].why


def test_service_mixes_fill_their_cap():
    """The arrival window is long enough that every unit offers the same
    number of queries."""
    for workload in WORKLOADS.values():
        if not isinstance(workload, FloodWorkload):
            submissions = generate_query_mix(
                workload.hosts, workload.mix, seed=MIX_SEED)
            assert len(submissions) == workload.mix.max_queries


def test_every_metric_is_documented():
    assert set(LAYERS["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(LAYERS["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    known = set(WORKLOADS)
    for entry in LAYERS["per_layer"].values():
        assert set(entry["moves"]) <= set(LAYERS["end_to_end"])
        assert set(entry["mostly_on"] + entry["barely_on"]) <= known


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted(name):
    workload = small(WORKLOADS[name])
    record = run_units(workload, 3, seconds=0.0, trace=True, min_units=1,
                       max_units=1)
    declared = declared_metrics()
    emitted = {
        "end_to_end": end_to_end_metrics(workload, record),
        "per_layer": per_layer_metrics(workload, record, 3),
    }
    for group in ("end_to_end", "per_layer"):
        assert set(emitted[group]) == set(declared[group])
        for metric_name, value in emitted[group].items():
            assert isinstance(value, (int, float)), metric_name
            assert math.isfinite(value), metric_name
            assert declared[group][metric_name]["unit"]
    assert emitted["end_to_end"]["answered_frac"] == 1.0
    assert emitted["end_to_end"]["answered_qps"] > 0


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    """A unit timed while the calibration loop ran at half the reference
    speed reports half its wall time."""
    slow = 2 * REFERENCE_CALIBRATION_S
    units = [{"setup_s": 0.4, "exec_s": 4.0, "setup_cal_s": slow,
              "exec_cal_s": slow,
              "outcome": UnitOutcome(submitted=2, answered=2, failed=0,
                                     digest="")}] * 3
    metrics = end_to_end_metrics(WORKLOADS["flood-spec"], {"units": units})
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["answered_qps"] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["flood-spec", "service-mix"])
def test_same_seed_same_answers_other_seed_other_inputs(name):
    first = one_unit(WORKLOADS[name], 11, units=2)
    again = one_unit(WORKLOADS[name], 11, units=2)
    other = one_unit(WORKLOADS[name], 12, units=2)
    assert digests(first) == digests(again)
    assert [u["seed"] for u in first["units"]] == [
        u["seed"] for u in again["units"]]
    assert digests(first) != digests(other)
    assert not ({u["seed"] for u in first["units"]}
                & {u["seed"] for u in other["units"]})


def test_traced_run_reproduces_untraced_answers_and_records_spans():
    record = one_unit(WORKLOADS["flood-sharded"], 5, trace=True)
    unit = record["units"][0]
    assert unit["traced"].digest == unit["outcome"].digest
    names = {span["name"] for span in record["recorder"].spans}
    assert {"topology.gen", "protocols.d_hat", "run_protocol",
            "protocols.prepare", "simulation.network_build",
            "sharded.run"} <= names
    assert "simulation.run" not in names, "the python drain must not run"
    assert unit["traced"].sharded, "the sharded lane must have engaged"
    metrics = per_layer_metrics(small(WORKLOADS["flood-sharded"]), record, 5)
    assert metrics["sharded.run_s"] > 0
    for name in ("simulation.run_s", "simulation.events", "simulation.msgs",
                 "simulation.msgs_per_s", "simulation.dropped"):
        assert metrics[name] == 0, name


def test_execution_gap_is_the_self_time_of_umbrella_spans():
    rec = SpanRecorder()
    with rec.span("execute"):
        with rec.span("run_protocol"):
            with rec.span("simulation.run"):
                sum(range(1000))
            sum(range(1000))
    gap, execute_s = execution_gap(rec)
    own = rec.self_times()
    assert gap == pytest.approx(own[0] + own[1])
    assert 0 < gap < execute_s


def test_self_times_sum_to_the_root_span():
    rec = SpanRecorder()
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("b"):
                sum(range(1000))
        with rec.span("c"):
            pass
    own = rec.self_times()
    root = rec.spans[0]
    assert sum(own) == pytest.approx(root["end"] - root["start"])
    assert all(value >= 0 for value in own)


def test_flood_gate_trips_on_tampered_answers():
    workload = small(WORKLOADS["flood-spec"])
    inputs = workload.setup(21, NullRecorder())
    runs = workload.execute(inputs, NullRecorder())
    workload.check(inputs, runs)
    for kind, result, _ in runs:
        tampered = (result.value * 10.0 if kind == "count"
                    else result.value - 1000.0)
        with pytest.raises(gate.GateError):
            gate.check_flood(inputs["topology"], inputs["values"],
                             inputs["churn"], kind, tampered,
                             result.termination_time, workload.repetitions)
    kind, result, _ = runs[0]
    with pytest.raises(gate.GateError):
        gate.check_flood(inputs["topology"], inputs["values"],
                         inputs["churn"], kind, result.value,
                         result.termination_time, workload.repetitions,
                         fallback_reason="lane declined")


def test_service_gate_trips_on_tampered_answers():
    workload = small(WORKLOADS["service-mix"])
    inputs = workload.setup(21, NullRecorder())
    report = workload.execute(inputs, NullRecorder())
    workload.check(inputs, report)
    outcomes = list(report.outcomes)
    done = [i for i, o in enumerate(outcomes) if o.value is not None]
    index = done[0]
    outcomes[index] = dataclasses.replace(
        outcomes[index], value=outcomes[index].value + 1.0)
    service = inputs["service"]
    with pytest.raises(gate.GateError):
        gate.check_service_replay(
            [outcomes[index]], inputs["topology"], inputs["values"],
            inputs["churn"], service.d_hat, workload.delay, STATS,
            sample_size=1, seed=0)
    with pytest.raises(gate.GateError):
        gate.check_service_accounting(outcomes[1:], inputs["submitted"])


def test_fm_band_is_below_one_at_the_flood_repetitions():
    eps = gate.fm_epsilon(WORKLOADS["flood-spec"].repetitions)
    assert 0 < eps < 1
    with pytest.raises(ValueError):
        gate.fm_epsilon(8)


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flood-spec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
