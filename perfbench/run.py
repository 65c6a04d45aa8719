#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flood-spec --seed 1 --seconds 20 --trace 0

The run repeats units of set-up + execution until ``--seconds`` have
passed (at least three untraced units), checks every answer outside the timed
regions, and prints every metric by name with its unit.  The set-up and
execution times behind the end-to-end metrics are scaled to a reference
machine speed by the calibration loop timed on either side of them.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` pairs every untraced unit with a traced re-run of the same
inputs (a ``RingTracer`` inside the program, spans recorded by the
benchmark around each layer call) and reports the per-layer metrics.
Either way the run's record, and in a traced run its spans, is written
to ``.perfbench_out/`` at the root of the checkout.

Exit status: 0 on success, 1 when the correctness gate trips (the
result line then says ``"correct": false``), 2 on bad arguments or when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Units per run at least: three set-ups give ``setup_s`` a median.  A
#: traced run reports no end-to-end metric, so one unit is enough there.
MIN_UNITS = {False: 3, True: 1}


def _load_program() -> None:
    """Put the checkout's ``src`` and the benchmark on the import path."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources are missing "
              f"(no src/repro under {ROOT})", file=sys.stderr)
        sys.exit(2)
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def declared_metrics() -> Dict[str, Dict[str, Dict[str, Any]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_units(workload, seed: int, seconds: float, trace: bool,
              min_units: Optional[int] = None,
              max_units: Optional[int] = None) -> Dict[str, Any]:
    """Repeat units until ``seconds`` have passed; returns the raw record."""
    from perfbench.gate import GateError
    from perfbench.machine import calibration_sample
    from perfbench.spans import NullRecorder, SpanRecorder, instrument
    from perfbench.workloads import unit_seed

    if min_units is None:
        min_units = MIN_UNITS[trace]
    null = NullRecorder()
    recorder = SpanRecorder() if trace else None
    units: List[Dict[str, Any]] = []
    origin = time.perf_counter()
    while True:
        index = len(units)
        useed = unit_seed(seed, index)
        # The calibration loop is timed on either side of each timed
        # region, so the region can be scaled to the reference speed.
        gc.collect()
        cal_a = calibration_sample()
        t0 = time.perf_counter()
        inputs = workload.setup(useed, null)
        t1 = time.perf_counter()
        gc.collect()
        cal_b = calibration_sample()
        t2 = time.perf_counter()
        answer = workload.execute(inputs, null)
        t3 = time.perf_counter()
        cal_c = calibration_sample()
        workload.check(inputs, answer)
        t4 = time.perf_counter()
        outcome = workload.outcome(inputs, answer)
        unit = {"index": index, "seed": useed, "setup_s": t1 - t0,
                "exec_s": t3 - t2, "check_s": t4 - t3,
                "setup_cal_s": (cal_a + cal_b) / 2,
                "exec_cal_s": (cal_b + cal_c) / 2, "outcome": outcome}
        del inputs, answer
        if recorder is not None:
            gc.collect()
            with recorder.span("unit", query=index):
                with instrument(recorder):
                    with recorder.span("setup"):
                        inputs = workload.setup(useed, recorder)
                    # As in the untraced pass, execution starts with no
                    # set-up garbage left to collect.
                    gc.collect()
                    with recorder.span("execute") as span:
                        answer = workload.execute(inputs, recorder)
            traced = workload.outcome(inputs, answer)
            if traced.digest != outcome.digest:
                raise GateError(
                    f"unit {index}: traced answers differ from untraced")
            unit["traced_exec_s"] = span["end"] - span["start"]
            unit["traced"] = traced
            del inputs, answer
        units.append(unit)
        if max_units is not None and len(units) >= max_units:
            break
        if (len(units) >= min_units
                and time.perf_counter() - origin >= seconds):
            break
    return {"units": units, "recorder": recorder, "origin": origin}


def end_to_end_metrics(workload, record: Dict[str, Any]) -> Dict[str, float]:
    from perfbench.machine import (REFERENCE_CALIBRATION_S,
                                   children_peak_rss_mb, parent_peak_rss_mb)

    units = record["units"]
    answered = sum(u["outcome"].answered for u in units)
    submitted = sum(u["outcome"].submitted for u in units)

    def at_reference(seconds: float, cal_s: float) -> float:
        # A shared machine's speed drifts by up to 1.7x within minutes;
        # the calibration loop timed around the region slows with it.
        return seconds * REFERENCE_CALIBRATION_S / cal_s

    # Medians over units, so one unit slowed by a noisy neighbour on a
    # shared machine does not move the run's figure.
    return {
        "setup_s": statistics.median(
            at_reference(u["setup_s"], u["setup_cal_s"]) for u in units),
        "answered_qps": statistics.median(
            u["outcome"].answered
            / at_reference(u["exec_s"], u["exec_cal_s"]) for u in units),
        "peak_rss_mb": (parent_peak_rss_mb() + workload.forked_workers
                        * children_peak_rss_mb()),
        "answered_frac": _ratio(answered, submitted),
    }


def _sharded_metrics(blocks: List[Dict[str, Any]],
                     run_spans: List[float], n: int) -> Dict[str, float]:
    """Per-unit means of the sharded lane's own per-shard accounting."""
    out = {"sharded.run_s": sum(run_spans) / n}
    serial = compute_max = compute_min = barrier_max = exchange_max = 0.0
    barrier_all = loop_all = 0.0
    cross_records = cross_bytes = epochs = 0
    for block, run_s in zip(blocks, run_spans):
        shards = sorted({w["shard"] for w in block["workers"]})
        compute = {s: 0.0 for s in shards}
        barrier = dict(compute)
        exchange = dict(compute)
        for epoch in block["timeline"]:
            compute[epoch["shard"]] += epoch["compute_s"]
            barrier[epoch["shard"]] += epoch["barrier_wait_s"]
            # An epoch's exchange wall includes its barrier wait.
            exchange[epoch["shard"]] += (epoch["exchange_s"]
                                         - epoch["barrier_wait_s"])
        loop = {s: compute[s] + barrier[s] + exchange[s] for s in shards}
        serial += run_s - max(loop.values())
        compute_max += max(compute.values())
        compute_min += min(compute.values())
        barrier_max += max(barrier.values())
        exchange_max += max(exchange.values())
        barrier_all += sum(barrier.values())
        loop_all += sum(loop.values())
        cross_records += sum(w["cross_records_in"] for w in block["workers"])
        cross_bytes += sum(w["cross_bytes_in"] for w in block["workers"])
        epochs += max(w["epochs"] for w in block["workers"])
    out.update({
        "sharded.serial_s": serial / n,
        "sharded.compute_s.max": compute_max / n,
        "sharded.compute_skew": _ratio(compute_max, compute_min),
        "sharded.barrier_wait_s.max": barrier_max / n,
        "sharded.barrier_frac": _ratio(barrier_all, loop_all),
        "sharded.exchange_s.max": exchange_max / n,
        "sharded.cross_records": cross_records / n,
        "sharded.cross_bytes": cross_bytes / n,
        "sharded.epochs": epochs / n,
    })
    return out


def per_layer_metrics(workload, record: Dict[str, Any],
                      seed: int) -> Dict[str, float]:
    from perfbench.machine import children_peak_rss_mb
    from perfbench.workloads import combine_ns, delay_sample_ns

    units = record["units"]
    rec = record["recorder"]
    n = len(units)
    traced = [u["traced"] for u in units]
    submitted = sum(t.submitted for t in traced)

    def per_unit(name: str) -> float:
        return sum(t.counters.get(name, 0) for t in traced) / n

    def span_s(name: str) -> float:
        return rec.totals(name) / n

    gap, execute_s = execution_gap(rec)
    drain_runs = rec.count("simulation.run")
    metrics = {
        "topology.gen_s": span_s("topology.gen"),
        "topology.hosts": per_unit("topology.hosts"),
        "topology.edges": per_unit("topology.edges"),
        "protocols.d_hat_s": span_s("protocols.d_hat"),
        "simulation.network_build_s": span_s("simulation.network_build"),
        "protocols.prepare_s": span_s("protocols.prepare"),
        "protocols.prepare_calls": rec.count("protocols.prepare") / n,
        "simulation.run_s": span_s("simulation.run"),
        "simulation.events": (sum(per_unit(f"trace.{kind}") for kind in
                                  ("deliver", "timer", "drop"))
                              if drain_runs else 0.0),
        "simulation.msgs": per_unit("simulation.msgs"),
        "simulation.msgs_per_s": _ratio(per_unit("simulation.msgs"),
                                        span_s("simulation.run")),
        "simulation.dropped": per_unit("simulation.dropped"),
        "simulation.delay_sample_ns": delay_sample_ns(workload.delay, seed),
        "sketches.combine_ns": combine_ns(workload.repetitions, seed),
        "service.submit_s": span_s("service.submit"),
        "service.run_s": span_s("service.run"),
        "service.events": per_unit("service.events"),
        "service.msgs": per_unit("service.msgs"),
        "service.msgs_per_s": _ratio(per_unit("service.msgs"),
                                     span_s("service.run")),
        "service.msgs_per_query": _ratio(
            sum(t.counters.get("service.msgs", 0) for t in traced),
            submitted),
        "service.peak_active_sessions": max(
            t.counters.get("service.peak_active_sessions", 0)
            for t in traced),
        "service.late": per_unit("service.late"),
        "service.dropped": per_unit("service.dropped"),
        "service.cache_hits": per_unit("service.cache_hits"),
        "service.cache_hit_rate": _ratio(
            sum(t.counters.get("service.cache_hits", 0) for t in traced),
            submitted),
        "service.deferrals": per_unit("service.deferrals"),
        "service.shed": per_unit("service.shed"),
        "workloads.mix_gen_s": span_s("workloads.mix_gen"),
        "semantics.check_s": sum(u["check_s"] for u in units) / n,
        "obs.trace_overhead": _ratio(
            sum(u["traced_exec_s"] for u in units),
            sum(u["exec_s"] for u in units)),
        "obs.unattributed_frac": _ratio(gap, execute_s),
        **{f"trace.{kind}": per_unit(f"trace.{kind}")
           for kind in ("send", "deliver", "timer", "drop")},
    }
    blocks = [b for t in traced for b in t.sharded]
    if blocks:
        sharded_run = [r["end"] - r["start"] for r in rec.spans
                       if r["name"] == "sharded.run"]
        metrics.update(_sharded_metrics(blocks, sharded_run, n))
        metrics["sharded.worker_rss_mb"] = children_peak_rss_mb()
    else:
        metrics.update({name: 0.0 for name in declared_metrics()["per_layer"]
                        if name.startswith("sharded.")})
    return metrics


#: Spans that only dispatch to layer calls: their self time is the part
#: of the execution wall no layer accounts for.  ``service.run`` is not
#: one of them -- its self time is the service layer's mux engine and
#: demux, reported as ``service.run_s``.
UMBRELLA_SPANS = ("execute", "run_protocol")


def execution_gap(rec) -> Tuple[float, float]:
    """(self time of the umbrella spans, execution wall).

    The layer spans' self times plus this gap sum to the execution wall
    exactly, so the gap is the part of it no layer accounts for.
    """
    gap = sum(own for r, own in zip(rec.spans, rec.self_times())
              if r["name"] in UMBRELLA_SPANS)
    return gap, rec.totals("execute")


def accounting_note(rec) -> str:
    """Phase criterion: layer self times cover 95% of the execution wall."""
    gap, execute_s = execution_gap(rec)
    share = _ratio(gap, execute_s)
    if share <= 0.05:
        return (f"accounting: layer self times cover {1 - share:.1%} of "
                f"the {execute_s:.3f}s execution wall")
    return (f"accounting GAP: {share:.1%} of the {execute_s:.3f}s execution "
            f"wall is outside every layer span (self time of "
            f"{' and '.join(UMBRELLA_SPANS)})")


def format_metrics(metrics: Dict[str, Dict[str, Any]]) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}"
                     for name, m in metrics.items())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from perfbench.gate import GateError
    from perfbench.machine import fingerprint
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]

    machine = fingerprint(ROOT, workload.name, args.seed)
    print("perfbench fingerprint " + json.dumps(machine, sort_keys=True))
    try:
        record = run_units(workload, args.seed, args.seconds, trace)
    except GateError as exc:
        print(f"perfbench: correctness gate tripped: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    raw = (per_layer_metrics(workload, record, args.seed) if trace
           else end_to_end_metrics(workload, record))
    if set(raw) != set(declared):
        raise RuntimeError(
            f"emitted metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(raw))}, undeclared "
            f"{sorted(set(raw) - set(declared))}")
    metrics = {name: {"value": raw[name], "unit": declared[name]["unit"]}
               for name in declared}
    units = record["units"]
    attempted = sum(u["outcome"].submitted for u in units)
    failed = sum(u["outcome"].failed for u in units)

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} "
          f"units={len(units)} attempted={attempted} failed={failed}")
    print(format_metrics(metrics))
    artifact = {
        "fingerprint": machine,
        "metrics": metrics,
        "units": [{"index": u["index"], "seed": u["seed"],
                   "setup_s": u["setup_s"], "exec_s": u["exec_s"],
                   "check_s": u["check_s"],
                   "setup_cal_s": u["setup_cal_s"],
                   "exec_cal_s": u["exec_cal_s"],
                   "traced_exec_s": u.get("traced_exec_s"),
                   "digest": u["outcome"].digest,
                   "counters": u["outcome"].counters} for u in units],
    }
    if trace:
        rec = record["recorder"]
        print(accounting_note(rec))
        print("  self time by span: " + ", ".join(
            f"{name}={own:.3f}s" for name, own in sorted(
                rec.self_by_name().items(), key=lambda kv: -kv[1])))
        artifact["spans"] = rec.export(record["origin"])
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / (f"{workload.name}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(artifact, default=str))
    print(f"perfbench record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
