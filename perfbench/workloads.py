"""The benchmark's workloads: inputs from a seed, timed execution, checks.

A run repeats *units*.  A unit builds its inputs from a unit seed
derived from the run seed (the set-up, timed as ``setup_s``), executes
its queries (timed as the execution wall), and checks every answer
outside both timed regions.  Each unit's inputs are a pure function of
``(run seed, unit index)``.

A service workload offers one fixed query mix (its ``mix_seed``): the
seed draws the network the mix runs on -- topology, attribute values,
departures -- and the service seed behind every session's streams.  A
mix drawn from the run seed would make throughput swing with the share
of expensive floods the draw happened to contain; with the mix fixed,
``answered_qps`` is throughput at one stated offered mix.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import RingTracer
from repro.orchestration.runners import TOPOLOGY_BUILDERS
from repro.protocols.base import protocol_from_spec, resolve_d_hat, run_protocol
from repro.service import QueryService
from repro.service.admission import AdmissionConfig
from repro.simulation.churn import uniform_failure_schedule
from repro.simulation.delay import delay_model_from_spec
from repro.sketches.combiners import FMCountCombiner
from repro.workloads.query_mix import (QueryMixConfig, duplicate_heavy_mix,
                                       generate_query_mix)

from perfbench import gate

TRACE_KINDS = ("send", "deliver", "timer", "drop")
#: Every workload runs on a gnutella topology with streaming statistics.
TOPOLOGY = "gnutella"
STATS = "streaming"
#: The flood workloads: WILDFIRE count then min from host 0, fixed delay,
#: 5% of hosts departing over the query window.
FLOOD_KINDS = ("count", "min")
FLOOD_DEPARTURE_FRAC = 0.05
#: The one offered mix of a service workload, and how many answered
#: sessions per unit the gate replays solo.
MIX_SEED = 0
REPLAY_SAMPLE = 4


def unit_seed(seed: int, index: int) -> int:
    return random.Random(f"perfbench:{seed}:{index}").getrandbits(32)


def attribute_values(num_hosts: int, seed: int) -> List[float]:
    rng = random.Random(seed)
    return [rng.random() * 100.0 for _ in range(num_hosts)]


@dataclass
class UnitOutcome:
    """What one executed unit hands to the runner."""

    submitted: int
    answered: int
    failed: int
    digest: str
    counters: Dict[str, float] = field(default_factory=dict)
    sharded: List[Dict[str, Any]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Flood workloads: one WILDFIRE count and one min from host 0
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FloodWorkload:
    name: str
    why: str
    hosts: int
    lane: str
    shards: int = 1

    #: FM repetitions of the count flood -- enough for the gate's FM band
    #: to stay below 1 -- and the (fixed) delay model.
    repetitions = 64
    delay = None

    @property
    def forked_workers(self) -> int:
        return self.shards if self.lane == "sharded" and self.shards > 1 else 0

    def setup(self, seed: int, rec) -> Dict[str, Any]:
        with rec.span("topology.gen"):
            topo = TOPOLOGY_BUILDERS[TOPOLOGY](self.hosts, seed)
        with rec.span("workloads.values"):
            values = attribute_values(topo.num_hosts, seed)
        with rec.span("protocols.d_hat"):
            d_hat = resolve_d_hat(topo, None, seed=seed)
        protocol = protocol_from_spec("wildfire")
        termination = protocol.termination_time(d_hat, 1.0)
        with rec.span("workloads.churn"):
            # Departures never take the querying host (host 0).
            churn = uniform_failure_schedule(
                range(1, topo.num_hosts),
                int(topo.num_hosts * FLOOD_DEPARTURE_FRAC),
                0.0, termination, seed=seed)
        return {"seed": seed, "topology": topo, "values": values,
                "d_hat": d_hat, "churn": churn, "protocol": protocol}

    def execute(self, inputs: Dict[str, Any], rec):
        runs = []
        for kind in FLOOD_KINDS:
            tracer = RingTracer() if rec.traced else None
            with rec.span("run_protocol", query=kind):
                result = run_protocol(
                    inputs["protocol"], inputs["topology"], inputs["values"],
                    kind, seed=inputs["seed"], d_hat=inputs["d_hat"],
                    churn=inputs["churn"], repetitions=self.repetitions,
                    stats=STATS, tracer=tracer,
                    lane=self.lane, shards=self.shards)
            runs.append((kind, result, tracer))
        return runs

    def check(self, inputs: Dict[str, Any], runs) -> None:
        for kind, result, _ in runs:
            gate.check_flood(
                inputs["topology"], inputs["values"], inputs["churn"], kind,
                result.value, result.termination_time, self.repetitions,
                fallback_reason=result.fallback_reason)

    def outcome(self, inputs: Dict[str, Any], runs) -> UnitOutcome:
        digest = hashlib.sha256()
        counters = {"simulation.msgs": 0, "simulation.dropped": 0,
                    **{f"trace.{kind}": 0 for kind in TRACE_KINDS}}
        sharded = []
        answered = 0
        for kind, result, tracer in runs:
            digest.update(repr((kind, result.value)).encode())
            digest.update(result.costs.fingerprint().encode())
            answered += result.value is not None
            if self.lane == "python":
                # The python drain's own counts; the sharded lane's are
                # reported by its ``sharded.*`` block instead.
                counters["simulation.msgs"] += result.costs.messages_sent
                counters["simulation.dropped"] += result.costs.dropped_messages
            if tracer is not None:
                for kind_name in TRACE_KINDS:
                    counters[f"trace.{kind_name}"] += tracer.counts.get(
                        kind_name, 0)
            if "sharded" in result.extra:
                sharded.append(result.extra["sharded"])
        topo = inputs["topology"]
        counters["topology.hosts"] = topo.num_hosts
        counters["topology.edges"] = topo.num_edges
        return UnitOutcome(submitted=len(runs), answered=answered,
                           failed=len(runs) - answered,
                           digest=digest.hexdigest(), counters=counters,
                           sharded=sharded)


# ----------------------------------------------------------------------
# Service workloads: an open-loop Poisson query mix over QueryService
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    why: str
    hosts: int
    mix: QueryMixConfig
    delay: Optional[str] = None
    departure_frac: float = 0.0
    admission: Optional[AdmissionConfig] = None

    forked_workers = 0
    #: FM repetitions of the service's count queries (``submit``'s default).
    repetitions = 8

    def setup(self, seed: int, rec) -> Dict[str, Any]:
        with rec.span("topology.gen"):
            topo = TOPOLOGY_BUILDERS[TOPOLOGY](self.hosts, seed)
        with rec.span("workloads.values"):
            values = attribute_values(topo.num_hosts, seed)
        with rec.span("workloads.mix_gen"):
            submissions = generate_query_mix(topo.num_hosts, self.mix,
                                             seed=MIX_SEED)
        with rec.span("workloads.churn"):
            # Departures spread over the arrival window and never take a
            # querying host, so no query fails because its own host left.
            querying = {s.querying_host for s in submissions}
            window = submissions[-1].time
            churn = uniform_failure_schedule(
                [h for h in range(topo.num_hosts) if h not in querying],
                int(topo.num_hosts * self.departure_frac),
                window * 0.05, window * 0.95, seed=seed)
        with rec.span("protocols.d_hat"):
            resolve_d_hat(topo, None, seed=seed)
        with rec.span("service.init"):
            service = QueryService(
                topo, values, churn=churn, seed=seed, stats=STATS,
                delay=self.delay, tracer=RingTracer() if rec.traced else None,
                share_floods=True, admission=self.admission)
        for qid, sub in enumerate(submissions, start=1):
            with rec.span("service.submit", query=qid):
                service.submit(sub.protocol, sub.aggregate,
                               querying_host=sub.querying_host, at=sub.time,
                               stream=sub.stream, query_id=qid)
        return {"seed": seed, "topology": topo, "values": values,
                "churn": churn, "service": service,
                "submitted": len(submissions)}

    def execute(self, inputs: Dict[str, Any], rec):
        with rec.span("service.run"):
            return inputs["service"].run()

    def check(self, inputs: Dict[str, Any], report) -> None:
        gate.check_service_accounting(report.outcomes, inputs["submitted"])
        gate.check_service_replay(
            report.outcomes, inputs["topology"], inputs["values"],
            inputs["churn"], inputs["service"].d_hat, self.delay,
            STATS, REPLAY_SAMPLE, inputs["seed"])

    def outcome(self, inputs: Dict[str, Any], report) -> UnitOutcome:
        summary = report.summary()
        digest = hashlib.sha256()
        for o in report.outcomes:
            digest.update(repr((o.query_id, o.status.value, o.value)).encode())
            if o.costs is not None:
                digest.update(o.costs.fingerprint().encode())
        counters = {
            "service.events": summary["events_processed"],
            "service.msgs": summary["messages_sent"],
            "service.peak_active_sessions": summary["peak_active_sessions"],
            "service.late": summary["late_messages"],
            "service.dropped": summary["dropped_messages"],
            "service.cache_hits": summary["cache_hits"],
            "service.deferrals": summary["deferrals"],
            "service.shed": summary["shed"],
        }
        tracer = inputs["service"].engine.tracer
        for kind in TRACE_KINDS:
            counters[f"trace.{kind}"] = (tracer.counts.get(kind, 0)
                                         if isinstance(tracer, RingTracer)
                                         else 0)
        topo = inputs["topology"]
        counters["topology.hosts"] = topo.num_hosts
        counters["topology.edges"] = topo.num_edges
        submitted = inputs["submitted"]
        return UnitOutcome(
            submitted=submitted, answered=summary["answered"],
            failed=summary["failed"] + summary["shed"],
            digest=digest.hexdigest(), counters=counters)


# ----------------------------------------------------------------------
# Layer micro-measurements taken once per traced run
# ----------------------------------------------------------------------
def delay_sample_ns(delay: Optional[str], seed: int, calls: int = 200_000) -> float:
    """Mean cost of one ``DelayModel.sample`` call; 0 for fixed delay."""
    model = delay_model_from_spec(delay, 1.0, seed=seed)
    if model is None:
        return 0.0
    sample = model.sample
    start = time.perf_counter()
    for i in range(calls):
        sample(i & 1023, (i * 7) & 1023, 0.0)
    return (time.perf_counter() - start) / calls * 1e9


def combine_ns(repetitions: int, seed: int, calls: int = 200_000) -> float:
    """Mean cost of one FM ``Combiner.combine`` at ``repetitions``."""
    combiner = FMCountCombiner(repetitions=repetitions)
    rng = random.Random(seed)
    sketches = [combiner.initial(1.0, rng) for _ in range(64)]
    combine = combiner.combine
    start = time.perf_counter()
    for i in range(calls):
        combine(sketches[i & 63], sketches[(i * 5 + 1) & 63])
    return (time.perf_counter() - start) / calls * 1e9


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (
        FloodWorkload(
            name="flood-spec",
            why="the paper's experiment on the python spec drain: drain "
                "loop and FM combine do the work, no sharded or service "
                "code runs",
            hosts=8000, lane="python"),
        FloodWorkload(
            name="flood-sharded",
            why="largest graph on the sharded lane (K=2): pre-pass, "
                "exchange and barrier do the work, python drain idle, "
                "heaviest setup, worker memory counted",
            hosts=20000, lane="sharded", shards=2),
        ServiceWorkload(
            name="service-mix",
            why="default WILDFIRE/tree/DAG mix, uniform delay, departures: "
                "demux, per-session host builds and delay sampling work; "
                "stochastic delay makes floods miss the cache",
            hosts=400,
            mix=QueryMixConfig(qps=4.0, duration=40.0,
                               continuous_fraction=0.15, max_queries=80),
            delay="uniform", departure_frac=0.05),
        ServiceWorkload(
            name="service-hot",
            why="duplicate-heavy WILDFIRE mix with admission defer: the "
                "shared-flood cache hit path and the admission path work",
            hosts=600,
            mix=duplicate_heavy_mix(qps=16.0, duration=25.0,
                                    max_queries=250),
            admission=AdmissionConfig(policy="defer",
                                      max_active_sessions=150,
                                      defer_retry=1.0, defer_deadline=30.0)),
    )
}
