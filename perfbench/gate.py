"""The correctness gate: every answer a run produces is checked.

The gate runs outside the timed region.  Any violation raises
:class:`GateError`, which makes the benchmark exit non-zero.

* A flood ``min`` answer must be Single-Site Valid against the bounds of
  its own run (``compute_bounds`` with ``horizon=termination_time``).
* A flood ``count`` answer must be Approximately Single-Site Valid at the
  FM error band of the run's repetitions.
* A flood run that asked for an opt-in lane must not have fallen back.
* A service run must account for every submission
  (answered + failed + shed == submitted, nothing left deferred).
* A seeded sample of answered service queries, replayed solo through
  ``run_protocol`` with the session's seed, must reproduce the service's
  value and cost fingerprint bit for bit.
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Sequence

from repro.protocols.base import protocol_from_spec, run_protocol
from repro.semantics.validity import (check_approximate_single_site_validity,
                                      check_single_site_validity,
                                      compute_bounds)
from repro.service.session import QueryStatus
from repro.simulation.churn import ChurnSchedule
from repro.topology.base import Topology

#: Standard deviation, in bits, of one FM vector's lowest-zero position.
FM_SIGMA_BITS = 1.12


class GateError(AssertionError):
    """An answer or an accounting identity failed its check."""


def fm_epsilon(repetitions: int) -> float:
    """Multiplicative slack covering five standard errors of FM counting.

    The estimate is ``2 ** mean(z) / phi`` over ``repetitions`` vectors,
    so five standard errors of the mean put it within a factor
    ``2 ** (5 * 1.12 / sqrt(repetitions))`` of the truth.  FM counting is
    randomised, so any band is crossed by some correct runs: summing the
    exact distribution of ``mean(z)`` over the band's tails gives about
    5e-7 per check at five standard errors (4.6e-5 at four, where a
    correct 8000-host count of a benchmark run was seen to cross it).
    """
    factor = 2.0 ** (5.0 * FM_SIGMA_BITS / math.sqrt(repetitions))
    if factor >= 2.0:
        raise ValueError(
            f"{repetitions} FM repetitions are too few for a band below 1")
    return factor - 1.0


def check_flood(topology: Topology, values: Sequence[float],
                churn: ChurnSchedule, kind: str, value: Any,
                termination: float, repetitions: int,
                fallback_reason: Any = None) -> None:
    """Check one flood's answer against its Single-Site Validity bounds."""
    if fallback_reason is not None:
        raise GateError(f"{kind} flood fell back to the spec loop: "
                        f"{fallback_reason}")
    if value is None:
        raise GateError(f"{kind} flood declared no answer")
    bounds = compute_bounds(topology, values, churn, querying_host=0,
                            kind=kind, horizon=termination)
    if kind == "min":
        valid = check_single_site_validity(value, bounds, kind, values)
        band = ""
    else:
        epsilon = fm_epsilon(repetitions)
        valid = check_approximate_single_site_validity(
            value, bounds, kind, values, epsilon)
        band = f" widened by eps={epsilon:.3f}"
    if not valid:
        raise GateError(
            f"{kind} answer {value!r} is outside its validity bounds "
            f"[{bounds.lower_value!r}, {bounds.upper_value!r}]{band}")


def check_service_accounting(outcomes: List[Any], submitted: int) -> None:
    by_status = {status: 0 for status in QueryStatus}
    for outcome in outcomes:
        by_status[outcome.status] += 1
    answered = by_status[QueryStatus.DONE]
    failed = by_status[QueryStatus.FAILED]
    shed = by_status[QueryStatus.SHED]
    if answered + failed + shed != submitted:
        raise GateError(
            f"service accounting: answered {answered} + failed {failed} + "
            f"shed {shed} != submitted {submitted}")


def replay_topology(topology: Topology, churn: ChurnSchedule,
                    launch_at: float) -> Topology:
    """The network a session launched at ``launch_at`` starts on.

    Hosts that departed before the launch are cut off (a departed host
    neither sends nor receives), so a solo run from time 0 sees the same
    live neighbourhoods the session saw.
    """
    gone = {host for time, host in churn.failures if time < launch_at}
    if not gone:
        return topology
    adjacency = [set() if host in gone
                 else {other for other in neighbours if other not in gone}
                 for host, neighbours in enumerate(topology.adjacency)]
    return Topology(adjacency, name=f"{topology.name}@{launch_at}")


def replay_solo(outcome: Any, topology: Topology, values: Sequence[float],
                churn: ChurnSchedule, d_hat: int, delay: Any,
                stats: str) -> Any:
    """Run one service session again, alone, through ``run_protocol``."""
    launch = outcome.submitted_at
    shifted = ChurnSchedule(failures=[(time - launch, host)
                                      for time, host in churn.failures
                                      if time >= launch])
    return run_protocol(
        protocol_from_spec(outcome.protocol),
        replay_topology(topology, churn, launch), values, outcome.query,
        querying_host=outcome.querying_host, seed=outcome.seed,
        d_hat=d_hat, churn=shifted, delay=delay, stats=stats)


def check_service_replay(outcomes: List[Any], topology: Topology,
                         values: Sequence[float], churn: ChurnSchedule,
                         d_hat: int, delay: Any, stats: str,
                         sample_size: int, seed: int) -> int:
    """Replay a seeded sample of answered queries; returns how many."""
    answered = [o for o in outcomes if o.status is QueryStatus.DONE]
    sample = random.Random(seed).sample(
        answered, min(sample_size, len(answered)))
    for outcome in sample:
        solo = replay_solo(outcome, topology, values, churn, d_hat, delay,
                           stats)
        if solo.value != outcome.value:
            raise GateError(
                f"query {outcome.query_id} ({outcome.protocol} "
                f"{outcome.query.kind.value}) answered {outcome.value!r} "
                f"in the service but {solo.value!r} solo")
        if solo.costs.fingerprint() != outcome.costs.fingerprint():
            raise GateError(
                f"query {outcome.query_id} ({outcome.protocol}) cost "
                f"fingerprint differs between the service and solo replay")
    return len(sample)
