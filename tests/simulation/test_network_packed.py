"""Differential tests: the packed CSR network against the set-based spec.

:class:`~repro.simulation.network.DynamicNetwork` stores adjacency in
packed CSR arrays with an alive bitmap and a join-overflow table;
:class:`~repro.simulation.network_reference.ReferenceNetwork` is the
retained pre-rewrite set-based implementation.  These tests replay
hypothesis-generated churn/join/observation sequences against both and
require every observable to agree at every step -- the packed core must
be *indistinguishable*, not merely equivalent on happy paths.

The module also carries the calendar-queue fuzz for the join overflow
table (joins and departures interleaved through a real ``Simulator``
run) and the regression lock on ``alive_hosts``/``num_alive`` being
served from the maintained count plus bitmap.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation.network import DynamicNetwork, NetworkEventKind
from repro.simulation.network_reference import ReferenceNetwork


# ---------------------------------------------------------------------------
# Sequence generation
# ---------------------------------------------------------------------------

def _random_edges(n: int, rng: random.Random):
    """A connected-ish random symmetric edge list on ``n`` hosts."""
    edges = set()
    for host in range(1, n):
        other = rng.randrange(host)  # spanning tree: keeps things reachable
        edges.add((other, host))
    extra = rng.randrange(0, 2 * n)
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


@st.composite
def churn_scripts(draw):
    """(num_hosts, edge list, operations) with ops valid by construction.

    Operations are drawn as abstract choices and resolved against the
    evolving alive set, so every script is replayable on both
    implementations without hitting their validation errors.
    """
    n = draw(st.integers(min_value=2, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    edges = _random_edges(n, rng)
    num_ops = draw(st.integers(min_value=0, max_value=12))
    ops = []
    alive = list(range(n))
    next_id = n
    for step in range(num_ops):
        kind = draw(st.sampled_from(["fail", "join", "join", "fail"]))
        if kind == "fail" and len(alive) > 1:
            victim = draw(st.sampled_from(sorted(alive)))
            alive.remove(victim)
            ops.append(("fail", victim, float(step)))
        elif kind == "join" and alive:
            k = draw(st.integers(min_value=0, max_value=min(3, len(alive))))
            neighbors = draw(st.permutations(sorted(alive)))[:k]
            ops.append(("join", tuple(neighbors), float(step)))
            alive.append(next_id)
            next_id += 1
    return n, edges, ops


def _observe(network):
    """Every cheap observable of a network, as one comparable structure."""
    n = network.num_hosts
    return {
        "num_hosts": n,
        "num_alive": network.num_alive,
        "alive_hosts": network.alive_hosts,
        "ever_alive": network.ever_alive,
        "num_edges": network.num_edges(),
        "edges": set(network.edges()),
        "neighbors": [set(network.neighbors(h)) for h in range(n)],
        "sorted_views": [network.alive_neighbors_sorted(h) for h in range(n)],
        "all_neighbors": [network.all_neighbors(h) for h in range(n)],
        "initial": [network.initial_neighbors(h) for h in range(n)],
        "degrees": [network.degree(h) for h in range(n)],
        "alive": [network.is_alive(h) for h in range(n)],
        "snapshot": network.snapshot_adjacency(),
        "events": network.events,
    }


def _assert_identical(packed, reference):
    obs_p, obs_r = _observe(packed), _observe(reference)
    for key in obs_r:
        assert obs_p[key] == obs_r[key], f"packed core diverged on {key}"
    n = packed.num_hosts
    # Pairwise edge predicates over every (a, b), including failed hosts.
    for a in range(n):
        for b in range(n):
            assert packed.has_edge(a, b) == reference.has_edge(a, b)
            assert (packed.has_alive_edge(a, b)
                    == reference.has_alive_edge(a, b))
    # Traversals: distances, reachability, diameter, connectivity.
    for source in range(n):
        assert (packed.bfs_distances(source)
                == reference.bfs_distances(source))
        assert (packed.bfs_distances(source, alive_only=False)
                == reference.bfs_distances(source, alive_only=False))
        assert (packed.reachable_from(source)
                == reference.reachable_from(source))
    assert packed.is_connected() == reference.is_connected()
    assert (packed.diameter_estimate(samples=4, seed=3)
            == reference.diameter_estimate(samples=4, seed=3))


class TestDifferentialChurnReplay:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=churn_scripts())
    def test_every_observable_matches_the_reference_at_every_step(
            self, script):
        n, edges, ops = script
        packed = DynamicNetwork.from_edges(n, edges)
        reference = ReferenceNetwork.from_edges(n, edges)
        _assert_identical(packed, reference)
        for op in ops:
            if op[0] == "fail":
                _, victim, time = op
                packed.fail_host(victim, time)
                reference.fail_host(victim, time)
            else:
                _, neighbors, time = op
                new_p = packed.join_host(neighbors, time)
                new_r = reference.join_host(neighbors, time)
                assert new_p == new_r
            _assert_identical(packed, reference)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=churn_scripts())
    def test_copies_stay_identical_and_independent(self, script):
        n, edges, ops = script
        packed = DynamicNetwork.from_edges(n, edges)
        reference = ReferenceNetwork.from_edges(n, edges)
        for op in ops:
            if op[0] == "fail":
                packed.fail_host(op[1], op[2])
                reference.fail_host(op[1], op[2])
            else:
                packed.join_host(op[1], op[2])
                reference.join_host(op[1], op[2])
        clone = packed.copy()
        _assert_identical(clone, reference)
        # Mutating the clone must not leak into the original (the clones
        # share the immutable base CSR but nothing mutable).
        survivors = clone.alive_hosts
        if len(survivors) > 1:
            clone.fail_host(survivors[-1], 99.0)
            assert packed.is_alive(survivors[-1])
            _assert_identical(packed, reference)

    def test_duplicate_trusted_input_rows_are_normalised_like_reference(self):
        # The old implementation passed every row through set() even on
        # the validate=False trusted path; the CSR build must normalise
        # identically or duplicated entries would double-count degrees
        # and double-deliver multicasts.
        raw = [[1, 1, 2], (0, 2, 2), {0, 1}]
        packed = DynamicNetwork(raw, validate=False, copy=False)
        reference = ReferenceNetwork(raw, validate=False, copy=False)
        _assert_identical(packed, reference)
        assert packed.alive_neighbors_sorted(0) == (1, 2)
        assert packed.degree(1) == 2
        assert packed.num_edges() == 3

    def test_rejections_match_the_reference(self):
        packed = DynamicNetwork.from_edges(3, [(0, 1), (1, 2)])
        reference = ReferenceNetwork.from_edges(3, [(0, 1), (1, 2)])
        for network in (packed, reference):
            network.fail_host(2, 1.0)
            with pytest.raises(ValueError):
                network.fail_host(2, 2.0)       # double failure
            with pytest.raises(ValueError):
                network.join_host([2], 3.0)     # join at failed host
            with pytest.raises(ValueError):
                network.join_host([17], 3.0)    # unknown neighbor
        _assert_identical(packed, reference)


class TestAliveAccountingRegression:
    """Satellite lock: ``num_alive`` is the maintained O(1) count and
    ``alive_hosts`` the bitmap scan; both must track the reference under
    arbitrary churn (the count is easy to desynchronise by hand)."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=churn_scripts())
    def test_alive_count_and_listing_agree_with_reference(self, script):
        n, edges, ops = script
        packed = DynamicNetwork.from_edges(n, edges)
        reference = ReferenceNetwork.from_edges(n, edges)
        for op in ops:
            if op[0] == "fail":
                packed.fail_host(op[1], op[2])
                reference.fail_host(op[1], op[2])
            else:
                packed.join_host(op[1], op[2])
                reference.join_host(op[1], op[2])
            assert packed.num_alive == reference.num_alive
            assert packed.alive_hosts == reference.alive_hosts
            # The maintained count equals a fresh bitmap scan, too.
            assert packed.num_alive == sum(packed._alive)

    def test_num_alive_is_not_an_o_n_scan(self):
        # The property must read the maintained count, not re-sum the
        # bitmap: corrupt the bitmap behind the count's back and check the
        # count (not the scan) is what is served.
        network = DynamicNetwork.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        network._alive[3] = 0  # bypass fail_host on purpose
        assert network.num_alive == 4


# ---------------------------------------------------------------------------
# Join-overflow fuzz through the calendar queue
# ---------------------------------------------------------------------------

class _ProbeHost:
    """Minimal inert protocol host (dict-based on purpose: tests may)."""

    def __init__(self, host_id, value=0.0):
        self.host_id = host_id
        self.value = value

    def on_query_start(self, ctx):
        pass

    def on_message(self, message, ctx):
        pass

    def on_timer(self, name, data, ctx):
        pass

    def on_fail(self, time):
        pass

    def local_result(self):
        return None


def _fuzz_run(seed: int, delay):
    """Interleave joins and departures through one Simulator run.

    A CUSTOM probe fires between every pair of churn instants and checks
    the packed core against a reference replayed from the event log:

    * no alive-neighbor view ever yields a departed host;
    * a join's edges appear exactly at (not before) its scheduled tick;
    * the overflow table stays consistent with the reference adjacency.
    """
    from repro.simulation.churn import ChurnSchedule, JoinSpec
    from repro.simulation.engine import Simulator
    from repro.simulation.events import EventKind

    rng = random.Random(seed)
    n = rng.randrange(8, 16)
    edges = _random_edges(n, rng)
    network = DynamicNetwork.from_edges(n, edges)
    reference = ReferenceNetwork.from_edges(n, edges)

    alive = list(range(n))
    next_id = n
    failures, joins = [], []
    expected = {}  # tick -> list of ("fail", host) / ("join", neighbors)
    for step in range(rng.randrange(4, 10)):
        tick = float(step + 1)
        expected[tick] = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5 and len(alive) > 2:
                victim = alive.pop(rng.randrange(1, len(alive)))
                failures.append((tick, victim))
                expected[tick].append(("fail", victim))
            else:
                k = rng.randrange(1, min(3, len(alive)) + 1)
                neighbors = tuple(sorted(rng.sample(alive, k)))
                joins.append(JoinSpec(time=tick, neighbors=neighbors))
                expected[tick].append(("join", neighbors))
                alive.append(next_id)
                next_id += 1

    churn = ChurnSchedule(failures=failures, joins=joins)
    hosts = [_ProbeHost(h) for h in range(n)]
    simulator = Simulator(network=network, hosts=hosts, querying_host=0,
                          churn=churn, delay_model=delay, max_time=100.0)

    observations = []

    def probe(sim, tick=None):
        observations.append((sim.clock.now, _observe(sim.network)))

    horizon = max(expected) + 1.0
    for step in range(int(horizon) + 1):
        # +0.5 puts the probe strictly between churn instants; churn at
        # tick t must be visible at t + 0.5 and not at t - 0.5.
        simulator._queue.push(step + 0.5, EventKind.CUSTOM, data=probe)
    simulator.run(until=horizon)
    return network, reference, expected, observations


@pytest.mark.parametrize("delay", [None, "uniform:0.25,1.0", "per_edge"],
                         ids=["fixed", "uniform", "per_edge"])
@pytest.mark.parametrize("seed", range(6))
def test_join_overflow_fuzz_through_calendar_queue(seed, delay):
    from repro.simulation.delay import delay_model_from_spec

    model = delay_model_from_spec(delay, 1.0, seed=seed)
    network, reference, expected, observations = _fuzz_run(seed, model)

    # Replay the network's own event log onto the reference implementation
    # step by step, checking each probe snapshot against it.
    log = network.events
    cursor = 0
    for now, observed in observations:
        while cursor < len(log) and log[cursor].time <= now:
            event = log[cursor]
            if event.kind is NetworkEventKind.FAIL:
                reference.fail_host(event.host, event.time)
            else:
                reference.join_host(event.neighbors, event.time)
            cursor += 1
        ref_obs = _observe(reference)
        for key in ref_obs:
            assert observed[key] == ref_obs[key], (
                f"t={now}: packed core diverged from replayed reference "
                f"on {key}")
        # No view may ever contain a departed host.
        dead = [h for h, a in enumerate(observed["alive"]) if not a]
        for h, view in enumerate(observed["sorted_views"]):
            for d in dead:
                assert d not in view, (
                    f"t={now}: departed host {d} served in host {h}'s view")

    # The event log must contain exactly the scheduled churn, at exactly
    # its scheduled ticks (joins appear at their tick, never earlier).
    # Within one instant the calendar drains JOIN before FAIL (the
    # engine's kind priorities), so expectations are ordered accordingly.
    scheduled = [
        (t, op)
        for t in sorted(expected)
        for op in (sorted(expected[t], key=lambda o: o[0] != "join"))
    ]
    assert len(log) == len(scheduled)
    for event, (tick, op) in zip(log, scheduled):
        assert event.time == tick
        if op[0] == "fail":
            assert event.kind is NetworkEventKind.FAIL
            assert event.host == op[1]
        else:
            assert event.kind is NetworkEventKind.JOIN
            assert event.neighbors == op[1]
    # And every join's edges are present (symmetrically) afterwards, for
    # neighbors that survived to the end.
    for event in log:
        if event.kind is NetworkEventKind.JOIN:
            for neighbor in event.neighbors:
                if network.is_alive(neighbor) and network.is_alive(event.host):
                    assert network.has_edge(event.host, neighbor)
                    assert network.has_edge(neighbor, event.host)


# ---------------------------------------------------------------------------
# Range partitioning for the sharded lane
# ---------------------------------------------------------------------------

def _host_costs(network):
    """Each host's partition cost, scaled to integers: ``E + deg(h) * n``."""
    n = network.num_hosts
    degrees = [len(network.neighbors(h)) for h in range(n)]
    edges = max(sum(degrees), 1)
    return [edges + degree * n for degree in degrees]


def _edge_only_bounds(network, shards):
    """The previous edge-balanced cut, kept to pick inputs it differs on."""
    from bisect import bisect_left

    n = network.num_hosts
    offsets = [0]
    for h in range(n):
        offsets.append(offsets[-1] + len(network.neighbors(h)))
    bounds = [0]
    for k in range(1, shards):
        cut = bisect_left(offsets, offsets[n] * k // shards)
        bounds.append(max(min(cut, n), bounds[-1]))
    return bounds + [n]


class TestPartitionBounds:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40),
           shards=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_bounds_cover_every_host_monotonically(self, n, shards, seed):
        network = DynamicNetwork.from_edges(
            n, _random_edges(n, random.Random(seed)))
        bounds = network.partition_bounds(shards)
        assert len(bounds) == shards + 1
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_more_shards_than_hosts_leaves_empty_ranges(self):
        network = DynamicNetwork.from_edges(3, [(0, 1), (1, 2)])
        bounds = network.partition_bounds(8)
        assert len(bounds) == 9
        assert bounds[0] == 0 and bounds[-1] == 3
        assert sum(1 for a, b in zip(bounds, bounds[1:]) if a == b) >= 5

    def test_edgeless_network_cuts_by_host_count(self):
        network = DynamicNetwork([set() for _ in range(12)])
        assert network.partition_bounds(4) == [0, 3, 6, 9, 12]

    def test_rejects_non_positive_shards(self):
        network = DynamicNetwork.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="at least 1"):
            network.partition_bounds(0)

    def test_rejects_joined_hosts(self):
        network = DynamicNetwork.from_edges(3, [(0, 1), (1, 2)])
        network.join_host([0, 2], 1.0)
        with pytest.raises(ValueError, match="joined hosts"):
            network.partition_bounds(2)

    @pytest.mark.parametrize("shards", [2, 3, 4, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gnutella_shards_balance_host_plus_edge_cost(self, shards, seed):
        from repro.topology.gnutella import gnutella_like_topology

        network = gnutella_like_topology(600, seed=seed).to_network()
        costs = _host_costs(network)
        total = sum(costs)
        largest = max(costs)
        bounds = network.partition_bounds(shards)
        for lo, hi in zip(bounds, bounds[1:]):
            # |cost - total / K| <= one host's cost, in exact integers.
            assert abs(sum(costs[lo:hi]) * shards - total) <= largest * shards

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_lane_matches_spec_on_a_recut_gnutella(self, shards):
        from repro.protocols.base import run_protocol
        from repro.protocols.wildfire import Wildfire
        from repro.simulation.churn import ChurnSchedule
        from repro.topology.gnutella import gnutella_like_topology
        from repro.workloads.values import uniform_values

        topology = gnutella_like_topology(200, seed=5)
        network = topology.to_network()
        assert (network.partition_bounds(shards)
                != _edge_only_bounds(network, shards))
        values = uniform_values(len(topology), low=1, high=50, seed=5)
        churn = ChurnSchedule(failures=[(1.0, 150), (2.0, 40), (3.0, 9)])
        results = {}
        for lane in ("python", "sharded"):
            result = run_protocol(
                Wildfire(), topology, values, "count", querying_host=0,
                churn=churn, seed=5, lane=lane, shards=shards)
            results[lane] = (result.value, result.costs.fingerprint(),
                             result.finished_at, result.fallback_reason)
        assert results["sharded"][3] is None
        assert results["sharded"] == results["python"]
