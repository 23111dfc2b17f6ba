"""The lean event graph: closure-free tabulated events, shape-shared kernels.

Tabulated events (``BadEvent.from_bad_outcomes`` / ``BadEvent.all_equal``)
evaluate through their bad-outcomes hint and keep no predicate closure;
their conditional-probability cache is created by the first query; and
with the artifact plane on, every event of one shape shares one compiled
kernel.  These tests pin the resulting allocation budget, the kernel
sharing and its oracle (``REPRO_ARTIFACTS=off`` compiles per event), the
label faithfulness of shared kernels and fingerprints, and that no
transcript moves.
"""

from __future__ import annotations

import gc
import types
from hashlib import blake2b

import pytest

from repro.artifacts import (
    STORE,
    digest_key,
    event_structure,
    instance_fingerprint,
    using_artifacts,
)
from repro.core import solve
from repro.core.vector import using_decide
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    cycle_graph,
    cyclic_triples,
    random_triples,
)
from repro.lll import LLLInstance
from repro.lll.io import instance_from_dict, instance_to_dict
from repro.probability import (
    BadEvent,
    DiscreteVariable,
    PartialAssignment,
    reset_engine_stats,
    using_engine,
)
from repro.probability.engine import STATS
from repro.runtime import make_scheduler

#: GC-tracked objects one event of the all-zero families may add: the
#: event, its scope tuple, its scope variable and the instance's list of
#: that variable's events.  Before the change an event added 11.
TRACKED_PER_EVENT = 4


def tracked_objects_added(build) -> int:
    gc.collect()
    before = len(gc.get_objects())
    built = build()  # alive while counting
    gc.collect()
    return len(gc.get_objects()) - before


@pytest.mark.parametrize("family", ["cycle", "triples"])
def test_all_zero_build_allocation_budget(family):
    n = 3000
    if family == "cycle":
        graph = cycle_graph(n)

        def build():
            return all_zero_edge_instance(graph, 3)
    else:
        triples = cyclic_triples(n)

        def build():
            return all_zero_triple_instance(n, triples, 3)

    build()  # first build pays one-off lazy imports and interned hints
    added = tracked_objects_added(build)
    # A small constant covers the instance object itself and its dicts.
    assert added <= TRACKED_PER_EVENT * n + 64, added / n


def test_tabulated_events_keep_no_closure_and_no_cache_until_queried():
    coin = DiscreteVariable.fair_coin("c")
    events = [
        BadEvent.all_equal("a", [coin], 1),
        BadEvent.from_bad_outcomes("b", [coin], [(1,)]),
    ]
    for event in events:
        referents = gc.get_referents(event)
        assert not any(isinstance(r, types.FunctionType) for r in referents)
        assert event.cache_size == 0
        assert event.cache_info() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
            "limit": event.cache_info()["limit"],
        }
        assert event.probability() == 0.5
        assert event.probability() == 0.5
        info = event.cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (1, 1, 1)
        assert event.occurs(PartialAssignment({"c": 1}))
        assert not event.occurs(PartialAssignment({"c": 0}))


def test_all_equal_hint_is_interned():
    x = DiscreteVariable("x", (0, 1, 2))
    y = DiscreteVariable("y", (0, 1, 2))
    z = DiscreteVariable("z", (0, 1, 2))
    first = BadEvent.all_equal("e", [x, y], 0)
    second = BadEvent.all_equal("f", [y, z], 0)
    assert first.bad_outcomes_hint is second.bad_outcomes_hint
    # Equal, equal-hashing targets of different types keep their own hint.
    as_bool = BadEvent.all_equal("g", [x, y], False)
    assert as_bool.bad_outcomes_hint is not first.bad_outcomes_hint
    assert type(next(iter(as_bool.bad_outcomes_hint))[0]) is bool


@pytest.mark.parametrize("engine", ["naive", "compiled"])
def test_all_equal_target_outside_support_hint_agrees(engine):
    x = DiscreteVariable("x", (1, 2))
    y = DiscreteVariable("y", (1, 2))
    event = BadEvent.all_equal("e", [x, y], 0)
    hint = event.bad_outcomes_hint
    raw_outcomes = [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)]
    with using_engine(engine):
        assert event.probability() == 0.0
        assert event.bad_outcomes() == []
        for outcome in raw_outcomes:
            # Raw dict assignments may hold out-of-support values; the
            # evaluation and the hint (the event's tabulated semantics)
            # must say the same thing about every one of them.
            assignment = PartialAssignment(dict(zip(("x", "y"), outcome)))
            assert event.occurs(assignment) == (outcome in hint), outcome
    assert event.occurs(PartialAssignment({"x": 0, "y": 0}))


def test_same_shape_events_share_one_kernel():
    with using_artifacts("on"), using_engine("compiled"):
        STORE.clear()
        reset_engine_stats()
        first = all_zero_edge_instance(cycle_graph(10), 3)
        second = all_zero_edge_instance(cycle_graph(13), 3)
        kernels = {
            id(event.compiled_kernel())
            for instance in (first, second)
            for event in instance.events
        }
        assert len(kernels) == 1
        assert STATS.kernel_compiles == 1
        assert STATS.kernel_reuses == 10 + 13 - 1
        assert len(STORE.tier("kernels")) == 1
        # A different support is a different shape.
        other = all_zero_edge_instance(cycle_graph(10), 4)
        assert other.events[0].compiled_kernel() is not (
            first.events[0].compiled_kernel()
        )
        assert STATS.kernel_compiles == 2


def test_artifacts_off_compiles_per_event():
    with using_artifacts("off"), using_engine("compiled"):
        reset_engine_stats()
        instance = all_zero_edge_instance(cycle_graph(10), 3)
        kernels = {id(event.compiled_kernel()) for event in instance.events}
    assert len(kernels) == 10
    assert STATS.kernel_compiles == 10
    assert STATS.kernel_reuses == 0


def test_shared_kernel_keeps_each_events_own_labels():
    ints = [DiscreteVariable(name, (0, 1)) for name in ("a", "b")]
    bools = [DiscreteVariable(name, (False, True)) for name in ("c", "d")]
    with using_artifacts("on"), using_engine("compiled"):
        STORE.clear()
        by_int = BadEvent.from_bad_outcomes("i", ints, [(1, 1)])
        by_bool = BadEvent.from_bad_outcomes("b", bools, [(True, True)])
        # (0, 1) == (False, True): one shape, one kernel ...
        assert by_int.compiled_kernel() is by_bool.compiled_kernel()
        # ... but each event tabulates its own value labels.
        assert by_int.bad_outcomes() == [(1, 1)]
        outcome = by_bool.bad_outcomes()
        assert outcome == [(True, True)]
        assert all(type(value) is bool for value in outcome[0])


def two_event_instance(first_values, second_values, second_table):
    first = [DiscreteVariable(("x", i), first_values) for i in range(2)]
    second = [DiscreteVariable(("y", i), second_values) for i in range(2)]
    top = first_values[-1]
    return LLLInstance([
        BadEvent.from_bad_outcomes("a", first, [(top, top)]),
        BadEvent.from_bad_outcomes("b", second, second_table),
    ])


def test_instance_fingerprint_is_label_faithful():
    """Per-shape digests are shared by identity, never by equality.

    ``(0, 1) == (False, True)``, so an equality-keyed shape memo would
    hand event ``b`` of the bool instance event ``a``'s int digest and
    make it collide with the all-int instance, whose templates carry
    int labels into the fixer state.
    """
    ints = two_event_instance((0, 1), (0, 1), [(1, 1)])
    bools = two_event_instance((0, 1), (False, True), [(True, True)])
    again = two_event_instance((0, 1), (0, 1), [(1, 1)])
    other_table = two_event_instance((0, 1), (0, 1), [(0, 1)])
    assert instance_fingerprint(ints) == instance_fingerprint(again)
    assert instance_fingerprint(bools) != instance_fingerprint(ints)
    assert instance_fingerprint(other_table) != instance_fingerprint(ints)


def test_instance_fingerprint_covers_names():
    base = all_zero_edge_instance(cycle_graph(9), 3)
    relabelled = LLLInstance([
        BadEvent.all_equal(("v", event.name), event.variables, 0)
        for event in base.events
    ])
    assert instance_fingerprint(relabelled) != instance_fingerprint(base)


def one_pass_fingerprint(instance):
    """The fingerprint's definition: one digest per event, no reuse."""
    hasher = blake2b(digest_size=16)
    for event in instance.events:
        hasher.update(digest_key(event_structure(event)))
    return hasher.digest()


def test_instance_fingerprint_reuse_matches_one_pass():
    """Reusing a run's shape ``repr`` never changes the digest.

    Covers runs of one shared shape (generated, uniform and explicit
    distributions), no sharing at all (an ``lll.io`` round trip), mixed
    arities (random triples), alternating hints over shared supports,
    one hint over equal-but-not-identical supports (``0`` vs ``0.0``)
    and equal-but-not-identical labels.
    """
    cycle = all_zero_edge_instance(cycle_graph(12), 3)
    num_nodes = 40
    triples = random_triples(num_nodes, 30, 3, seed=2)
    touched = sorted({node for triple in triples for node in triple})
    renumber = {node: index for index, node in enumerate(touched)}
    mixed = all_zero_triple_instance(
        len(touched),
        [tuple(renumber[node] for node in triple) for triple in triples],
        3,
    )
    shared = [DiscreteVariable(("x", i), (0, 1)) for i in range(2)]
    alternating = LLLInstance([
        BadEvent.all_equal(i, shared, i % 2) for i in range(6)
    ])
    ints = [DiscreteVariable(("i", i), (0, 1)) for i in range(2)]
    floats = [DiscreteVariable(("f", i), (0.0, 1.0)) for i in range(2)]
    one_hint = LLLInstance([
        BadEvent.all_equal(name, scope, 0)
        for name, scope in (("a", ints), ("b", floats), ("c", ints))
    ])
    instances = [
        cycle,
        all_zero_edge_instance(cycle_graph(12), 3, [0.5, 0.3, 0.2]),
        instance_from_dict(instance_to_dict(cycle)),
        mixed,
        alternating,
        one_hint,
        two_event_instance((0, 1), (False, True), [(True, True)]),
    ]
    assert len({len(event.variables) for event in mixed.events}) > 1
    for instance in instances:
        assert instance_fingerprint(instance) == one_pass_fingerprint(instance)
    assert instance_fingerprint(instances[2]) == instance_fingerprint(cycle)


def test_generated_variables_share_one_distribution():
    instance = all_zero_edge_instance(cycle_graph(8), 3, [0.5, 0.3, 0.2])
    distributions = {
        id(variable.probabilities) for variable in instance.variables
    }
    assert len(distributions) == 1
    assert instance.variables[0].probabilities == (0.5, 0.3, 0.2)
    # Anything but a tuple of floats is still converted.
    assert DiscreteVariable("x", (0, 1), (1, 0)).probabilities == (1.0, 0.0)
    assert all(
        type(p) is float
        for p in DiscreteVariable("x", (0, 1), (1, 0)).probabilities
    )


# ----------------------------------------------------------------------
# Transcripts: naive vs compiled engine, scalar vs vector decide,
# shared vs per-event kernels
# ----------------------------------------------------------------------
def tabulated_cycle(n: int) -> LLLInstance:
    """A cycle whose events are explicit three-row tables (p = 3/16)."""
    variables = {
        i: DiscreteVariable(("edge", min(i, (i + 1) % n), max(i, (i + 1) % n)),
                            (0, 1, 2, 3))
        for i in range(n)
    }
    events = [
        BadEvent.from_bad_outcomes(
            node,
            [variables[(node - 1) % n], variables[node]],
            [(0, 0), (0, 1), (1, 0)],
        )
        for node in range(n)
    ]
    return LLLInstance(events)


BUILDERS = {
    "cycle": lambda: all_zero_edge_instance(cycle_graph(12), 3),
    "triples": lambda: all_zero_triple_instance(11, cyclic_triples(11), 5),
    "tabulated": lambda: tabulated_cycle(9),
}


def transcript(build):
    instance = build()
    result = solve(instance, scheduler=make_scheduler("serial"))
    return (
        result.assignment.as_dict(),
        result.steps,
        result.certified_bounds,
    )


@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_transcripts_bit_identical_across_planes(family):
    build = BUILDERS[family]
    with using_artifacts("off"), using_engine("naive"), using_decide("scalar"):
        reference = transcript(build)
    for artifacts in ("off", "on"):
        for decide in ("scalar", "vector"):
            with using_artifacts(artifacts), using_engine("compiled"), \
                    using_decide(decide):
                STORE.clear()
                cold = transcript(build)
                warm = transcript(build)
            for label, candidate in (("cold", cold), ("warm", warm)):
                assert candidate == reference, (family, artifacts, decide, label)
