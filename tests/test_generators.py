"""Unit tests for the workload generators."""

from hashlib import blake2b

import networkx as nx
import pytest

from repro.errors import ReproError
from repro.generators import (
    all_zero_edge_instance,
    all_zero_triple_instance,
    balanced_tree,
    complete_graph,
    cycle_graph,
    cyclic_triples,
    degree_profile,
    grid_graph,
    hypercube_graph,
    mixed_rank_instance,
    partition_rounds_triples,
    path_graph,
    random_bipartite_regular,
    random_regular_graph,
    random_tree,
    random_triples,
    threshold_count_edge_instance,
    torus_graph,
    triples_degree_profile,
)


class TestGraphGenerators:
    def test_cycle(self):
        graph = cycle_graph(10)
        assert graph.number_of_nodes() == 10
        assert all(deg == 2 for _n, deg in graph.degree())

    def test_torus_is_4_regular(self):
        graph = torus_graph(4, 5)
        assert all(deg == 4 for _n, deg in graph.degree())

    def test_random_regular(self):
        graph = random_regular_graph(20, 3, seed=0)
        assert all(deg == 3 for _n, deg in graph.degree())

    def test_random_regular_seeded(self):
        first = random_regular_graph(20, 3, seed=1)
        second = random_regular_graph(20, 3, seed=1)
        assert set(first.edges()) == set(second.edges())

    def test_random_regular_validation(self):
        with pytest.raises(ReproError):
            random_regular_graph(5, 3, seed=0)  # odd product
        with pytest.raises(ReproError):
            random_regular_graph(4, 4, seed=0)

    def test_random_tree(self):
        graph = random_tree(15, seed=2)
        assert nx.is_tree(graph)
        assert graph.number_of_nodes() == 15

    def test_balanced_tree(self):
        graph = balanced_tree(2, 3)
        assert nx.is_tree(graph)
        assert graph.number_of_nodes() == 2**4 - 1

    def test_hypercube(self):
        graph = hypercube_graph(4)
        assert all(deg == 4 for _n, deg in graph.degree())
        assert graph.number_of_nodes() == 16

    def test_grid_and_path_and_complete(self):
        assert grid_graph(3, 4).number_of_nodes() == 12
        assert path_graph(5).number_of_edges() == 4
        assert complete_graph(5).number_of_edges() == 10

    def test_bipartite_regular(self):
        graph = random_bipartite_regular(6, 9, 3, seed=3)
        for u in range(6):
            assert graph.degree(u) == 3
        for v in range(6, 15):
            assert all(n < 6 for n in graph.neighbors(v))

    def test_degree_profile(self):
        profile = degree_profile(path_graph(4))
        assert profile["min"] == 1
        assert profile["max"] == 2


class TestTripleGenerators:
    def test_partition_rounds_regularity(self):
        triples = partition_rounds_triples(12, 3, seed=0)
        profile = triples_degree_profile(12, triples)
        assert profile["min"] == profile["max"] == 3
        assert len(set(triples)) == len(triples)

    def test_partition_rounds_validation(self):
        with pytest.raises(ReproError):
            partition_rounds_triples(10, 2, seed=0)  # not divisible by 3

    def test_random_triples_caps_usage(self):
        triples = random_triples(12, num_triples=10, max_per_node=3, seed=1)
        profile = triples_degree_profile(12, triples)
        assert profile["max"] <= 3
        assert len(triples) == 10

    def test_random_triples_infeasible(self):
        with pytest.raises(ReproError):
            random_triples(3, num_triples=2, max_per_node=1, seed=0)

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((9, 6, 2, 0), "ccd237efe763ff8a"),
            ((30, 20, 3, 1), "c9a77fef63c8f415"),
            ((200, 180, 3, 5), "2a7ed1ae19da6bd2"),
            ((2000, 1500, 3, 11), "ea7ed443bbab30ac"),
        ],
    )
    def test_random_triples_output_is_pinned(self, args, digest):
        # Digests of the output of the original generator, which rebuilt
        # the list of nodes with spare capacity before every draw: the
        # incremental list must feed ``rng.sample`` the same population.
        triples = random_triples(*args)
        assert blake2b(repr(triples).encode(), digest_size=8).hexdigest() == digest

    def test_cyclic_triples(self):
        triples = cyclic_triples(7)
        assert len(triples) == 7
        profile = triples_degree_profile(7, triples)
        assert profile["min"] == profile["max"] == 3


class TestInstanceBuilders:
    def test_all_zero_edge_dependency_graph(self):
        graph = cycle_graph(6)
        instance = all_zero_edge_instance(graph, 3)
        assert set(map(frozenset, instance.dependency_graph.edges())) == set(
            map(frozenset, graph.edges())
        )

    def test_all_zero_edge_probability(self):
        instance = all_zero_edge_instance(cycle_graph(6), 4)
        assert instance.max_event_probability == pytest.approx(4.0**-2)

    def test_nonuniform_probabilities(self):
        instance = all_zero_edge_instance(
            cycle_graph(6), 3, probabilities=(0.2, 0.4, 0.4)
        )
        assert instance.max_event_probability == pytest.approx(0.04)

    def test_isolated_node_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_node(2)
        with pytest.raises(ReproError):
            all_zero_edge_instance(graph, 3)

    def test_threshold_count_softer_than_all_zero(self):
        graph = cycle_graph(6)
        strict = all_zero_edge_instance(graph, 3)
        soft = threshold_count_edge_instance(graph, 3, min_zeros=1)
        assert (
            soft.max_event_probability > strict.max_event_probability
        )

    def test_all_zero_triple_probability(self):
        instance = all_zero_triple_instance(9, cyclic_triples(9), 5)
        assert instance.max_event_probability == pytest.approx(5.0**-3)

    def test_triple_validation(self):
        with pytest.raises(ReproError):
            all_zero_triple_instance(6, [(0, 1, 1)], 3)
        with pytest.raises(ReproError):
            all_zero_triple_instance(6, [(0, 1, 2), (0, 1, 2)], 3)
        with pytest.raises(ReproError):
            all_zero_triple_instance(7, [(0, 1, 2), (3, 4, 5)], 3)

    def test_mixed_rank_has_both(self):
        instance = mixed_rank_instance(
            cycle_graph(9), [(0, 3, 6)], 3, 5
        )
        ranks = {
            len(instance.events_of_variable(v.name))
            for v in instance.variables
        }
        assert 2 in ranks
        assert 3 in ranks


class TestParityInstances:
    def test_parity_probability_on_cycle(self):
        from repro.generators import parity_edge_instance

        instance = parity_edge_instance(cycle_graph(8), 0.1)
        assert instance.max_event_probability == pytest.approx(2 * 0.1 * 0.9)

    def test_parity_events_are_unkillable(self):
        from repro.generators import parity_edge_instance
        from repro.probability import PartialAssignment

        instance = parity_edge_instance(cycle_graph(6), 0.1)
        event = instance.events[0]
        # Fixing any single scope variable keeps the probability positive.
        for variable in event.variables:
            for value in (0, 1):
                partial = PartialAssignment().fix(variable, value)
                assert event.probability(partial) > 0.0

    def test_parity_bias_validation(self):
        from repro.generators import parity_edge_instance

        with pytest.raises(ReproError):
            parity_edge_instance(cycle_graph(6), 0.0)
        with pytest.raises(ReproError):
            parity_edge_instance(cycle_graph(6), 1.0)

    def test_parity_solvable_below_threshold(self):
        from repro.core import solve
        from repro.generators import parity_edge_instance
        from repro.lll import verify_solution

        instance = parity_edge_instance(cycle_graph(10), 0.1)
        result = solve(instance)
        assert verify_solution(instance, result.assignment).ok

    def test_threshold_count_with_bias(self):
        instance = threshold_count_edge_instance(
            torus_graph(3, 3), 3, min_zeros=3,
            probabilities=(0.2, 0.4, 0.4),
        )
        q = 0.2
        expected = 4 * q**3 * (1 - q) + q**4
        assert instance.max_event_probability == pytest.approx(expected)
