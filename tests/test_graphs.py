import pytest
from hypothesis import given, settings, strategies as st

from chaingroup.graphs import (
    ActionGraph,
    TypeA,
    TypeB,
    all_classes,
    brute_enumerate,
    canonical_key,
    classify,
    format_graph,
    generate,
    genus_audit,
    parse_graph,
)


class TestActionGraph:
    def test_automorphism_enforced(self):
        # a vertex map that moves an endpoint off its fixed edge is rejected
        with pytest.raises(ValueError):
            ActionGraph(3, ((0, 1),), (2, 1, 0), (0,))

    def test_degrees_count_loops_twice(self):
        g = generate(TypeA(1, 1, 3), 3)
        assert g.degrees() == [6]

    def test_connectivity(self):
        g = generate(TypeB(1, 2, 1), 2)
        assert g.is_connected()


class TestClassify:
    def test_loop_rose(self):
        g = generate(TypeA(1, 1, 12), 12)
        assert classify(g) == TypeA(1, 1, 12)

    def test_one_fixed_two_swapped(self):
        g = generate(TypeB(1, 2, 6), 12)
        assert classify(g) == TypeB(1, 2, 6)

    def test_bipartite_three_one(self):
        # orbit sizes {3, 1} with multiplicity 4; sizes normalized ascending
        g = generate(TypeB(1, 3, 4), 12)
        assert classify(g) == TypeB(1, 3, 4)

    def test_two_vertex_single_orbit(self):
        g = generate(TypeA(2, 1, 2), 2)
        assert classify(g) == TypeA(2, 1, 2)

    def test_step_normalized_to_smaller_residue(self):
        g5 = generate(TypeA(5, 2, 1), 5)
        h5 = generate(TypeA(5, 3, 1), 5)
        assert classify(g5) == TypeA(5, 2, 1)
        assert classify(h5) == TypeA(5, 2, 1)
        assert canonical_key(g5) == canonical_key(h5)

    def test_round_trip_all_classes(self):
        for m in range(1, 13):
            for cls in all_classes(m):
                assert classify(generate(cls, m)) == cls

    def test_not_connected_rejected(self):
        g = ActionGraph(3, ((0, 0), (1, 2)), (0, 1, 2), (0, 1))
        with pytest.raises(ValueError):
            classify(g)

    def test_not_edge_transitive_rejected(self):
        g = ActionGraph(1, ((0, 0), (0, 0)), (0,), (0, 1))
        with pytest.raises(ValueError):
            classify(g)


class TestGenerate:
    def test_coprimality_required(self):
        with pytest.raises(ValueError):
            TypeB(2, 4, 1)

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            generate(TypeA(3, 1, 2), 7)

    def test_two_vertex_bundle_any_edge_count(self):
        g = generate(TypeA(2, 1, 5), 5)
        assert g.num_edges == 5 and g.num_vertices == 2

    def test_step_must_be_coprime(self):
        with pytest.raises(ValueError):
            TypeA(4, 2, 1)


class TestBruteEnumerate:
    def test_m1_shapes(self):
        found = brute_enumerate(1)
        graphs_only = {tuple(sorted(g.edges)) for g in found}
        # two underlying multigraphs: the loop and the segment (its single
        # edge carries both the fixing and the swapping action)
        assert len(graphs_only) == 2
        assert len(found) == 3

    def test_m2_contains_two_vertex_double_edge(self):
        assert any(classify(g) == TypeA(2, 1, 2) for g in brute_enumerate(2))

    def test_bidirectional_coverage(self):
        for m in range(1, 9):
            brute_keys = {canonical_key(g) for g in brute_enumerate(m)}
            template_keys = {canonical_key(generate(c, m)) for c in all_classes(m)}
            assert brute_keys == template_keys, m

    def test_every_graph_classifies(self):
        for m in range(1, 7):
            for g in brute_enumerate(m):
                generate(classify(g), m)

    def test_degree_sum(self):
        for m in (3, 6, 8):
            for g in brute_enumerate(m):
                assert sum(g.degrees()) == 2 * m

    def test_budget(self):
        with pytest.raises(ValueError):
            brute_enumerate(9)


class TestGenusAudit:
    def test_equality_configuration(self):
        g = generate(TypeB(3, 4, 1), 12)
        rep = genus_audit(g, 6, 0)
        assert rep.feasible and rep.equality_case and rep.equality_allowed
        assert rep.independent_cycles == 6 and rep.low_degree_vertices == 0

    def test_equality_rejected_with_boundary(self):
        g = generate(TypeB(3, 4, 1), 12)
        assert not genus_audit(g, 6, 1).feasible

    def test_equality_rejected_other_genus(self):
        g = generate(TypeB(1, 2, 2), 4)
        rep = genus_audit(g, 2, 0)
        assert rep.equality_case and not rep.equality_allowed and not rep.feasible

    def test_rose_strictly_below_bound(self):
        g = generate(TypeA(1, 1, 3), 3)
        rep = genus_audit(g, 3, 0)
        assert rep.feasible and not rep.equality_case
        assert rep.independent_cycles == 3 and rep.low_degree_vertices == 0

    def test_hypothesis_checks(self):
        g = generate(TypeA(1, 1, 2), 2)
        with pytest.raises(ValueError):
            genus_audit(g, 3, 0)


@st.composite
def relabelled_templates(draw):
    """A generate() template with its vertices and edges renumbered at random,
    labelled or not."""
    m = draw(st.integers(1, 12))
    g = generate(draw(st.sampled_from(all_classes(m))), m)
    sigma = draw(st.permutations(range(g.num_vertices)))
    tau = draw(st.permutations(range(g.num_edges)))
    edges, eperm, vperm = [None] * g.num_edges, [0] * g.num_edges, [0] * g.num_vertices
    for j, (u, w) in enumerate(g.edges):
        edges[tau[j]] = (sigma[u], sigma[w])
        eperm[tau[j]] = tau[g.eperm[j]]
    for v in range(g.num_vertices):
        vperm[sigma[v]] = sigma[g.vperm[v]]
    label = st.tuples(st.integers(-5, 50), st.integers(-5, 50))
    labels = draw(st.none() | st.lists(label, min_size=g.num_vertices,
                                       max_size=g.num_vertices).map(tuple))
    return ActionGraph(g.num_vertices, edges, vperm, eperm, labels)


class TestTextFormat:
    @settings(deadline=None, max_examples=200)
    @given(relabelled_templates())
    def test_format_then_parse_is_the_identity(self, g):
        assert parse_graph(format_graph(g)) == g

    def test_round_trip(self):
        g = generate(TypeB(1, 3, 4), 12)
        parsed = parse_graph(format_graph(g))
        assert parsed.edges == g.edges
        assert parsed.vperm == g.vperm and parsed.eperm == g.eperm

    @pytest.mark.parametrize(
        "cls, m, line",
        [
            (TypeB(1, 3, 4), 12, "action vperm=(1 2 3) eperm=(0 1 2 3 4 5 6 7 8 9 10 11)"),
            (TypeA(5, 2, 1), 5, "action vperm=(0 1 2 3 4) eperm=(0 1 2 3 4)"),
            (TypeA(1, 1, 2), 2, "action vperm=() eperm=(0 1)"),
        ],
    )
    def test_action_line_omits_fixed_points(self, cls, m, line):
        assert format_graph(generate(cls, m)).splitlines()[-1] == line

    def test_labels_round_trip(self):
        base = generate(TypeA(1, 1, 3), 3)
        labeled = ActionGraph(1, base.edges, base.vperm, base.eperm, labels=((2, 1),))
        parsed = parse_graph(format_graph(labeled))
        assert parsed.labels == ((2, 1),)

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_graph("0 1\naction vperm=() eperm=()")
