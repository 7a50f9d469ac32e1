"""Tests for hypergraph theory: GYO, join trees, edge cover LPs."""

import pytest

from repro.query.hypergraph import Hypergraph, join_tree, uniform_cardinalities
from repro.query.parser import parse_query

TRIANGLE = parse_query("T(x,y,z) :- R:E(x,y), S:E(y,z), T:E(z,x).")
PATH = parse_query("P(x,z) :- R(x,y), S(y,z).")
CLIQUE4 = parse_query(
    "C(x,y,z,p) :- R:E(x,y), S:E(y,z), T:E(z,p), P:E(p,x), K:E(x,z), L:E(y,p)."
)
STAR = parse_query("Q(a) :- HA(h, aw), HC(h, a), HY(h, y).")


class TestGYO:
    def test_triangle_is_cyclic(self):
        assert Hypergraph(TRIANGLE).is_cyclic()

    def test_path_is_acyclic(self):
        assert Hypergraph(PATH).is_acyclic()

    def test_star_is_acyclic(self):
        assert Hypergraph(STAR).is_acyclic()

    def test_clique_is_cyclic(self):
        assert Hypergraph(CLIQUE4).is_cyclic()

    def test_rectangle_is_cyclic(self):
        rect = parse_query("Q(x,y,z,p) :- R:E(x,y), S:E(y,z), T:E(z,p), K:E(p,x).")
        assert Hypergraph(rect).is_cyclic()

    def test_single_atom_is_acyclic(self):
        single = parse_query("Q(x,y) :- R(x,y).")
        result = Hypergraph(single).gyo_reduction()
        assert result.acyclic
        assert result.root == "R"

    def test_join_tree_structure_of_chain(self):
        chain = parse_query("Q(a) :- R(x,y), S(y,z), T(z,a).")
        tree = join_tree(chain)
        assert tree.acyclic
        # root holds the others directly or transitively
        aliases = {"R", "S", "T"}
        assert set(tree.parents) == aliases
        assert sum(1 for parent in tree.parents.values() if parent is None) == 1

    def test_join_tree_raises_on_cyclic(self):
        with pytest.raises(ValueError):
            join_tree(TRIANGLE)

    def test_removal_order_lists_non_roots(self):
        tree = join_tree(STAR)
        assert set(tree.removal_order) | {tree.root} == {"HA", "HC", "HY"}

    def test_children_inverse_of_parents(self):
        tree = join_tree(STAR)
        for child in tree.removal_order:
            parent = tree.parents[child]
            assert child in tree.children(parent)

    def test_q3_shape_is_acyclic_and_q4_cyclic(self):
        from repro.workloads import Q3, Q4

        assert Hypergraph(Q3).is_acyclic()
        assert Hypergraph(Q4).is_cyclic()


class TestEdgeCover:
    def test_triangle_agm_bound(self):
        m = 10_000
        bound = Hypergraph(TRIANGLE).agm_bound(uniform_cardinalities(TRIANGLE, m))
        assert bound == pytest.approx(m**1.5, rel=1e-6)

    def test_path_agm_bound_is_product(self):
        m = 1000
        bound = Hypergraph(PATH).agm_bound(uniform_cardinalities(PATH, m))
        assert bound == pytest.approx(m**2, rel=1e-6)

    def test_cover_weights_cover_every_vertex(self):
        hg = Hypergraph(CLIQUE4)
        cover = hg.fractional_edge_cover(uniform_cardinalities(CLIQUE4, 500))
        for vertex in hg.vertices:
            weight = sum(
                cover[edge.alias] for edge in hg.edges if vertex in edge.variables
            )
            assert weight >= 1 - 1e-6

    def test_clique4_agm_bound_is_m_squared(self):
        # the 4-clique with 6 edges has fractional cover number 2
        m = 1000
        bound = Hypergraph(CLIQUE4).agm_bound(uniform_cardinalities(CLIQUE4, m))
        assert bound == pytest.approx(m**2, rel=1e-4)
