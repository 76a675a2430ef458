"""Direct tests of `applications`."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekit import applications
from cubekit.applications import (
    PipelineError,
    TreeProduct,
    bounded_packing_count,
    coarse_helly_experiment,
    promote_to_cube_complex,
    tree_approximate,
)
from cubekit.cli import main
from cubekit.embedding import (
    EmbeddingError,
    build_coloured_system,
    default_constants,
    psi_map,
)
from cubekit.fixtures import tree_with_axes
from cubekit.graphs import UnitGraph, path_graph, random_tree, tree_metrics
from cubekit.hhs import find_bbf_colouring, product_region, space_hull
from cubekit.median import BLOCK
from cubekit.projection import ProjectionSystem, build_quasitree
from helpers import identity_instance, oracle_tree_approximate

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


def test_tree_product_size_is_exact_and_ids_fit_in_int64():
    # 300^7 ~ 2.2e17 ids fit in int64; the last id decodes to the far corner
    space = TreeProduct((path_graph(300),) * 7)
    assert space.n == 300**7
    assert [int(c[0]) for c in space.decode_bulk([space.n - 1])] == [299] * 7
    assert space.pairwise_distances([0, space.n - 1])[0, 1] == 7 * 299


def test_tree_product_too_large_for_int64_is_refused():
    # 300^8 ~ 6.6e19 > 2^63: np.prod wrapped this to a negative size
    with pytest.raises(PipelineError, match="int64"):
        TreeProduct((path_graph(300),) * 8)


# ---------------------------------------------------------------------------
# promotion


def test_a_disconnected_graph_fails_with_a_witness(tmp_path, capsys):
    # a promoted closure is connected by construction; a disconnected graph
    # reaches the same refusal through median-check: exit 1 with the witness
    inp = tmp_path / "two.json"
    inp.write_text('{"n":2,"edges":[]}', encoding="utf-8")
    assert main(["median-check", "--in", str(inp)]) == 1
    err = capsys.readouterr().err
    assert "no path joins vertex 0 to vertex 1" in err and "Traceback" not in err


def test_promoted_corner_path_and_square():
    # two opposite corners of a 2x2 square, bridged through the lesser corner
    res = promote_to_cube_complex([(0, 0), (1, 1)], (path_graph(2), path_graph(2)), 2)
    assert res.vertex_tuples == ((0, 0), (0, 1), (1, 1))
    assert res.skeleton.hyperplanes == (((0, 1),), ((1, 2),))
    assert res.skeleton.halfspaces == (
        (frozenset({0}), frozenset({1, 2})),
        (frozenset({0, 1}), frozenset({2})),
    )
    assert (res.dimension, res.input_size, res.closure_size, res.hausdorff) == (1, 2, 3, 1)
    # the whole square: its two hyperplanes cross
    full = promote_to_cube_complex([(0, 0), (0, 1), (1, 0), (1, 1)], (path_graph(2),) * 2, 1)
    assert full.skeleton.hyperplanes == (((0, 1), (2, 3)), ((0, 2), (1, 3)))
    assert full.dimension == 2


# ---------------------------------------------------------------------------
# packing


def _oracle_packing(h, family, R):
    """Largest pairwise R-close subfamily, least in lexicographic order."""
    close = lambda i, j: min(int(h.dist[a, b]) for a in family[i] for b in family[j]) <= R
    for size in range(len(family), 0, -1):
        for sub in itertools.combinations(range(len(family)), size):
            if all(close(i, j) for i, j in itertools.combinations(sub, 2)):
                return size, sub
    return 0, ()


def test_packing_is_exact_up_to_twenty_members():
    h = identity_instance(random_tree(30, np.random.default_rng(3)))
    rng = np.random.default_rng(4)
    perm = rng.permutation(h.n).tolist()
    family = [sorted(perm[i : i + 2]) for i in range(0, 24, 2)]  # 12 disjoint pairs
    for R in (1, 2, 3, 4):
        assert bounded_packing_count(h, family, R) == _oracle_packing(h, family, R)
    path = identity_instance(path_graph(25))
    assert bounded_packing_count(path, [[v] for v in range(20)], 2) == (3, (0, 1, 2))


def test_packing_is_greedy_beyond_twenty_members():
    # 25 singletons on a path: the greedy pass starts from the best-connected
    # member, so it finds a largest clique but not the least one
    h = identity_instance(path_graph(25))
    family = [[v] for v in range(25)]
    assert bounded_packing_count(h, family, 1) == (2, (1, 2))
    assert bounded_packing_count(h, family, 2) == (3, (2, 3, 4))


def test_packing_rejects_overlapping_members():
    h = identity_instance(path_graph(5))
    with pytest.raises(EmbeddingError, match="overlap at 2"):
        bounded_packing_count(h, [[0, 1, 2], [2, 3]], 1)
    # an empty member has no gap to the others
    with pytest.raises(EmbeddingError, match="member 1 is empty"):
        bounded_packing_count(h, [[0], [], [3]], 1)


# ---------------------------------------------------------------------------
# coarse Helly


@pytest.fixture(scope="module")
def helly_setup():
    h = tree_with_axes(30, 4, 0)
    _, K = default_constants(h)
    cs = build_coloured_system(h, find_bbf_colouring(h), K, 1)
    psi = psi_map(cs)
    sets = [sorted(r) for r in (product_region(h, u) for u in sorted(h.domain_ids())) if r][:3]
    trees = [tree_approximate(q) for q in cs.quasitrees]
    return h, cs, psi, sets, trees


def test_coarse_helly_point_is_close_to_every_set(helly_setup):
    h, cs, psi, sets, trees = helly_setup
    res = coarse_helly_experiment(cs, psi, sets, 5, trees)
    assert len(sets) == 3 and res.hull_bound_ok  # trees have dimension 1
    assert res.r == max(min(int(h.dist[res.center, v]) for v in S) for S in sets)
    # each colour's Helly point lies within the inflation of every set's hull
    for ci, tree in enumerate(trees):
        D = tree.tree.distance_matrix
        for S in sets:
            hull = np.flatnonzero(space_hull(D, [psi.maps[ci][z] for z in S]))
            assert int(D[res.helly_points[ci], hull].min()) <= res.inflation
    # the centre is an ambient vertex whose image is l1-nearest the Helly points
    l1 = [sum(int(t.tree.distance_matrix[psi.maps[ci][g], res.helly_points[ci]])
              for ci, t in enumerate(trees)) for g in range(h.n)]
    assert l1[res.center] == min(l1) and res.center == l1.index(min(l1))


def test_coarse_helly_refuses_sets_farther_apart_than_r(helly_setup):
    h, cs, psi, sets, trees = helly_setup
    d = int(h.dist[np.ix_(sets[0], sets[1])].min())
    with pytest.raises(EmbeddingError, match=f"sets 0 and 1 are {d} apart"):
        coarse_helly_experiment(cs, psi, sets[:2], d - 1, trees)


# ---------------------------------------------------------------------------
# tree approximation


@st.composite
def small_trees(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    return UnitGraph(n, tuple((draw(st.integers(0, i - 1)), i) for i in range(1, n)))


@st.composite
def quasitrees(draw):
    """The quasitree of 1-3 random tree pieces with random shadows, glued
    with edges of length L in {1, 2, 3}, its vertices relabelled.  K is large,
    so every pair of pieces is glued and the space is connected."""
    pieces = tuple(draw(small_trees()) for _ in range(draw(st.integers(1, 3))))
    proj = {
        (i, j): frozenset(draw(st.sets(st.integers(0, p.n - 1), min_size=1, max_size=2)))
        for i, p in enumerate(pieces)
        for j in range(len(pieces))
        if i != j
    }
    q = build_quasitree(ProjectionSystem(pieces, proj, 0), 10**6, draw(st.sampled_from([1, 2, 3])))
    perm = draw(st.permutations(range(q.n)))
    return relabel_quasitree(q, perm)


def relabel_quasitree(q, perm):
    piece_of = [0] * q.n
    for v, p in enumerate(q.piece_of):
        piece_of[perm[v]] = p
    return dataclasses.replace(
        q,
        edges=tuple((perm[u], perm[v], w) for u, v, w in q.edges),
        piece_of=tuple(piece_of),
    )


def check_tree_approximate(q, max_roots=64):
    res = tree_approximate(q, max_roots)
    root, add, mult, tree = oracle_tree_approximate(q.n, q.edges, max_roots)
    assert (res.root, res.additive, res.multiplicative) == (root, add, mult)
    assert list(res.tree.edges) == tree
    # the tree carries the metric it was scored on, the same as a fresh one
    assert "distance_matrix" in vars(res.tree)
    assert "tree_index" not in vars(res.tree)  # built on first use
    carried = res.tree.distance_matrix
    assert carried.dtype == np.int32
    assert (carried == UnitGraph(q.n, res.tree.edges).distance_matrix).all()
    return res


@PROPERTY
@given(quasitrees(), st.sampled_from([2, 5, 64]))
def test_tree_approximate_matches_the_per_root_oracle(q, max_roots):
    check_tree_approximate(q, max_roots)


def test_a_quasitree_that_is_a_tree_is_its_own_approximation():
    tree = random_tree(25, np.random.default_rng(5))
    q = build_quasitree(ProjectionSystem((tree,), {}, 0), 1, 1)
    res = check_tree_approximate(q)
    assert (res.root, res.additive, res.multiplicative) == (0, 0, 1)
    assert res.tree == tree


@st.composite
def tree_quasitrees(draw):
    """The quasitree of one or two random tree pieces, two glued at one
    point each by one edge of length 1 (K is large), its vertices
    relabelled: a tree of unit edges."""
    pieces = tuple(draw(small_trees()) for _ in range(draw(st.integers(1, 2))))
    proj = {}
    if len(pieces) == 2:
        proj = {(i, 1 - i): frozenset([draw(st.integers(0, p.n - 1))]) for i, p in enumerate(pieces)}
    q = build_quasitree(ProjectionSystem(pieces, proj, 0), 10**6, 1)
    return relabel_quasitree(q, draw(st.permutations(range(q.n))))


def counting_tree_metrics(monkeypatch) -> list[int]:
    """Count the candidate trees the root search scores."""
    scored = []

    def counted(parent):
        scored.append(len(parent))
        return tree_metrics(parent)

    monkeypatch.setattr(applications, "tree_metrics", counted)
    return scored


@PROPERTY
@given(tree_quasitrees(), st.sampled_from([2, 64]))
def test_a_unit_tree_quasitree_returns_itself_without_the_search(q, max_roots):
    assert q.tree_index is not None
    with pytest.MonkeyPatch.context() as mp:
        scored = counting_tree_metrics(mp)
        res = check_tree_approximate(q, max_roots)
    assert scored == []
    assert (res.root, res.additive, res.multiplicative) == (0, 0, 1)
    assert sorted(res.tree.edges) == sorted((min(u, v), max(u, v)) for u, v, _ in q.edges)


def test_a_tree_quasitree_with_longer_edges_goes_through_the_search(monkeypatch):
    # at L = 2 the glued space is still a tree, but its gluing edge weighs
    # 2, so every root is scored and the distortion is measured
    pieces = (path_graph(4), random_tree(6, np.random.default_rng(3)))
    q = build_quasitree(ProjectionSystem(pieces, {(0, 1): {2}, (1, 0): {5}}, 0), 10**6, 2)
    assert q.tree_index is not None and len(q.edges) == q.n - 1
    scored = counting_tree_metrics(monkeypatch)
    res = check_tree_approximate(q)
    assert scored and res.additive == 1


def test_a_one_vertex_quasitree():
    q = build_quasitree(ProjectionSystem((path_graph(1),), {}, 0), 1, 1)
    res = check_tree_approximate(q)
    assert (res.tree.n, res.tree.edges, res.root, res.additive, res.multiplicative) == (
        1, (), 0, 0, 1,
    )


def test_past_max_roots_only_every_stride_th_vertex_is_a_root():
    pieces = (random_tree(9, np.random.default_rng(6)), path_graph(8))
    q = build_quasitree(ProjectionSystem(pieces, {(0, 1): {3, 4}, (1, 0): {0, 7}}, 0), 10, 2)
    q = relabel_quasitree(q, np.random.default_rng(7).permutation(q.n).tolist())
    assert q.n == 17
    res = check_tree_approximate(q, max_roots=4)  # stride 17 // 4 = 4
    assert res.root in (0, 4, 8, 12, 16)


def test_distinct_candidates_past_one_block_are_all_scored(monkeypatch):
    """The 37-vertex quasitree of tree_with_axes(100, 4, 2) has 18 distinct
    candidate trees; at BLOCK ** 2 // 37 ** 2 = 11 trees a block the kernel
    yields two blocks, and the winner may come from either."""
    blocks = []

    def counted(parent):
        for block in tree_metrics(parent):
            blocks.append(len(block))
            yield block

    monkeypatch.setattr(applications, "tree_metrics", counted)
    h = tree_with_axes(100, 4, 2)
    _, K = default_constants(h)
    q = build_coloured_system(h, find_bbf_colouring(h), K, 1).quasitrees[0]
    assert q.n == 37 and BLOCK**2 // q.n**2 == 11
    check_tree_approximate(q)
    assert blocks == [11, 7]


def test_tree_approximate_refuses_disconnected_and_fraction_spaces():
    pieces = (path_graph(3), path_graph(3))
    system = ProjectionSystem(pieces, {(0, 1): {0}, (1, 0): {2}}, 0)
    q = build_quasitree(system, 10, 1)
    cut = dataclasses.replace(
        q, edges=tuple(e for e in q.edges if q.piece_of[e[0]] == q.piece_of[e[1]]),
        connected=False,
    )
    with pytest.raises(PipelineError, match="disconnected"):
        tree_approximate(cut)
    with pytest.raises(PipelineError, match="integer edge lengths"):
        tree_approximate(build_quasitree(system, 10, Fraction(3, 2)))


def test_tree_shorter_than_its_quasitree_is_reported_two_sided():
    """At L = 2 a unit tree edge can stand for a quasitree edge of length 2,
    so the tree may be shorter than the quasitree: the report counts that."""
    h = tree_with_axes(200, 4, 0)
    _, K = default_constants(h)
    cs = build_coloured_system(h, find_bbf_colouring(h), K, 2)
    q = cs.quasitrees[0]
    res = check_tree_approximate(q)
    diff = res.tree.distance_matrix - q.distance_matrix
    assert diff.min() < 0
    assert res.additive == int(np.abs(diff).max()) >= 2
