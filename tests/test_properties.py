"""Property tests of facts the program relies on without re-checking them.

Halfspace convexity and the dimension of the hyperplane pass, medianness of
trees, uniqueness of gates on tree geodesics, the component labelling, the
median closure and the lowest-common-ancestor medians of a product of trees
are taken on trust at run time; here they are checked against the
brute-force oracles of `helpers` on small grids, hypercubes, random trees and
products of trees.  The component labelling over arc lists, the maximal
clique search and the promoted skeleton (its edges and BFS metric against
the product metric) are checked the same way.  The tree hull, read off the
preorder runs, is checked against the all-pairs hull, and a graph that is
no tree is refused.  The median operation of
products of random trees obeys the median axioms, and a wallspace comes
back from its dual cube complex, whose orientation search matches the
enumeration of all orientations and whose skeleton, read off that search,
matches the hyperplane pass of its graph.  The median closure of seeds that
grow matches the saturation oracle and finds each point once.  One step
`toward` a target is the least neighbour one step closer, in graphs and in
products of trees, over arrays as for one pair; the bridges walked together
are the lex-least geodesics, and the bridging of pieces matches the
piece-pair loop it replaced.  The numpy edge check agrees with the
edge-by-edge loop, result or message.  The kernels that read the rank, the
blocked counts and the Hausdorff distance off the flips of the orientation
search match the (walls x walls) and (closure x A) products they replaced,
and a tree's parent-climbing path is its lex-least geodesic.
Examples are derandomized, so the suite stays deterministic.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubekit.applications import TreeProduct, promote_to_cube_complex
from cubekit.graphs import (
    GraphError,
    UnitGraph,
    arc_component_labels,
    component_labels,
    gate_map,
    grid_graph,
    maximal_cliques,
)
from cubekit.hhs import space_hull
from cubekit.jsonio import decode_number, encode_number
from cubekit.walls import (
    Orientation,
    Wallspace,
    dual_cube_complex,
)
from cubekit.median import (
    MedianAlgebra,
    connectify_and_close_in,
    is_median_graph,
    lex_least_geodesics,
    orientation_search,
)
from helpers import (
    GraphMedianSpace,
    check_isometric_subalgebra,
    closure_of,
    complete_bipartite_graph,
    crossing_dimension,
    cycle_graph,
    halfspaces,
    hypercube_graph,
    lex_geodesic,
    lex_least_geodesic,
    minimal_connection_constant,
    oracle_all_dists,
    oracle_bridge,
    oracle_canonical_edges,
    oracle_closure,
    oracle_hamming_hausdorff,
    oracle_hull,
    oracle_interval_closure,
    oracle_is_coherent,
    oracle_max_crossing,
    oracle_medians_of,
    oracle_orientation_search,
    oracle_toward,
    principal_orientation,
    shaped_trees,
    skeleton_of,
    walls_of_skeleton,
)

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def trees(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    return UnitGraph(n, tuple((draw(st.integers(0, i - 1)), i) for i in range(1, n)))


@st.composite
def relabelled_trees(draw, max_n=12):
    """Random trees with permuted labels: vertex 0, the root of the ancestor
    tables, may be any vertex, and a parent may carry a larger label."""
    return relabel(draw(trees(max_n=max_n)), draw)


def relabel(g: UnitGraph, draw) -> UnitGraph:
    perm = draw(st.permutations(range(g.n)))
    return UnitGraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def tree_product(*factors: UnitGraph) -> UnitGraph:
    """Cartesian product, vertices mixed-radix encoded as in TreeProduct:
    (x, y) has index x * b.n + y for factors (a, b)."""
    g = factors[0]
    for b in factors[1:]:
        edges = [(u * b.n + y, v * b.n + y) for u, v in g.edges for y in range(b.n)]
        edges += [(x * b.n + u, x * b.n + v) for x in range(g.n) for u, v in b.edges]
        g = UnitGraph(g.n * b.n, tuple(edges))
    return g


@st.composite
def median_graphs(draw):
    """A grid, hypercube, tree or product of two trees, vertices relabelled."""
    kind = draw(st.sampled_from(["grid", "cube", "tree", "product"]))
    if kind == "grid":
        g = grid_graph(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    elif kind == "cube":
        g = hypercube_graph(draw(st.integers(0, 4)))
    elif kind == "tree":
        g = draw(trees())
    else:
        g = tree_product(draw(trees(max_n=5)), draw(trees(max_n=5)))
    return relabel(g, draw)


@st.composite
def tree_factors(draw):
    """Two or three small relabelled trees, at most 36 product vertices."""
    count = draw(st.integers(2, 3))
    return tuple(draw(relabelled_trees(max_n=6 if count == 2 else 3)) for _ in range(count))


def _crosses(h, k) -> bool:
    return all(a & b for a in h for b in k)


def oracle_dimension(halfspaces) -> int:
    """Largest family of pairwise-crossing hyperplanes, by exhaustive search."""
    for size in range(len(halfspaces), 0, -1):
        for fam in itertools.combinations(halfspaces, size):
            if all(_crosses(h, k) for h, k in itertools.combinations(fam, 2)):
                return size
    return 0


@PROPERTY
@given(median_graphs())
def test_halfspaces_are_convex_and_dimension_is_max_crossing(g):
    skel = skeleton_of(g)
    for h0, h1 in halfspaces(skel):
        assert h0 | h1 == frozenset(range(g.n)) and not h0 & h1
        for side in (h0, h1):
            assert oracle_interval_closure(g.n, g.edges, side) == set(side)
    assert skel.dimension == oracle_dimension(halfspaces(skel))


@PROPERTY
@given(trees())
def test_trees_are_median_graphs(tree):
    dist = oracle_all_dists(tree.n, tree.edges)
    for x, y, z in itertools.combinations(range(tree.n), 3):
        assert len(oracle_medians_of(dist, x, y, z)) == 1
    assert is_median_graph(tree) == (True, None)


@PROPERTY
@given(trees(min_n=2), st.data())
def test_gate_map_is_the_nearest_point_of_a_tree_path(tree, data):
    a, b = data.draw(st.lists(st.integers(0, tree.n - 1), min_size=2, max_size=2))
    path = lex_geodesic(tree, a, b)
    dist = oracle_all_dists(tree.n, tree.edges)
    gates = gate_map(tree.distance_matrix, path)
    for v in range(tree.n):
        best = min(dist[v][p] for p in path)
        assert [p for p in path if dist[v][p] == best] == [gates[v]]


def oracle_labels(adj) -> list[int]:
    """Components numbered by depth-first search from the least unseen vertex."""
    k = len(adj)
    label = [-1] * k
    nxt = 0
    for s in range(k):
        if label[s] >= 0:
            continue
        stack = [s]
        label[s] = nxt
        while stack:
            i = stack.pop()
            for j in range(k):
                if adj[i][j] and label[j] < 0:
                    label[j] = nxt
                    stack.append(j)
        nxt += 1
    return label


@PROPERTY
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_component_labels_match_search_order(k, seed, step):
    rng = np.random.default_rng(seed)
    sub = rng.integers(0, 6, size=(k, k))
    sub = np.minimum(sub, sub.T)
    np.fill_diagonal(sub, 0)
    adj = sub <= step
    assert component_labels(adj).tolist() == oracle_labels(adj.tolist())


@PROPERTY
@given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20))
def test_arc_component_labels_match_search_order(k, arcs):
    # arcs in one direction only, with loops and repeats
    arcs = [(a % k, b % k) for a, b in arcs]
    adj = np.zeros((k, k), dtype=bool)
    for a, b in arcs:
        adj[a, b] = adj[b, a] = True
    u, v = np.array(arcs, dtype=np.int64).reshape(-1, 2).T
    assert arc_component_labels(k, u, v).tolist() == oracle_labels(adj.tolist())


def oracle_maximal_cliques(adj) -> list[tuple[int, ...]]:
    """Every clique no vertex can join, by exhaustive search over subsets."""
    k = len(adj)
    clique = lambda c: all(adj[i][j] for i, j in itertools.combinations(c, 2))
    return [
        c
        for size in range(1, k + 1)
        for c in itertools.combinations(range(k), size)
        if clique(c) and not any(clique(c + (v,)) for v in range(k) if v not in c)
    ]


@PROPERTY
@given(st.integers(0, 12), st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.5, 0.8]))
def test_maximal_cliques_match_brute_force(k, seed, density):
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((k, k)) < density, 1)
    adj = adj | adj.T
    expected = oracle_maximal_cliques(adj.tolist())
    found = maximal_cliques(adj)
    assert sorted(found) == sorted(expected) and len(set(found)) == len(found)
    # the packing count's choice: largest, then lexicographically least
    key = lambda c: (-len(c), c)
    assert min(found, key=key, default=()) == min(expected, key=key, default=())


@st.composite
def product_subsets(draw):
    """Vertex ids of a tree product: the product with a few vertices removed
    (often connected and not isometric), or the median closure of a small
    seed bridged at a random C."""
    space = TreeProduct(draw(tree_factors()))
    holes = draw(st.sets(st.integers(0, space.n - 1), max_size=space.n // 3))
    ids = [v for v in range(space.n) if v not in holes]
    if draw(st.booleans()):
        seed = ids[:: max(1, len(ids) // 4)][:4]
        least = max(1, minimal_connection_constant(space.pairwise_distances(seed), range(len(seed))))
        C = least + draw(st.integers(0, 1))
        ids = sorted(connectify_and_close_in(space, seed, C).closure)
    return space, ids


@settings(derandomize=True, max_examples=80, deadline=None)
@given(product_subsets())
def test_path_metric_check_matches_bfs(subset):
    """promote builds its skeleton from the orientation search and checks no
    path metric at run time; against the product metric, the graph is
    connected, its edges are exactly the closure's pairs at distance 1, its
    BFS metric is the product metric, and the Hausdorff distance is exact."""
    space, ids = subset
    C = max(1, minimal_connection_constant(space.pairwise_distances(ids), range(len(ids))))
    res = promote_to_cube_complex(np.stack(space.decode_bulk(ids), axis=1), space.factors, C)
    closure = [space.encode(t) for t in res.vertex_tuples]
    pd = space.pairwise_distances(closure)
    g = res.skeleton.graph
    assert g.is_connected()
    assert g.edges == tuple(map(tuple, np.argwhere(np.triu(pd == 1, 1)).tolist()))
    assert (g.distance_matrix == pd).all()
    assert res.hausdorff == pd[:, np.searchsorted(closure, ids)].min(axis=1).max()


def test_path_metric_check_refuses_the_cycle_around_a_grid_centre():
    # the 8-cycle around the centre of the 3 x 3 grid: corners at cycle
    # distance 4, grid distance 2; its closure takes the centre back, and
    # the promoted grid has the product metric as its BFS metric
    space = TreeProduct((UnitGraph(3, ((0, 1), (1, 2))),) * 2)
    ring = sorted(v for v in range(9) if v != 4)
    pd = space.pairwise_distances(ring)
    g = UnitGraph(8, np.argwhere(np.triu(pd == 1, 1)).tolist())
    assert g.is_connected() and len(g.edges) == 8
    assert not (g.distance_matrix == pd).all()
    res = promote_to_cube_complex(np.stack(space.decode_bulk(ring), axis=1), space.factors, 1)
    closure = [space.encode(t) for t in res.vertex_tuples]
    assert closure == list(range(9)) and res.isometric and res.hausdorff == 1
    full = space.pairwise_distances(closure)
    assert (res.skeleton.graph.distance_matrix == full).all()
    assert (grid_graph(3, 3).distance_matrix == full).all()


@PROPERTY
@given(st.fractions(max_denominator=50) | st.integers(-10**6, 10**6), st.integers(1, 5))
def test_number_codec_round_trip(x, scale):
    f = Fraction(x)
    # [p, q] need not be in lowest terms; an integral value decodes to int
    unreduced = [f.numerator * scale, f.denominator * scale]
    for back in (decode_number(encode_number(x)), decode_number(unreduced)):
        assert back == x
        assert isinstance(back, int) == (f.denominator == 1)


@PROPERTY
@given(median_graphs(), st.data())
def test_closure_of_matches_the_saturation_oracle(g, data):
    seed = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=4))
    expected = oracle_closure(g.n, g.edges, seed)
    assert closure_of(GraphMedianSpace(g), seed) == frozenset(expected)


@PROPERTY
@given(tree_factors(), st.data())
def test_tree_product_medians_match_the_explicit_product(factors, data):
    space = TreeProduct(factors)
    D = tree_product(*factors).distance_matrix
    k = data.draw(st.integers(1, 20))
    vertices = st.lists(st.integers(0, space.n - 1), min_size=k, max_size=k)
    a, b, c = (np.array(data.draw(vertices)) for _ in range(3))

    def brute(triples):
        return [oracle_medians_of(D, *t)[0] for t in triples]

    assert space.median_bulk(a, b, c).tolist() == brute(zip(a, b, c))
    x, z = int(a[0]), int(c[0])
    assert space.median_bulk(x, b, z).tolist() == brute((x, y, z) for y in b)
    assert space.median_bulk(a, b, z).tolist() == brute((p, y, z) for p, y in zip(a, b))


@PROPERTY
@given(tree_factors(), st.data())
def test_tree_product_closure_matches_the_saturation_oracle(factors, data):
    product = tree_product(*factors)
    seed = data.draw(st.sets(st.integers(0, product.n - 1), min_size=1, max_size=4))
    expected = oracle_closure(product.n, product.edges, seed)
    assert closure_of(TreeProduct(factors), seed) == frozenset(expected)


class RecordingSpace:
    """A median space that keeps the vertices its vertices_of returns."""

    def __init__(self, space):
        self.space, self.found = space, []

    def wall_sides(self, verts):
        return self.space.wall_sides(verts)

    def vertices_of(self, sides):
        self.found.append(self.space.vertices_of(sides))
        return self.found[-1]


@st.composite
def growing_seeds(draw):
    """A median space, a grid or a product of trees, explicit or not, and a
    seed of 3 to 8 vertices, usually one whose closure grows."""
    kind = draw(st.sampled_from(["grid", "explicit", "product"]))
    if kind == "grid":
        g = grid_graph(draw(st.integers(3, 5)), draw(st.integers(3, 5)))
        space = GraphMedianSpace(relabel(g, draw))
    elif kind == "explicit":
        g = tree_product(draw(trees(min_n=4, max_n=6)), draw(trees(min_n=4, max_n=6)))
        space = GraphMedianSpace(relabel(g, draw))
    else:
        space = TreeProduct(tuple(draw(trees(min_n=3, max_n=5)) for _ in range(3)))
    seed = draw(st.sets(st.integers(0, space.n - 1), min_size=3, max_size=8))
    return space, seed


def explicit_graph(space) -> UnitGraph:
    return space.graph if isinstance(space, MedianAlgebra) else tree_product(*space.factors)


@PROPERTY
@given(growing_seeds())
def test_closure_of_growing_seeds_matches_the_saturation_oracle(case):
    space, seed = case
    g = explicit_graph(space)
    assert closure_of(space, seed) == frozenset(oracle_closure(g.n, g.edges, seed))


@PROPERTY
@given(growing_seeds())
def test_closure_search_finds_each_point_once(case):
    # one orientation per closure point: the layers hold no repeat, and
    # the one batched pass back to vertices maps them to distinct points
    space, seed = case
    recording = RecordingSpace(space)
    closure = closure_of(recording, seed)
    assume(len(closure) > len(seed))
    [found] = recording.found
    assert sorted(found.tolist()) == sorted(closure)


@st.composite
def large_tree_factors(draw):
    """Two relabelled trees of 20 to 40 vertices each."""
    return tuple(relabel(draw(trees(min_n=20, max_n=40)), draw) for _ in range(2))


@settings(derandomize=True, max_examples=15, deadline=None)
@given(large_tree_factors(), st.data())
def test_tree_product_medians_on_large_factors_with_repeated_operands(factors, data):
    space = TreeProduct(factors)
    explicit = MedianAlgebra(tree_product(*factors), 2)
    vertices = st.lists(st.integers(0, space.n - 1), min_size=40, max_size=40)
    a, b, c = (np.array(data.draw(vertices)) for _ in range(3))
    b[:10], c[10:20] = a[:10], b[10:20]  # a = b, then b = c
    c[20:25] = b[20:25] = a[20:25]  # a = b = c
    meds = space.median_bulk(a, b, c)
    assert meds.tolist() == explicit.median_bulk(a, b, c).tolist()
    assert (meds[:10] == a[:10]).all() and (meds[10:25] == b[10:25]).all()
    x, z = int(a[0]), int(c[0])
    assert space.median_bulk(x, b, z).tolist() == explicit.median_bulk(x, b, z).tolist()


def _assert_walks_are_the_geodesics(space, graph, us, vs):
    """The batched walk, bridge by bridge, against `lex_least_geodesic` and
    the explicit graph's `lex_geodesic`; and array `toward` against scalar
    `toward` elementwise."""
    walks = lex_least_geodesics(space, us, vs)
    for i, (a, b) in enumerate(zip(us, vs)):
        path = lex_least_geodesic(space, a, b)
        assert path == lex_geodesic(graph, a, b)
        assert walks[: len(path), i].tolist() == path and (walks[len(path) :, i] == b).all()
    pairs = [(a, b) for a, b in zip(us, vs) if a != b]
    if pairs:
        u, v = np.array(pairs).T
        assert space.toward(u, v).tolist() == [space.toward(a, b) for a, b in pairs]


@PROPERTY
@given(tree_factors(), st.data())
def test_tree_product_lex_least_geodesic_matches_the_explicit_product(factors, data):
    space = TreeProduct(factors)
    a, b = data.draw(st.lists(st.integers(0, space.n - 1), min_size=2, max_size=2))
    assert lex_least_geodesic(space, a, b) == lex_geodesic(tree_product(*factors), a, b)
    ends = st.lists(st.integers(0, space.n - 1), min_size=1, max_size=8)
    us = data.draw(ends)
    vs = data.draw(st.lists(st.integers(0, space.n - 1), min_size=len(us), max_size=len(us)))
    _assert_walks_are_the_geodesics(space, tree_product(*factors), us, vs)


@st.composite
def trees_and_grids(draw):
    """A relabelled tree of two or more vertices, or a relabelled grid."""
    if draw(st.booleans()):
        return relabel(draw(trees(min_n=2)), draw)
    return relabel(grid_graph(draw(st.integers(1, 4)), draw(st.integers(2, 4))), draw)


@PROPERTY
@given(trees_and_grids())
def test_toward_is_the_least_neighbour_one_step_closer(g):
    m = GraphMedianSpace(g)
    for v in range(g.n):
        expected = oracle_toward(g.n, g.edges, v)
        for u in range(g.n):
            if u != v:
                assert m.toward(u, v) == expected[u]


@PROPERTY
@given(trees_and_grids(), st.data())
def test_batched_walks_on_graphs_are_the_lex_least_geodesics(g, data):
    vertices = st.lists(st.integers(0, g.n - 1), min_size=1, max_size=8)
    us = data.draw(vertices)
    vs = data.draw(st.lists(st.integers(0, g.n - 1), min_size=len(us), max_size=len(us)))
    _assert_walks_are_the_geodesics(GraphMedianSpace(g), g, us, vs)


@PROPERTY
@given(tree_factors())
def test_tree_product_toward_matches_the_explicit_product(factors):
    space, product = TreeProduct(factors), tree_product(*factors)
    for v in range(space.n):
        expected = oracle_toward(product.n, product.edges, v)
        for u in range(space.n):
            if u != v:
                assert space.toward(u, v) == expected[u]
    # from a neighbour, the one step lands on the target
    for u, v in product.edges:
        assert space.toward(u, v) == v and space.toward(v, u) == u


def _has_tied_closest_pairs(pd: np.ndarray, pieces: np.ndarray, C: int) -> bool:
    """Whether two pieces at most C apart have more than one closest pair."""
    for p, q in itertools.permutations(range(pieces.max() + 1), 2):
        block = pd[np.ix_(pieces == p, pieces == q)]
        if block.min() <= C and (block == block.min()).sum() > 1:
            return True
    return False


@st.composite
def scattered_seeds(draw):
    """The product of two relabelled trees of 4 to 7 vertices, its explicit
    graph, and a seed of three to five points, each with up to two of its
    neighbours: pieces of one to three points, often parallel, so that two
    pieces tend to have more than one closest pair."""
    factors = tuple(relabel(draw(trees(min_n=4, max_n=7)), draw) for _ in range(2))
    product = tree_product(*factors)
    centers = draw(st.sets(st.integers(0, product.n - 1), min_size=3, max_size=5))
    seed = set(centers)
    for c in sorted(centers):
        seed |= draw(st.sets(st.sampled_from(product.adjacency[c]), max_size=2))
    return factors, product, sorted(seed)


@PROPERTY
@given(scattered_seeds(), st.data())
def test_bridging_matches_the_piece_pair_oracle(case, data):
    # three or more pieces, and a closest distance reached by two pairs:
    # the bridge must start from the lexicographically least of them
    factors, product, seed = case
    space = TreeProduct(factors)
    pd = space.pairwise_distances(seed)
    pieces = component_labels(pd <= 1)
    least = max(1, minimal_connection_constant(pd, range(len(seed))))
    C = data.draw(st.integers(least, least + 2))
    assume(pieces.max() >= 2 and _has_tied_closest_pairs(pd, pieces, C))
    expected = oracle_bridge(product, seed, C)
    assert connectify_and_close_in(space, seed, C).a_prime == frozenset(expected)


@PROPERTY
@given(tree_factors(), st.data())
def test_promoted_skeleton_matches_the_graph_hyperplane_pass(factors, data):
    # promote reads the Theta-classes off the orientation search and trusts
    # the closure to be a median graph; the graph pass re-derives both
    space = TreeProduct(factors)
    ids = sorted(data.draw(st.sets(st.integers(0, space.n - 1), min_size=1, max_size=5)))
    pd = space.pairwise_distances(ids)
    least = max(1, minimal_connection_constant(pd, range(len(ids))))
    C = data.draw(st.integers(least, max(least, int(pd.max()))))
    res = promote_to_cube_complex(np.stack(space.decode_bulk(ids), axis=1), factors, C)
    g = res.skeleton.graph
    expected = skeleton_of(g)
    assert res.skeleton.hyperplanes == expected.hyperplanes
    assert halfspaces(res.skeleton) == halfspaces(expected)
    assert res.skeleton.dimension == res.dimension == expected.dimension
    assert res.isometric and res.one_connected
    closure = [space.encode(t) for t in res.vertex_tuples]
    explicit = GraphMedianSpace(tree_product(*factors))
    assert check_isometric_subalgebra(explicit, closure)


@st.composite
def hull_points(draw, g):
    """One point, every point, or a list of points with repeats."""
    kind = draw(st.sampled_from(["one", "all", "some"]))
    if kind == "one":
        return [draw(st.integers(0, g.n - 1))]
    if kind == "all":
        return list(range(g.n))
    return draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=8))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(shaped_trees(max_n=40), st.data())
def test_space_hull_matches_the_all_pairs_hull(g, data):
    pts = data.draw(hull_points(g))
    mask = space_hull(g, pts)
    assert np.flatnonzero(mask).tolist() == oracle_hull(g.n, g.edges, pts)


def test_space_hull_refuses_a_graph_that_is_no_tree():
    # K_{2,3} and a 6-cycle have too many edges; a triangle beside a lone
    # vertex has n - 1 edges but no path to the lone vertex
    for g in (complete_bipartite_graph(2, 3), cycle_graph(6), UnitGraph(4, ((0, 1), (1, 2), (0, 2)))):
        with pytest.raises(GraphError):
            space_hull(g, [0, 1])


@PROPERTY
@given(tree_factors())
def test_median_axioms_on_products_of_random_trees(factors):
    """Majority, symmetry and the associativity law
    m(m(x, w, y), w, z) = m(x, w, m(y, w, z)) over every triple and
    quadruple of vertices of the explicit product graph."""
    g = tree_product(*factors)
    m = GraphMedianSpace(g)
    n = g.n
    x, y, z = (a.ravel() for a in np.indices((n, n, n)))
    M = m.median_bulk(x, y, z).reshape(n, n, n)
    v = np.arange(n)
    assert (M[v[:, None], v[:, None], v] == v[:, None]).all()
    for perm in itertools.permutations(range(3)):
        assert (M.transpose(perm) == M).all()
    X, W, Y, Z = np.indices((n, n, n, n))
    assert (M[M[X, W, Y], W, Z] == M[X, W, M[Y, W, Z]]).all()


def wall(points: int, side) -> tuple[frozenset[int], frozenset[int]]:
    """The bipartition {side, rest} of range(points), in Wallspace's order."""
    side = frozenset(side)
    return Wallspace(points, ((side, frozenset(range(points)) - side),)).walls[0]


@st.composite
def wallspaces(draw):
    """Distinct walls on a small ground set: the halfspaces of a random
    median graph with its points relabelled, or random bipartitions."""
    if draw(st.booleans()):
        g = draw(median_graphs())
        return Wallspace(g.n, halfspaces(skeleton_of(g)))
    n = draw(st.integers(2, 6))
    sides = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1), max_size=5))
    return Wallspace(n, tuple(sorted({wall(n, a) for a in sides}, key=lambda w: sorted(w[0]))))


@PROPERTY
@given(wallspaces())
def test_dual_is_every_coherent_orientation_joined_one_wall_apart(w):
    """The orientation search against all 2^k orientations: the dual's
    vertices are the coherent ones, in sorted order, and its edges every
    pair of them that differ on one wall."""
    every = (Orientation(o) for o in itertools.product((0, 1), repeat=len(w.walls)))
    coherent = [o.sides for o in every if oracle_is_coherent(w, o)]
    dual = dual_cube_complex(w)
    assert [o.sides for o in dual.orientations] == coherent
    M = np.array(coherent).reshape(len(coherent), len(w.walls))
    apart = (M[:, None, :] != M[None, :, :]).sum(axis=2) == 1
    assert dual.skeleton.graph.edges == tuple(map(tuple, np.argwhere(np.triu(apart)).tolist()))


@PROPERTY
@given(wallspaces())
def test_wallspace_dual_walls_round_trip(w):
    """The dual's hyperplanes are the walls: its walls split the coherent
    orientations by their side of each wall, and pulled back along
    x -> principal orientation of x they give the walls of w again."""
    dual = dual_cube_complex(w)
    back = walls_of_skeleton(dual.skeleton)
    sides = [o.sides for o in dual.orientations]
    by_wall = {
        wall(len(sides), (j for j, o in enumerate(sides) if o[i] == 0)) for i in range(len(w.walls))
    }
    assert len(back.walls) == len(w.walls)
    assert set(back.walls) == by_wall
    index = {o: j for j, o in enumerate(sides)}
    image = [index[principal_orientation(w, x).sides] for x in range(w.points)]
    pulled = {wall(w.points, (x for x in range(w.points) if image[x] in a)) for a, _ in back.walls}
    assert pulled == set(w.walls)


def _assert_dual_skeleton_is_the_graph_pass(w: Wallspace) -> None:
    """dual reads its hyperplanes, halfspaces and rank off the orientation
    search; recognition and the hyperplane pass of the dual graph agree."""
    dual = dual_cube_complex(w).skeleton
    expected = skeleton_of(dual.graph)
    assert dual.hyperplanes == expected.hyperplanes
    assert halfspaces(dual) == halfspaces(expected)
    assert dual.dimension == expected.dimension == dual.median.rank


@PROPERTY
@given(wallspaces())
def test_dual_skeleton_matches_the_graph_hyperplane_pass(w):
    _assert_dual_skeleton_is_the_graph_pass(w)


def test_dual_skeleton_of_singleton_and_nested_walls_matches_the_graph_pass():
    _assert_dual_skeleton_is_the_graph_pass(Wallspace(1, ()))
    for n in (3, 27):
        _assert_dual_skeleton_is_the_graph_pass(Wallspace(n, tuple(wall(n, [i]) for i in range(n))))
    for k in (1, 5, 12):
        nested = tuple(wall(k + 1, range(i + 1)) for i in range(k))
        _assert_dual_skeleton_is_the_graph_pass(Wallspace(k + 1, nested))


@st.composite
def edge_lists(draw):
    """A vertex count and up to ten edges among its vertices, loops and
    repeats in either direction included, with sometimes one end moved out
    of range."""
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    if edges and draw(st.booleans()):
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = (edges[i][0], draw(st.sampled_from([-1, n, n + 5])))
    return n, edges


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edge_lists())
def test_edge_check_agrees_with_the_edge_loop(case):
    n, edges = case
    # loops, repeats in either direction and ends out of range all occur;
    # the numpy pass must give the loop's edges, or its first message
    try:
        expected = oracle_canonical_edges(n, edges)
    except ValueError as e:
        with pytest.raises(GraphError) as got:
            UnitGraph(n, tuple(edges))
        assert str(got.value) == str(e)
    else:
        g = UnitGraph(n, tuple(edges))
        assert g.edges == expected and g.edge_array.tolist() == [list(e) for e in expected]


def test_an_edge_end_beyond_int64_is_out_of_range():
    with pytest.raises(GraphError, match=r"^edge \(0,1180591620717411303424\) out of range for 3 vertices$"):
        UnitGraph(3, ((0, 2**70),))


# ---------------------------------------------------------------------------
# the kernels read off the flips, against the products they replaced


def _as_traces(T: np.ndarray) -> np.ndarray:
    """T with each row XORed with row 0's, its constant columns dropped and
    its repeated columns kept once, in order: the input of the search."""
    T = T ^ T[0]
    T = T[:, T.any(axis=0)]
    return T[:, np.sort(np.unique(T, axis=1, return_index=True)[1])]


@st.composite
def wall_traces(draw):
    """The walls a seed of 1 to 8 points of a random median graph traces on
    it, or a random bool matrix of up to 8 points and 8 walls."""
    if draw(st.booleans()):
        m = GraphMedianSpace(draw(median_graphs()))
        seed = sorted(draw(st.sets(st.integers(0, m.n - 1), min_size=1, max_size=8)))
        return _as_traces(m.wall_sides(seed))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    return _as_traces(np.array(bits, dtype=bool).reshape(rows, cols))


@PROPERTY
@given(wall_traces())
def test_orientation_search_matches_the_product_search(H):
    # each orientation's blocked counts, carried from its parent, give the
    # same layers and flips as one layer @ step product per layer
    O, flips = orientation_search(H)
    expected_O, expected_flips = oracle_orientation_search(H)
    assert np.array_equal(O, expected_O) and np.array_equal(flips, expected_flips)


@PROPERTY
@given(wallspaces())
def test_dual_rank_is_the_largest_crossing_family(w):
    dual = dual_cube_complex(w)
    O = np.array([o.sides for o in dual.orientations], dtype=bool).reshape(len(dual.orientations), -1)
    assert dual.skeleton.dimension == dual.skeleton.median.rank == oracle_max_crossing(O.T)


@st.composite
def promote_seeds(draw):
    """A product of two or three small trees, a seed of three to eight of
    its vertices (all of them when there are fewer), and a C at which
    the seed is C-connected."""
    space = TreeProduct(draw(tree_factors()))
    seed = sorted(draw(st.sets(st.integers(0, space.n - 1), min_size=min(3, space.n), max_size=8)))
    least = max(1, minimal_connection_constant(space.pairwise_distances(seed), range(len(seed))))
    return space, seed, least + draw(st.integers(0, 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(promote_seeds())
def test_promoted_rank_and_hausdorff_match_the_products(case):
    space, seed, C = case
    res = connectify_and_close_in(space, seed, C)
    at = np.searchsorted(sorted(res.closure), seed)
    assert res.hausdorff == oracle_hamming_hausdorff(res.orientations, at)
    promoted = promote_to_cube_complex(np.stack(space.decode_bulk(seed), axis=1), space.factors, C)
    assert promoted.hausdorff == res.hausdorff
    rank = oracle_max_crossing(res.orientations.T)
    assert promoted.dimension == rank == oracle_max_crossing(promoted.skeleton.sides)


@PROPERTY
@given(median_graphs())
def test_crossing_dimension_is_the_largest_crossing_family(g):
    skel = skeleton_of(g)
    assert crossing_dimension(g) == skel.dimension == oracle_max_crossing(skel.sides)


def test_crossing_dimension_of_grids_hypercubes_and_tree_products():
    assert crossing_dimension(grid_graph(1, 1)) == 0
    assert crossing_dimension(grid_graph(1, 5)) == 1
    assert crossing_dimension(grid_graph(3, 4)) == 2
    for d in range(6):
        assert crossing_dimension(hypercube_graph(d)) == d
    star = UnitGraph(4, ((0, 1), (0, 2), (0, 3)))
    path = UnitGraph(3, ((0, 1), (1, 2)))
    assert crossing_dimension(tree_product(star, path)) == 2
    assert crossing_dimension(tree_product(star, path, star)) == 3


@PROPERTY
@given(relabelled_trees())
def test_tree_path_is_the_lex_least_geodesic(tree):
    # a tree's geodesic is unique, so climbing parents to the lowest common
    # ancestor finds the same path as the next-hop walk
    space = GraphMedianSpace(tree)
    for a in range(tree.n):
        for b in range(tree.n):
            assert tree.tree_index.path(a, b) == lex_least_geodesic(space, a, b)
