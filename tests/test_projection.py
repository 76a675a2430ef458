from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekit.fixtures import random_axes_system
from cubekit.graphs import UnitGraph, path_graph, spider_graph
from cubekit import projection
from cubekit.projection import (
    ProjectionError,
    ProjectionSystem,
    QuasitreeParameterError,
    axes_in_tree_system,
    build_quasitree,
    piece_embedding_check,
    verify_projection_axioms,
)
from helpers import (
    chain_system,
    check_bbf_distance_formula,
    cycle_graph,
    flat_distance,
    flat_projection,
    flat_sum,
    oracle_metric,
    p1_violation_system,
    tripod_system,
    two_piece_system,
)


# --- axiom verification ---------------------------------------------------


def test_two_pieces_theta_is_max_diameter():
    pieces = (path_graph(6), path_graph(6))
    proj = {(0, 1): frozenset([1, 3]), (1, 0): frozenset([0])}
    rep = verify_projection_axioms(ProjectionSystem(pieces, proj, 2))
    assert rep.p0_max == 2
    assert rep.theta_min == 2  # no triples, so (P1) is vacuous
    assert rep.ok and not rep.p1_violations


def test_missing_projection_entry():
    with pytest.raises(ProjectionError, match="missing"):
        ProjectionSystem((path_graph(2), path_graph(2)), {(0, 1): frozenset([0])}, 0)


def test_axes_in_tree_axioms_pass():
    s = random_axes_system(120, 5, seed=2)
    rep = verify_projection_axioms(s)
    assert rep.ok
    assert rep.theta_min == s.theta


def test_p1_violation_flagged():
    s = p1_violation_system()
    rep = verify_projection_axioms(s)
    assert not rep.ok
    assert rep.p1_violations
    # the violating triple names piece 0 and piece 1 as loud middles
    mids = {t[1] for t in rep.p1_violations} | {t[2] for t in rep.p1_violations}
    assert 0 in mids and 1 in mids
    assert rep.theta_min == 10


def test_p2_census_reported():
    rep = verify_projection_axioms(chain_system(12))
    assert rep.p2_counts[(0, 2)] == 1  # piece B is loud for the pair (A, C)


def test_p1_second_largest_consequence():
    s = random_axes_system(80, 4, seed=3)
    rep = verify_projection_axioms(s)
    for i in range(s.count):
        for j in range(i + 1, s.count):
            for l in range(j + 1, s.count):
                vals = sorted(
                    [s.dpi_table[i][j][l], s.dpi_table[j][i][l], s.dpi_table[l][i][j]], reverse=True
                )
                assert vals[1] <= s.theta


# --- axes fixtures -----------------------------------------------------------


def test_disjoint_edges_of_spider():
    tree = spider_graph(2, 2)
    s = axes_in_tree_system(tree, [[1, 2], [3, 4]])
    assert s.proj[(0, 1)] == frozenset([0])  # the center-adjacent vertex
    assert s.proj[(1, 0)] == frozenset([0])
    assert s.theta == 0


def test_tripod_projections_are_center():
    s = tripod_system(4)
    assert s.theta == 0
    for (i, j), sub in s.proj.items():
        assert sub == frozenset([0])


def test_axes_rejects_bad_input():
    tree = spider_graph(2, 2)
    with pytest.raises(ProjectionError, match="tree"):
        axes_in_tree_system(cycle_graph(4), [[0, 1], [2, 3]])
    with pytest.raises(ProjectionError, match="geodesic|adjacent"):
        axes_in_tree_system(tree, [[1, 0, 2], [2, 4]])
    with pytest.raises(ProjectionError, match="coincide"):
        axes_in_tree_system(tree, [[1, 2], [2, 1]])


# --- quasitree assembly --------------------------------------------------------


def test_two_piece_single_attachment():
    s = two_piece_system(5, 7, 2, 3)
    q = build_quasitree(s, K=1, L=1)
    assert q.attachments == ((0, 1),)
    assert q.connected
    # the L-edge joins the two projection points
    assert q.dist(q.offsets[0] + 2, q.offsets[1] + 3) == 1


def test_tripod_all_attached():
    s = tripod_system(3)
    q = build_quasitree(s, K=5, L=1)
    assert q.attachments == ((0, 1), (0, 2), (1, 2))
    # leaf of piece 0 to leaf of piece 1: 3 along, 1 across, 3 along
    assert q.dist(q.offsets[0] + 3, q.offsets[1] + 3) == 7


def test_chain_gate_blocks_far_pair():
    s = chain_system(12)
    q = build_quasitree(s, K=5, L=1)
    assert (0, 2) not in q.attachments
    assert (0, 1) in q.attachments and (1, 2) in q.attachments
    # the A -> C route runs through B
    d = q.dist(q.offsets[0], q.offsets[2])
    assert d == 1 + 12 + 1


def test_refuses_k_below_theta():
    s = p1_violation_system()  # declared theta = 1
    with pytest.raises(QuasitreeParameterError):
        build_quasitree(s, K=0, L=1)


def test_edges_monotone_in_k():
    s = chain_system(9)
    q_small = build_quasitree(s, K=2, L=1)
    q_big = build_quasitree(s, K=20, L=1)
    assert set(q_small.attachments) <= set(q_big.attachments)


def test_fractional_length():
    s = two_piece_system(4, 4)
    q = build_quasitree(s, K=1, L=Fraction(3, 2))
    assert q.dist(q.offsets[0], q.offsets[1]) == Fraction(3, 2)
    # a tree with an edge of 3 halves has no index: its matrix, in halves,
    # measures it
    assert q.scale == 2 and q.tree_index is None
    dist = oracle_metric(q.n, q.edges)
    assert all(q.dist(a, b) == dist(a, b) for a in range(q.n) for b in range(q.n))
    assert all(q.distance_matrix[a, b] == 2 * dist(a, b) for a in range(q.n) for b in range(q.n))


# (system, K): tree quasitrees, then ones with cycles
QUASITREES = {
    "two-piece": (lambda: two_piece_system(5, 7, 2, 3), 1),
    "chain-gated": (lambda: chain_system(6), 0),
    "chain-cycle": (lambda: chain_system(6), 50),
    "axes-40": (lambda: random_axes_system(40, 4, seed=0), 6),
    "axes-30": (lambda: random_axes_system(30, 3, seed=5), 9),
}


@pytest.mark.parametrize("L", [1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)], ids=str)
@pytest.mark.parametrize("case", list(QUASITREES))
def test_dist_matches_the_weighted_oracle_at_every_L(case, L):
    make, K = QUASITREES[case]
    q = build_quasitree(make(), K=K, L=L)
    # only a tree of unit edges has an index
    assert (q.tree_index is not None) == (case.startswith(("two", "chain-gated")) and L == 1)
    assert q.scale == Fraction(L).denominator
    dist = oracle_metric(q.n, q.edges)
    for a in range(q.n):
        assert [q.dist(a, b) for b in range(q.n)] == [dist(a, b) for b in range(q.n)]
        assert q.distance_matrix[a].tolist() == [dist(a, b) * q.scale for b in range(q.n)]


@pytest.mark.parametrize(
    "L", [Fraction(1, 10**22), 10**22, Fraction(10**22 + 1, 10**22)], ids=["fine", "coarse", "near-1"]
)
def test_refuses_L_beyond_exact_int64_distances(L):
    with pytest.raises(QuasitreeParameterError, match=r"L=.* is out of range"):
        build_quasitree(two_piece_system(4, 4), K=1, L=L)
    # the bound is on (n-1) * max(numerator, denominator), the longest scaled path
    assert build_quasitree(two_piece_system(4, 4), K=1, L=Fraction(1, 2**40 // 7)).scale == 2**40 // 7


@pytest.mark.parametrize("L", [1, 2, 5])
def test_tree_quasitree_index_reads_its_weighted_metric(L):
    q = build_quasitree(two_piece_system(5, 7, 2, 3), K=1, L=L)
    assert len(q.edges) == q.n - 1 and q.connected
    dist = oracle_metric(q.n, q.edges)
    D = np.array([[dist(a, b) for b in range(q.n)] for a in range(q.n)])
    assert (q.distance_matrix == D).all() and q.dist(q.offsets[0] + 2, q.offsets[1] + 3) == L
    if L == 1:  # unit edges: the graph's index, reading the same metric
        assert q.tree_index is q.graph.tree_index
        u, v = np.arange(q.n)[:, None], np.arange(q.n)
        assert (q.tree_index.dist(u, v) == D).all()
    else:  # a longer gluing edge: no index, the matrix measures the tree
        assert q.tree_index is None
    # no index once the glued space has a cycle
    assert build_quasitree(tripod_system(3), K=5, L=L).tree_index is None


@pytest.mark.parametrize("L", [Fraction(3, 2), 2], ids=str)
def test_a_glued_tree_at_other_lengths_is_measured_by_its_scaled_matrix(L):
    q = build_quasitree(two_piece_system(5, 7, 2, 3), K=1, L=L)
    assert q.connected and len(q.edges) == q.n - 1 and q.tree_index is None
    dist = oracle_metric(q.n, q.edges)
    D = np.array([[int(dist(a, b) * q.scale) for b in range(q.n)] for a in range(q.n)])
    assert q.distance_matrix.dtype == np.int64 and (q.distance_matrix == D).all()
    # the graph, lengths dropped, still has its unit index
    assert q.graph.tree_index.dist(q.offsets[0] + 2, q.offsets[1] + 3) == 1


@pytest.mark.parametrize("L", [Fraction(3, 2), Fraction(1, 3)], ids=str)
def test_a_tree_of_one_scaled_weight_is_its_graph_times_that_weight(L, monkeypatch):
    # one piece: every edge weighs scale units, so no Dial search is run
    tree = spider_graph(4, 5)
    q = build_quasitree(ProjectionSystem((tree,), {}), K=1, L=L)
    assert q.tree_weight == q.scale > 1 and q.tree_index is None
    monkeypatch.setattr(projection, "integer_distance_matrix", None)
    D = q.distance_matrix
    dist = oracle_metric(q.n, q.edges)
    assert D.dtype == np.int64 and (D == q.scale * tree.distance_matrix).all()
    assert all(D[a, b] == dist(a, b) * q.scale for a in range(q.n) for b in range(q.n))
    # two weights in one tree: no one weight, the matrix comes from Dial's search
    assert build_quasitree(two_piece_system(5, 7, 2, 3), K=1, L=L).tree_weight is None


# --- flat projections and distances -------------------------------------------


@pytest.fixture(scope="module")
def tripod_q():
    return build_quasitree(tripod_system(4), K=5, L=1)


def test_flat_projection_identity(tripod_q):
    x = tripod_q.offsets[0] + 2
    assert flat_projection(tripod_q, 0, x) == frozenset([x])


def test_flat_projection_table(tripod_q):
    x = tripod_q.offsets[1] + 3
    assert flat_projection(tripod_q, 0, x) == frozenset(
        tripod_q.offsets[0] + v for v in tripod_q.system.proj[(0, 1)]
    )


def test_flat_projection_domain_checks(tripod_q):
    with pytest.raises(ProjectionError):
        flat_projection(tripod_q, 9, 0)
    with pytest.raises(ProjectionError):
        flat_projection(tripod_q, 0, 10**6)


def test_flat_distance_cases(tripod_q):
    a = tripod_q.offsets[0] + 1
    b = tripod_q.offsets[0] + 4
    assert flat_distance(tripod_q, 0, a, a) == 0
    assert flat_distance(tripod_q, 0, a, b) == 3  # within-piece distance
    c = tripod_q.offsets[1] + 2
    d = tripod_q.offsets[2] + 2
    # both project to the center of piece 0
    assert flat_distance(tripod_q, 0, c, d) == 0


def test_flat_distance_symmetric_triangle(tripod_q):
    rng = np.random.default_rng(12)
    theta = tripod_q.system.theta
    for _ in range(40):
        x, y, z = (int(v) for v in rng.integers(0, tripod_q.n, size=3))
        for U in range(3):
            dxy = flat_distance(tripod_q, U, x, y)
            assert dxy == flat_distance(tripod_q, U, y, x)
            assert flat_distance(tripod_q, U, x, x) == 0
            assert dxy <= (
                flat_distance(tripod_q, U, x, z)
                + flat_distance(tripod_q, U, z, y)
                + 2 * theta
            )


# --- the distance formula -------------------------------------------------------


def test_df_trivial_diagonal(tripod_q):
    rep = check_bbf_distance_formula(tripod_q, Kprime=6, samples=[(0, 0)])
    assert rep.all_lower_ok and rep.all_upper_ok
    assert rep.samples[0].true_distance == 0


def test_df_two_piece():
    s = two_piece_system(9, 9, 4, 4)
    q = build_quasitree(s, K=1, L=1)
    pairs = [(a, b) for a in range(q.n) for b in range(q.n)]
    rep = check_bbf_distance_formula(q, Kprime=2, samples=pairs)
    assert rep.all_lower_ok and rep.all_upper_ok


def test_df_axes_in_tree_random_pairs():
    s = random_axes_system(150, 6, seed=4)
    q = build_quasitree(s, K=max(4 * s.theta + 2, 4), L=1)
    rng = np.random.default_rng(13)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, q.n, size=(60, 2))]
    rep = check_bbf_distance_formula(q, Kprime=q.K + 1, samples=pairs)
    assert rep.all_lower_ok and rep.all_upper_ok
    assert rep.max_lower_ratio <= 2


@pytest.mark.parametrize("n", [20, 40, 60])
@pytest.mark.parametrize("lines", [3, 4, 5])
def test_quasitree_distances_obey_the_bbf_distance_formula(n, lines):
    """sum_{>=K'}/2 <= d <= 6K + 4 sum_{>=K} (Bestvina, Bromberg and
    Fujiwara 2015) on 100 sampled pairs of the quasitree of each system, at
    K = 2 theta + 1 and 3 theta + 2, with K' = K + 1."""
    for seed in range(15):
        s = random_axes_system(n, lines, seed)
        rng = np.random.default_rng(seed)
        for K in (2 * s.theta + 1, 3 * s.theta + 2):
            q = build_quasitree(s, K, 1)
            pairs = rng.integers(0, q.n, size=(100, 2)).tolist()
            rep = check_bbf_distance_formula(q, K + 1, pairs)
            assert rep.all_lower_ok and rep.all_upper_ok, (seed, K)


def test_df_rejects_bad_kprime(tripod_q):
    with pytest.raises(ProjectionError):
        check_bbf_distance_formula(tripod_q, Kprime=tripod_q.K, samples=[(0, 1)])


def test_flat_sum_threshold():
    s = chain_system(12)
    q = build_quasitree(s, K=5, L=1)
    a = q.offsets[0]
    c = q.offsets[2]
    # only the middle piece exceeds the threshold for the far pair
    assert flat_sum(q, a, c, 6) == 12


# --- piece embeddings ------------------------------------------------------------


def test_single_piece_embedding():
    s = ProjectionSystem((path_graph(5),), {}, 0)
    q = build_quasitree(s, K=0, L=1)
    rep = piece_embedding_check(q, 0)
    assert rep.isometric and rep.totally_geodesic


def test_two_piece_embedding_large_l():
    s = two_piece_system(6, 6, 2, 2)
    q = build_quasitree(s, K=1, L=4)
    for U in (0, 1):
        rep = piece_embedding_check(q, U)
        assert rep.isometric and rep.totally_geodesic


def test_tripod_embedding(tripod_q):
    for U in range(3):
        rep = piece_embedding_check(tripod_q, U)
        assert rep.isometric and rep.totally_geodesic


# --- tree-shaped quasitrees ------------------------------------------------------


@st.composite
def tree_chain_systems(draw):
    """One to three random tree pieces with one-vertex projections, glued
    at K = 1 into a chain 0 - 1 - 2: piece 1 sends pieces 0 and 2 to two
    ends of a diameter, at least 2 apart, so 0 and 2 never attach."""
    k = draw(st.integers(1, 3))
    pieces = []
    for i in range(k):
        n = draw(st.integers(3 if i == 1 else 1, 12))
        pieces.append(UnitGraph(n, tuple((draw(st.integers(0, j - 1)), j) for j in range(1, n))))
    proj = {}
    for i in range(k):
        spot = frozenset([draw(st.integers(0, pieces[i].n - 1))])
        for j in range(k):
            if j != i:
                proj[(i, j)] = spot
    if k == 3:
        D = pieces[1].distance_matrix
        a, b = np.unravel_index(np.argmax(D), D.shape)
        proj[(1, 0)], proj[(1, 2)] = frozenset([int(a)]), frozenset([int(b)])
    return ProjectionSystem(tuple(pieces), proj, 0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tree_chain_systems(), st.sampled_from([1, 3]))
def test_tree_shaped_quasitree_matches_dijkstra(s, L):
    q = build_quasitree(s, K=1, L=L)
    assert q.connected and len(q.edges) == q.n - 1
    u, v, w = np.array(q.edges, dtype=np.int64).reshape(-1, 3).T
    adj = sp.csr_matrix((w, (u, v)), shape=(q.n, q.n))
    expected = csgraph.shortest_path(adj, method="D", directed=False)
    assert q.distance_matrix.dtype == np.int64
    assert (q.distance_matrix == expected).all()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.integers(0, 2**16),
    st.sampled_from([(20, 3), (30, 4)]),
    st.integers(0, 2),
    st.sampled_from([1, 3]),
)
def test_glued_quasitree_matches_dijkstra(seed, shape, extra_K, L):
    try:
        s = random_axes_system(*shape, seed)
    except ValueError:  # the lines could not be placed
        return
    q = build_quasitree(s, K=s.theta + extra_K, L=L)
    u, v, w = np.array(q.edges, dtype=np.int64).reshape(-1, 3).T
    adj = sp.csr_matrix((w, (u, v)), shape=(q.n, q.n))
    expected = csgraph.shortest_path(adj, method="D", directed=False)
    expected[np.isinf(expected)] = -1
    assert q.distance_matrix.dtype == np.int64
    assert (q.distance_matrix == expected).all()


# --- serialization -----------------------------------------------------------------


def test_system_json_roundtrip():
    s = tripod_system(3)
    assert ProjectionSystem.from_dict(s.to_dict()).proj == s.proj

