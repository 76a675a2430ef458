"""The measure path of `psi` and `df-check`: coarse medians, the quasimedian
defect, the orbit table, product distances and the distance-formula fit.

Each batched routine is checked against the per-triple or per-pair rule of
`helpers`, on random trees with axes (tree domains) and on grids carrying a
grid domain with two-point projections (a non-tree domain).  Examples are
derandomized, so the suite stays deterministic.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubekit.embedding import (
    PsiImage,
    _max_ratio,
    build_coloured_system,
    default_constants,
    measure_embedding,
    psi_map,
    quasimedian_defect,
)
from cubekit.fixtures import tree_with_axes
from cubekit.graphs import grid_graph, path_graph
from cubekit.hhs import (
    BLOCK,
    REL_ORTH,
    Domain,
    HHSInstance,
    distance_formula_fit,
    find_bbf_colouring,
    hhs_median,
    projection_sum,
)
from cubekit.projection import ProjectionError
from helpers import (
    oracle_all_dists,
    oracle_codomain_median,
    oracle_coarse_median,
    oracle_df_fit,
    oracle_is_tree,
    oracle_kappa,
    oracle_metric,
    oracle_orbit,
    oracle_set_dist,
)

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def axes_instances(draw):
    """Random trees with 2-4 transverse axes, with or without the tree domain."""
    try:
        return tree_with_axes(
            draw(st.integers(12, 30)),
            draw(st.integers(2, 4)),
            draw(st.integers(0, 40)),
            include_tree_domain=draw(st.booleans()),
        )
    except ValueError:
        assume(False)


@st.composite
def grid_instances(draw):
    """A rows x cols grid with 1-4 pairwise orthogonal domains drawn from: the
    grid itself, where each vertex projects to itself and maybe a neighbour,
    and the two coordinate lines.  E is 0, so any threshold s >= 0 is
    allowed."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    g = grid_graph(rows, cols)
    pi = tuple(
        frozenset([v, draw(st.sampled_from(g.neighbors(v)))]) if draw(st.booleans())
        else frozenset([v])
        for v in range(g.n)
    )
    specs = {
        "whole": (g, pi),
        "x": (path_graph(cols), tuple(frozenset([v % cols]) for v in range(g.n))),
        "y": (path_graph(rows), tuple(frozenset([v // cols]) for v in range(g.n))),
    }
    kept = draw(st.lists(st.sampled_from(sorted(specs)), min_size=1, max_size=4))
    ids = [f"{k}{j}" for j, k in enumerate(kept)]
    doms = tuple(
        Domain(
            id=i, space=specs[k][0], pi=specs[k][1],
            rel={j: REL_ORTH for j in ids if j != i}, rho={},
        )
        for i, k in zip(ids, kept)
    )
    return HHSInstance(ambient=g, domains=doms, E=0)


def oracle_domains(h):
    return [
        (
            oracle_all_dists(d.space.n, d.space.edges),
            [set(p) for p in d.pi],
            oracle_is_tree(d.space.n, d.space.edges),
        )
        for d in h.domains
    ]


def random_triples(h, data, most):
    """Up to `most` random triples; past BLOCK, runs of BLOCK, 2 * BLOCK and
    more triples are drawn as often as short runs."""
    size = data.draw(st.integers(1, min(most, 20)) | st.integers(min(most, BLOCK), most))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, h.n, size=(size, 3))


# ---------------------------------------------------------------------------
# coarse medians


def check_hhs_median(h, xyz):
    x, y, z = xyz.T
    best, defect = hhs_median(h, x, y, z)
    domains = oracle_domains(h)
    expected = [oracle_coarse_median(domains, *t) for t in xyz.tolist()]
    assert list(zip(best.tolist(), defect.tolist())) == expected


@PROPERTY
@given(axes_instances(), st.data())
def test_hhs_median_on_arrays_matches_the_per_triple_rule_on_trees(h, data):
    check_hhs_median(h, random_triples(h, data, 3 * BLOCK + 5))


@PROPERTY
@given(grid_instances(), st.data())
def test_hhs_median_on_arrays_matches_the_per_triple_rule_on_a_grid(h, data):
    assume(any(not d.space.is_tree() for d in h.domains))
    check_hhs_median(h, random_triples(h, data, 3 * BLOCK + 5))


# ---------------------------------------------------------------------------
# the coloured system and the quasimedian defect


def coloured(h, L):
    return build_coloured_system(h, find_bbf_colouring(h), default_constants(h)[1], L)


def quasitree_oracles(cs):
    """Per colour, the distance of its quasitree from the exact edge lengths
    of `q.edges` (`oracle_metric`), independent of `QuasiTreeSpace.dist`."""
    return [oracle_metric(q.n, q.edges) for q in cs.quasitrees]


@PROPERTY
@given(axes_instances(), st.sampled_from([1, Fraction(3, 2)]), st.data())
def test_quasimedian_defect_matches_the_per_triple_reference(h, L, data):
    cs = coloured(h, L)
    psi = psi_map(cs)
    xyz = random_triples(h, data, 3 * BLOCK + 5 if L == 1 else 12)
    report = quasimedian_defect(cs, psi, xyz.tolist())

    domains = oracle_domains(h)
    dists = quasitree_oracles(cs)
    rows, fallback = [], set()
    for t in map(tuple, xyz.tolist()):
        m, _ = oracle_coarse_median(domains, *t)
        defect = Fraction(0)
        for ci, (q, dist) in enumerate(zip(cs.quasitrees, dists)):
            a, b, c = (psi.maps[ci][v] for v in t)
            mu, flagged = oracle_codomain_median(dist, q.n, a, b, c)
            if flagged:
                fallback.add(ci)
            defect += dist(psi.maps[ci][m], mu)
        rows.append((t, defect))
    counts = Counter(d for _, d in rows)
    assert report.triples == tuple(rows)
    assert report.histogram == tuple((str(k), counts[k]) for k in sorted(counts))
    assert report.fallback_colours == tuple(sorted(fallback))
    assert report.max_defect == max(d for _, d in rows)


def oracle_class(h, cls):
    doms = [h.by_id[i] for i in cls]
    return [
        (
            U.dist.tolist(),
            [set(p) for p in U.pi],
            [None if V.id == U.id else set(h.rho_of(V, U)) for V in doms],
        )
        for U in doms
    ]


@PROPERTY
@given(axes_instances(), st.data())
def test_orbit_table_and_slack_match_the_per_vertex_loop(h, data):
    cs = coloured(h, 1)
    slack = 0
    for ci, cls in enumerate(cs.class_ids):
        table, s = oracle_orbit(h.n, oracle_class(h, cls))
        assert cs.orbit[ci] == tuple(table)
        slack = max(slack, s)
    assert cs.orbit_slack == slack

    orbit = [
        [data.draw(st.sampled_from(cls)) for _ in range(h.n)] for cls in cs.class_ids
    ]
    given_cs = build_coloured_system(h, cs.colouring, cs.quasitrees[0].K, 1, orbit=orbit)
    slack = 0
    for ci, cls in enumerate(cs.class_ids):
        table = [cls.index(u) for u in orbit[ci]]
        assert given_cs.orbit[ci] == tuple(table)
        slack = max(slack, oracle_orbit(h.n, oracle_class(h, cls), table)[1])
    assert given_cs.orbit_slack == slack


@PROPERTY
@given(axes_instances(), st.sampled_from([1, Fraction(3, 2)]), st.data())
def test_measure_embedding_sums_the_colour_distances_per_pair(h, L, data):
    cs = coloured(h, L)
    psi = psi_map(cs)
    pairs = random_triples(h, data, 40)[:, :2].tolist()
    assume(len(pairs) >= 2)
    report = measure_embedding(cs, psi, pairs)
    dist = oracle_all_dists(h.n, h.ambient.edges)
    qdists = quasitree_oracles(cs)
    expected = [
        ((x, y), dist[x][y], sum(qd(m[x], m[y]) for qd, m in zip(qdists, psi.maps)))
        for x, y in pairs
    ]
    assert report.samples == tuple(expected)


@PROPERTY
@given(axes_instances(), st.sampled_from([1, Fraction(3, 2)]), st.data())
def test_measure_embedding_kappa_matches_the_fraction_loop(h, L, data):
    """Kappa against the per-pair Fraction loop, for psi and for a psi that
    collapses each even vertex onto the next one's image (pairs with
    d_G > 0 = d_product); pairs (x, x) give d_G = 0."""
    cs = coloured(h, L)
    psi = psi_map(cs)
    collapsed = PsiImage(tuple(tuple(m[v - v % 2] for v in range(h.n)) for m in psi.maps))
    pairs = random_triples(h, data, 40)[:, :2].tolist() + [[0, 0], [0, 1]]
    dist = oracle_all_dists(h.n, h.ambient.edges)
    qdists = quasitree_oracles(cs)
    for image in (psi, collapsed):
        report = measure_embedding(cs, image, pairs)
        rows = [
            ((x, y), dist[x][y], sum(qd(m[x], m[y]) for qd, m in zip(qdists, image.maps)))
            for x, y in pairs
        ]
        k_low, k_up, add = oracle_kappa(rows)
        assert (report.kappa_lower, report.kappa_upper, report.additive) == (k_low, k_up, add)
        assert report.kappa == max(k_low, k_up, add)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 10**9), st.integers(1, 10**9)), max_size=12), st.data())
def test_max_ratio_is_the_exact_maximum(pairs, data):
    # ratios (b + k) / (b + k - 1) near 1 + 1/b tie in floating point
    b = data.draw(st.integers(10**8, 10**9))
    pairs += [(b + k, b + k - 1) for k in data.draw(st.lists(st.integers(0, 3), max_size=3))]
    num = np.array([p for p, _ in pairs], dtype=np.int64)
    den = np.array([q for _, q in pairs], dtype=np.int64)
    expected = max([Fraction(1)] + [Fraction(p, q) for p, q in pairs])
    assert _max_ratio(num, den, Fraction(1)) == expected


@PROPERTY
@given(st.lists(st.tuples(st.integers(2**53, 2**62), st.integers(2**53, 2**62)), max_size=8), st.data())
def test_max_ratio_is_exact_beyond_two_to_the_53(pairs, data):
    # (b + k) / (b + k - 1) and (b + 1) / b tie in floating point near 1 + 1/b
    b = data.draw(st.integers(2**53, 2**62))
    pairs += [(b + k, b + k - 1) for k in data.draw(st.lists(st.integers(0, 3), max_size=3))]
    pairs += [(b + 1, b)]
    num = np.array([p for p, _ in pairs], dtype=np.int64)
    den = np.array([q for _, q in pairs], dtype=np.int64)
    expected = max([Fraction(1)] + [Fraction(p, q) for p, q in pairs])
    assert _max_ratio(num, den, Fraction(1)) == expected


def test_max_ratio_compares_cross_products_beyond_int64():
    # three ratios that are all 1.0 in floating point; the last is the largest
    num = np.array([2**60 + 1, 2**60 + 3, 2**60], dtype=np.int64)
    den = np.array([2**60, 2**60 + 2, 2**60 - 1], dtype=np.int64)
    assert _max_ratio(num, den, Fraction(1)) == Fraction(2**60, 2**60 - 1)
    # here the float maximum is the second ratio, the exact one the first
    num = np.array([3086372285490380906, 3086372285490383755], dtype=np.int64)
    den = np.array([3086372285490380682, 3086372285490383569], dtype=np.int64)
    assert (num / den).argmax() == 1
    assert _max_ratio(num, den, Fraction(1)) == Fraction(int(num[0]), int(den[0]))
    num = np.array([3, 2**62], dtype=np.int64)
    den = np.array([2**61, 1], dtype=np.int64)
    assert _max_ratio(num, den, Fraction(1)) == 2**62


def test_disconnected_quasitree_names_the_pair():
    """A colour whose quasitree lost its gluing edges has -1 distances between
    pieces; the batched paths raise what QuasiTreeSpace.dist raises for the
    first pair it would have been asked for."""
    h = tree_with_axes(30, 3, 0)
    cs = coloured(h, 1)
    q = cs.quasitrees[0]
    assert q.system.count > 1
    cut = dataclasses.replace(
        q,
        edges=tuple(e for e in q.edges if q.piece_of[e[0]] == q.piece_of[e[1]]),
        attachments=(),
        connected=False,
    )
    cut_cs = dataclasses.replace(cs, quasitrees=(cut,) + cs.quasitrees[1:])
    psi = psi_map(cut_cs)
    assert (cut.distance_matrix < 0).any()

    triples = [(x, (x * 7 + 3) % h.n, (x * 11 + 5) % h.n) for x in range(h.n)]
    domains = oracle_domains(h)
    with pytest.raises(ProjectionError) as expected:
        for t in triples:
            m, _ = oracle_coarse_median(domains, *t)
            for ci, qc in enumerate(cut_cs.quasitrees):
                raw = qc.distance_matrix
                a, b, c = (psi.maps[ci][v] for v in t)
                mu, _ = oracle_codomain_median(lambda u, v: int(raw[u, v]), qc.n, a, b, c)
                qc.dist(psi.maps[ci][m], mu)
    with pytest.raises(ProjectionError) as got:
        quasimedian_defect(cut_cs, psi, triples)
    assert str(got.value) == str(expected.value)

    pairs = [t[:2] for t in triples]
    with pytest.raises(ProjectionError) as expected:
        for x, y in pairs:
            for qc, m in zip(cut_cs.quasitrees, psi.maps):
                qc.dist(m[x], m[y])
    with pytest.raises(ProjectionError) as got:
        measure_embedding(cut_cs, psi, pairs)
    assert str(got.value) == str(expected.value)

    # two cut colours: the first pair that breaks colour 1 comes before the
    # first that breaks colour 0, and it is the one named
    m0 = psi.maps[0]
    m1 = np.roll(m0, -1)  # m0 rotated: m1[g] = m0[g + 1]
    two = dataclasses.replace(cs, quasitrees=(cut, cut))
    apart = next(
        (x, y) for x in range(h.n) for y in range(h.n)
        if cut.piece_of[m0[x]] != cut.piece_of[m0[y]]
    )
    early = next(
        (x, y) for x in range(h.n) for y in range(h.n)
        if cut.piece_of[m0[x]] == cut.piece_of[m0[y]]
        and cut.piece_of[m1[x]] != cut.piece_of[m1[y]]
    )
    with pytest.raises(ProjectionError) as got:
        measure_embedding(two, PsiImage((m0, m1)), [early, apart])
    assert str(got.value) == f"vertices {m1[early[0]]},{m1[early[1]]} are in different components"


# ---------------------------------------------------------------------------
# distance-formula fit


def check_df_fit(h, s, pairs):
    fit = distance_formula_fit(h, s, pairs)
    dist = oracle_all_dists(h.n, h.ambient.edges)
    rows = []
    for x, y in pairs:
        d_U = [oracle_set_dist(d.dist.tolist(), d.pi[x], d.pi[y]) for d in h.domains]
        S = sum(v for v in d_U if v > s)
        rows.append(((x, y), dist[x][y], S))
    xy = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    assert projection_sum(h, xy[:, 0], xy[:, 1], s).tolist() == [S for _, _, S in rows]
    assert fit.samples == tuple(rows)
    # the Fraction loop would count A up to 2^20 on a row that no A fits
    assume(s > 0 or all(S > 0 for _, d, S in rows if d > 0))
    assert (fit.A, fit.B, fit.max_upper_slack, fit.max_lower_slack) == oracle_df_fit(rows, s)


@PROPERTY
@given(
    grid_instances(),
    st.sampled_from([0, 1, Fraction(3, 2), 2, 5]),
    st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=30),
)
def test_distance_formula_fit_matches_the_fraction_loop_on_grids(h, s, pairs):
    check_df_fit(h, s, [(x % h.n, y % h.n) for x, y in pairs])


@PROPERTY
@given(axes_instances(), st.sampled_from([0, 1, Fraction(1, 2)]), st.data())
def test_distance_formula_fit_matches_the_fraction_loop_on_trees(h, extra, data):
    pairs = random_triples(h, data, 60)[:, :2].tolist()
    check_df_fit(h, 100 * h.E + extra, pairs)


def test_distance_formula_fit_gives_up_past_2_to_the_20():
    """At s = 0 a pair at distance 1 with projection sum 0 needs 1 <= A*0: no
    A fits, so the search stops at A = 2^20 + 1 (in about 20 steps, not 2^20).
    There A*B = A*max(d - A*S) = A, so B = 1, the upper slack is
    B + (A*S - d) = 0 and the lower slack B + d - S/A = 2."""
    g = grid_graph(2, 3)
    x = Domain(
        id="x", space=path_graph(3), pi=tuple(frozenset([v % 3]) for v in range(6)),
        rel={}, rho={},
    )
    h = HHSInstance(ambient=g, domains=(x,), E=0)
    fit = distance_formula_fit(h, 0, [(0, 3)])
    assert fit.samples == (((0, 3), 1, 0),)
    assert (fit.A, fit.B, fit.max_upper_slack, fit.max_lower_slack) == ((1 << 20) + 1, 1, 0, 2)
