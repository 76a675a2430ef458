import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekit.fixtures import (
    product_of_lines,
    spider_with_axes,
    tree_with_axes,
)
from cubekit.graphs import UnitGraph, path_graph
from cubekit.hhs import (
    REL_CONTAINS,
    REL_NESTED,
    REL_ORTH,
    REL_TRANS,
    Domain,
    HHSInstance,
    InstanceError,
    SetRows,
    _pair_consistency,
    distance_formula_fit,
    find_bbf_colouring,
    hhs_median,
    product_region,
    projection_sum,
    validate_instance,
)
from helpers import (
    grid_v,
    identity_instance,
    oracle_all_dists,
    oracle_projection_findings,
    oracle_projection_table,
    oracle_set_dist,
    oracle_tuple_consistency,
)


@pytest.fixture(scope="module")
def grid9():
    return product_of_lines(9)


@pytest.fixture(scope="module")
def spider():
    return spider_with_axes(6, 8)


# --- validation ---------------------------------------------------------------


def test_product_of_lines_valid_with_e_zero(grid9):
    diag = validate_instance(grid9)
    assert diag.ok and diag.E_min == 0 and grid9.E == 0


def test_missing_rho_diagnosed(spider):
    broken = []
    for d in spider.domains:
        if d.id == "axis0":
            broken.append(dataclasses.replace(d, rho={}))
        else:
            broken.append(d)
    h = HHSInstance(spider.ambient, tuple(broken), spider.E)
    diag = validate_instance(h)
    assert not diag.ok
    bad = [f for f in diag.findings if f.check == "rho-presence" and not f.ok]
    assert bad and bad[0].witness == ("axis0", "axis1")


def _with_domain(h, domain_id, **changes):
    doms = tuple(
        dataclasses.replace(d, **changes) if d.id == domain_id else d for d in h.domains
    )
    return HHSInstance(h.ambient, doms, h.E)


def test_missing_relation_diagnosed(spider):
    rel = {k: v for k, v in spider.by_id["axis0"].rel.items() if k != "axis1"}
    diag = validate_instance(_with_domain(spider, "axis0", rel=rel))
    assert not diag.ok
    bad = [f for f in diag.findings if f.check == "relation-schema" and not f.ok]
    assert bad and bad[0].witness == ("axis0", "axis1")


def test_missing_rho_map_diagnosed():
    h = spider_with_axes(6, 8, include_tree_domain=True)
    rho_map = {k: v for k, v in h.by_id["tree"].rho_map.items() if k != "axis0"}
    diag = validate_instance(_with_domain(h, "tree", rho_map=rho_map))
    assert not diag.ok
    bad = [f for f in diag.findings if f.check == "rho-presence" and not f.ok]
    assert bad and bad[0].witness == ("tree", "axis0")


def test_rho_outside_target_space_diagnosed(spider):
    rho = dict(spider.by_id["axis0"].rho)
    rho["axis1"] = frozenset([999])
    diag = validate_instance(_with_domain(spider, "axis0", rho=rho))
    assert not diag.ok
    bad = [f for f in diag.findings if f.check == "rho-presence" and not f.ok]
    assert bad and bad[0].witness == ("axis0", "axis1")


def test_short_rho_map_diagnosed():
    h = spider_with_axes(6, 8, include_tree_domain=True)
    rho_map = dict(h.by_id["tree"].rho_map)
    rho_map["axis0"] = rho_map["axis0"][:3]
    diag = validate_instance(_with_domain(h, "tree", rho_map=rho_map))
    assert not diag.ok
    bad = [f for f in diag.findings if f.check == "rho-presence" and not f.ok]
    assert bad and bad[0].witness == ("tree", "axis0")


def test_tree_with_axes_valid_measured():
    h = tree_with_axes(40, 3, seed=11)
    diag = validate_instance(h)
    assert diag.ok
    assert diag.E_min == h.E > 0  # includes nested shadow diameters


def test_axes_only_variant_small_e():
    h = tree_with_axes(40, 3, seed=11, include_tree_domain=False)
    assert h.E <= 2
    assert validate_instance(h).ok


# --- consistency ----------------------------------------------------------------


def test_vertex_tuples_consistent(spider):
    pairs = list(_pair_consistency(spider, set()))
    assert pairs
    for U, V, vals in pairs:
        assert vals[[0, 5, 20, 48]].max() <= spider.E


def test_single_domain_vacuous():
    h = identity_instance(path_graph(6))
    assert list(_pair_consistency(h, set())) == []


# --- distance formula ---------------------------------------------------------------


def test_df_product_of_lines_constants(grid9):
    s = 3
    pairs = list(itertools.combinations(range(0, 81, 5), 2))
    fit = distance_formula_fit(grid9, s, pairs)
    D = grid9.dist
    # the paper-shaped constants A=2, B=2s suffice on the grid ...
    for d, total in zip(fit.distances.tolist(), fit.sums.tolist()):
        assert d <= 2 * total + 2 * s
        assert total / 2 - 2 * s <= d
    # ... and the canonical fit is no worse
    assert fit.A <= 2
    assert fit.B <= 2 * s


def test_df_identity_instance():
    h = identity_instance(path_graph(30))
    pairs = [(0, 29), (0, 1), (3, 3), (5, 9), (0, 4)]
    fit = distance_formula_fit(h, 4, pairs)
    assert fit.A == 1 and fit.B == 4


def test_df_spider_finite(spider):
    rng = np.random.default_rng(21)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, spider.n, size=(100, 2))]
    fit = distance_formula_fit(spider, 2, pairs)
    assert fit.A >= 1 and fit.B >= 0
    for d, total in zip(fit.distances.tolist(), fit.sums.tolist()):
        assert total / fit.A - fit.B <= d <= fit.A * total + fit.B


# --- product regions and hulls ---------------------------------------------------------


def test_product_region_whole_grid(grid9):
    assert product_region(grid9, "x") == frozenset(range(81))


def test_product_region_spider(spider):
    pr = product_region(spider, "axis0")
    # direct filter oracle
    expected = set()
    for x in range(spider.n):
        ok = True
        for other in ("axis1", "axis2"):
            V = spider.by_id[other]
            rho = spider.by_id["axis0"].rho[other]
            if V.setdist[x, sorted(rho)].min() > spider.E:
                ok = False
        if ok:
            expected.add(x)
    assert pr == frozenset(expected)
    assert pr  # nonempty on a healthy fixture


def test_product_region_empty_is_reported():
    # rho points placed far from every projection: the region dries up
    line = path_graph(9)
    pi = tuple(frozenset([v]) for v in range(9))
    a = Domain("a", line, pi, {"b": REL_TRANS}, {"b": frozenset([8])})
    b = Domain("b", line, pi, {"a": REL_TRANS}, {"a": frozenset([8])})
    h = HHSInstance(path_graph(9), (a, b), E=0)
    assert product_region(h, "a") == frozenset([8])
    h0 = HHSInstance(
        path_graph(9),
        (
            dataclasses.replace(a, rho={"b": frozenset([0])}),
            dataclasses.replace(b, rho={"a": frozenset([8])}),
        ),
        E=0,
    )
    # pi never sits at both ends at once: empty region, reported not raised
    region = product_region(h0, "a")
    assert region == frozenset([0])


# --- colourings -------------------------------------------------------------------------


def test_colouring_all_transverse(spider):
    col = find_bbf_colouring(spider)
    assert col.chi == 1


def test_colouring_product(grid9):
    col = find_bbf_colouring(grid9)
    assert col.chi == 2


def test_colouring_tree_with_axes():
    h = tree_with_axes(40, 3, seed=11)
    col = find_bbf_colouring(h)
    assert col.chi == 2
    classes = {frozenset(c) for c in col.classes}
    assert frozenset(["tree"]) in classes
    assert frozenset(["axis0", "axis1", "axis2"]) in classes


# --- coarse medians ------------------------------------------------------------------------


def median_of(h, x, y, z):
    """`hhs_median` of the one triple (x, y, z), as ints."""
    m, defect = hhs_median(h, *(np.array([v]) for v in (x, y, z)))
    return int(m[0]), int(defect[0])


def test_median_absorption(grid9):
    assert median_of(grid9, 5, 5, 60) == (5, 0)


def test_median_grid_coordinatewise(grid9):
    x, y, z = grid_v(0, 0, 9), grid_v(2, 6, 9), grid_v(7, 3, 9)
    m, defect = median_of(grid9, x, y, z)
    assert defect == 0
    assert m == grid_v(2, 3, 9)  # coordinate-wise medians


def test_median_spider_defect_bounded(spider):
    rng = np.random.default_rng(23)
    m, defect = hhs_median(spider, *rng.integers(0, spider.n, size=(3, 25)))
    assert len(defect) == 25 and (defect <= spider.E).all()


def test_median_permutation_invariant(grid9):
    rng = np.random.default_rng(24)
    xyz = rng.integers(0, 81, size=(3, 20))
    base = hhs_median(grid9, *xyz)[0]
    for p in itertools.permutations(range(3)):
        assert (hhs_median(grid9, *xyz[list(p)])[0] == base).all()


# --- serialization ---------------------------------------------------------------------------


def test_instance_json_roundtrip(spider):
    d = spider.to_dict()
    h2 = HHSInstance.from_dict(d)
    assert h2.to_dict() == d
    assert h2.E == spider.E
    assert [x.id for x in h2.domains] == [x.id for x in spider.domains]


def test_projection_sum_matches_manual(grid9):
    x, y = np.array([grid_v(0, 0, 9)]), np.array([grid_v(5, 7, 9)])
    assert projection_sum(grid9, x, y, 6).tolist() == [7]
    assert projection_sum(grid9, x, y, 3).tolist() == [12]


# --- singleton projections ------------------------------------------------------


def _random_tree(draw, max_n):
    n = draw(st.integers(1, max_n))
    return UnitGraph(n, tuple((draw(st.integers(0, i - 1)), i) for i in range(1, n)))


@st.composite
def one_domain_instances(draw):
    """An ambient tree and one domain whose projections hold one vertex
    each, or (when `wide`) up to three."""
    ambient = _random_tree(draw, 10)
    space = _random_tree(draw, 8)
    most = 3 if draw(st.booleans()) else 1
    pi = tuple(
        frozenset(draw(st.lists(st.integers(0, space.n - 1), min_size=1, max_size=most)))
        for _ in range(ambient.n)
    )
    return HHSInstance(ambient, (Domain("U", space, pi, {}, {}),), 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(one_domain_instances(), st.integers(0, 3))
def test_singleton_projections_match_the_general_path(h, s):
    (dom,) = h.domains
    assert dom.singleton == all(len(p) == 1 for p in dom.pi)
    general = dataclasses.replace(dom)
    general.__dict__["singleton"] = False  # force the per-vertex stacks
    g = HHSInstance(h.ambient, (general,), h.E)
    assert dom.setdist.dtype == general.setdist.dtype
    assert (dom.setdist == general.setdist).all()
    assert (h.d_U_matrix(dom) == g.d_U_matrix(general)).all()
    x, y = np.divmod(np.arange(h.n * h.n), h.n)
    assert (projection_sum(h, x, y, s) == projection_sum(g, x, y, s)).all()
    for a, b in [(0, h.n - 1), (h.n // 2, 0)]:
        assert h.d_U_matrix(dom)[a, b] == min(
            int(dom.dist[p, q]) for p in dom.pi[a] for q in dom.pi[b]
        )


# --- nesting consistency ----------------------------------------------------------


@st.composite
def nested_pairs(draw):
    """An ambient tree with a domain "small" nested in a domain "big".  Their
    projections hold one vertex each, or (when drawn wide) up to three, and
    big's rho_map rows hold up to four vertices of small, or none.  Big's
    space has a tail of ten edges off its projections; a rho at the tail's
    end keeps the first clause above every diameter in small, so the
    minimum shows the set diameters."""
    ambient = _random_tree(draw, 12)
    small_space, core = _random_tree(draw, 8), _random_tree(draw, 8)
    k = core.n
    tail = ((0, k),) + tuple((i, i + 1) for i in range(k, k + 9))
    big_space = UnitGraph(k + 10, core.edges + tail)

    def projections(n):
        most = 3 if draw(st.booleans()) else 1
        return tuple(
            frozenset(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=most)))
            for _ in range(ambient.n)
        )

    rows = tuple(
        frozenset(draw(st.lists(st.integers(0, small_space.n - 1), max_size=4)))
        for _ in range(big_space.n)
    )
    if draw(st.booleans()):
        rho = frozenset([k + 9])
    else:
        rho = frozenset(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2)))
    small_pi, big_pi = projections(small_space.n), projections(k)
    small = Domain("small", small_space, small_pi, {"big": REL_NESTED}, {"big": rho})
    big = Domain("big", big_space, big_pi, {"small": REL_CONTAINS}, {}, {"small": rows})
    return HHSInstance(ambient, (small, big), 0)


def check_tuple_consistency(h, raw=None):
    """The consistency value of every vertex tuple for every pair of domains
    (`_pair_consistency`), and validate_instance's tuple-consistency
    finding (value and witness), against the oracle fed `raw`: per domain
    id, its projection rows and its rho_map tables, as frozensets (read off
    h by default)."""
    if raw is None:
        raw = {
            d.id: (list(map(frozenset, d.pi)), {k: list(map(frozenset, t)) for k, t in d.rho_map.items()})
            for d in h.domains
        }
    domains = {
        d.id: (oracle_all_dists(d.space.n, d.space.edges), d.rel, d.rho, raw[d.id][1])
        for d in h.domains
    }
    tuples = [{d.id: raw[d.id][0][x] for d in h.domains} for x in range(h.n)]
    found = [oracle_tuple_consistency(domains, b) for b in tuples]
    values = [(U.id, V.id, vals.tolist()) for U, V, vals in _pair_consistency(h, set())]
    assert values == [(u, v, [pairs[k][2] for pairs in found]) for k, (u, v, _) in enumerate(found[0])]
    # validate names the first pair reaching the worst value, at its least vertex
    worst, witness = 0, None
    for k, (u, v, _) in enumerate(found[0]):
        column = [pairs[k][2] for pairs in found]
        if max(column) > worst:
            worst = max(column)
            witness = (column.index(worst), u, v)
    finding = next(f for f in validate_instance(h).findings if f.check == "tuple-consistency")
    assert (finding.measured, finding.witness) == (worst, witness)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(nested_pairs())
def test_tuple_consistency_of_nested_pairs_matches_the_oracle(h):
    check_tuple_consistency(h)


@pytest.mark.parametrize(
    "make",
    [lambda: spider_with_axes(6, 8), lambda: tree_with_axes(20, 3, seed=5)],
    ids=["spider", "tree-axes"],
)
def test_tuple_consistency_of_fixtures_matches_the_oracle(make):
    check_tuple_consistency(make())


# --- projection tables as arrays ---------------------------------------------------


def test_set_rows_sort_dedupe_and_pad_each_row():
    t = SetRows.from_rows([[3, 1, 3], [2], [], [5, 4]])
    assert t.tolist() == [[1, 3], [2], [], [4, 5]] and len(t) == 4 and not t.singleton
    assert t.lengths.tolist() == [2, 1, 0, 2] and t.starts.tolist() == [0, 2, 3, 3]
    assert t[-1].tolist() == [4, 5] and t[2].tolist() == []
    with pytest.raises(IndexError):
        t[4]
    M, ok = t.padded()
    assert ok.tolist() == [[True, True], [True, False], [False, False], [True, True]]
    assert M[ok].tolist() == [1, 3, 2, 4, 5] and M[1].tolist() == [2, 2]
    assert t.image().tolist() == [1, 2, 3, 4, 5]
    # one vertex per row once the repeats go: the table is its member array
    single = SetRows.from_rows([[7, 7], [0]])
    assert single.singleton and single.offsets is None and single.members.tolist() == [7, 0]
    assert single.tolist() == [[7], [0]] and single.padded()[0].tolist() == [[7], [0]]


def test_domain_refuses_an_empty_or_outside_projection():
    line = path_graph(3)
    with pytest.raises(InstanceError, match="^empty projection of vertex 1 in U$"):
        Domain("U", line, ([0], [], [2]), {}, {})
    with pytest.raises(InstanceError, match="^projection of vertex 2 in U leaves its space of 3 vertices$"):
        Domain("U", line, ([0], [1], [2, 3]), {}, {})
    with pytest.raises(InstanceError, match="^projection of vertex 0 in U leaves"):
        Domain("U", line, SetRows([-1, 0, 1]), {}, {})


@st.composite
def ragged_documents(draw):
    """The JSON document of an ambient tree with a domain "small" nested in
    a domain "big", shaped as in `nested_pairs`, whose projection and
    rho_map rows are raw JSON lists: unsorted, with repeats, of up to four
    vertices, or of one when a table is drawn narrow.  In one document of
    five a projection row may be empty."""
    ambient = _random_tree(draw, 10)
    small_space, core = _random_tree(draw, 7), _random_tree(draw, 7)
    k = core.n
    tail = ((0, k),) + tuple((i, i + 1) for i in range(k, k + 9))
    big_space = UnitGraph(k + 10, core.edges + tail)
    least = 0 if draw(st.integers(0, 4)) == 0 else 1

    def rows(n, count, least):
        most = 4 if draw(st.booleans()) else 1
        return [draw(st.lists(st.integers(0, n - 1), min_size=least, max_size=most)) for _ in range(count)]

    rho = [k + 9] if draw(st.booleans()) else draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2))
    small = {
        "id": "small", "space": small_space.to_dict(), "pi": rows(small_space.n, ambient.n, least),
        "rel": {"big": REL_NESTED}, "rho": {"big": rho},
    }
    big = {
        "id": "big", "space": big_space.to_dict(), "pi": rows(k, ambient.n, least),
        "rel": {"small": REL_CONTAINS}, "rho": {},
        "rho_map": {"small": rows(small_space.n, big_space.n, 0)},
    }
    return {"E": 0, "ambient": ambient.to_dict(), "domains": [small, big]}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(ragged_documents())
def test_ragged_projections_read_as_their_frozensets(doc):
    empty = [(d["id"], x) for d in doc["domains"] for x, row in enumerate(d["pi"]) if not row]
    if empty:
        uid, x = empty[0]
        with pytest.raises(InstanceError, match=f"^empty projection of vertex {x} in {uid}$"):
            HHSInstance.from_dict(doc)
        return
    h = HHSInstance.from_dict(doc)
    raw, oracle = {}, []
    for d, dd in zip(h.domains, doc["domains"]):
        dist = oracle_all_dists(d.space.n, d.space.edges)
        rows = [frozenset(r) for r in dd["pi"]]
        reps, singleton, setdist, _ = oracle_projection_table(dist, rows)
        assert d.pi.tolist() == [sorted(r) for r in rows]
        assert (d.reps.tolist(), d.singleton, d.setdist.tolist()) == (reps, singleton, setdist)
        assert h.d_U_matrix(d).tolist() == [[oracle_set_dist(dist, p, q) for q in rows] for p in rows]
        tables = {key: [frozenset(r) for r in t] for key, t in dd.get("rho_map", {}).items()}
        assert {key: t.tolist() for key, t in d.rho_map.items()} == {
            key: [sorted(r) for r in t] for key, t in tables.items()
        }
        raw[d.id] = (rows, tables)
        oracle.append((d.id, dist, rows))
    findings = {f.check: (f.measured, f.witness) for f in validate_instance(h).findings}
    for check, expected in oracle_projection_findings(oracle_all_dists(h.n, h.ambient.edges), oracle).items():
        assert findings[check] == expected, check
    check_tuple_consistency(h, raw)
    assert HHSInstance.from_dict(h.to_dict()).to_dict() == h.to_dict()
