"""End of the pipeline: tree approximation of quasitrees, promotion of a
point cloud in a product of trees to a cube skeleton, the coarse Helly
experiment, and packing counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cubes import CubeSkeleton, helly_intersection, orientation_skeleton
from .embedding import ColouredSystem, EmbeddingError, PsiImage
from .graphs import UnitGraph, bfs_distances, maximal_cliques, tree_metrics
from .hhs import HHSInstance, space_hull
from .median import connectify_and_close_in, row_index
from .projection import QuasiTreeSpace


class PipelineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# products of trees


class TreeProduct:
    """Virtual median graph: the product of factor trees under the l1 metric.

    Vertices are mixed-radix encoded tuples, factor 0 the most significant
    digit.  It is the one median space of the package (see "the median
    space" in `median`).  A step from u toward v moves one differing
    coordinate one edge toward v, as the factor's `TreeIndex.toward` says
    (its parent, or the child whose subtree holds the target; no n x n
    table is built); `toward` takes the least such id.  Medians are computed factorwise: each factor is a
    tree, and its median is the XOR of the three pairwise lowest common
    ancestors, which the factor's `TreeIndex.median` climbs to; no n x n
    table of ancestors is built.  The walls are the factor trees' edges,
    factor by factor.
    """

    def __init__(self, factors: tuple[UnitGraph, ...]):
        for i, f in enumerate(factors):
            if not f.is_tree():
                raise PipelineError(f"factor {i} is not a tree")
        self.factors = tuple(factors)
        self.sizes = tuple(f.n for f in factors)
        self.n = math.prod(self.sizes)
        if self.n - 1 > np.iinfo(np.int64).max:
            raise PipelineError(
                f"product of {len(self.sizes)} trees has {self.n} vertices; "
                "encoded ids would not fit in int64"
            )
        # strides[f] is the place value of digit f
        self.strides = tuple(math.prod(self.sizes[i + 1 :]) for i in range(len(self.sizes)))
        self.dists = tuple(f.distance_matrix for f in factors)
        # sides[f][t, e]: vertex t of factor f is nearer y than x, for the
        # e-th edge (x, y) of its tree
        self.sides = tuple(
            D[:, f.edge_array[:, 1]] < D[:, f.edge_array[:, 0]]
            for f, D in zip(self.factors, self.dists)
        )

    def encode(self, coords):
        out = np.asarray(coords, dtype=np.int64) @ np.array(self.strides, dtype=np.int64)
        return out if out.ndim else int(out)

    def decode_bulk(self, arr) -> list[np.ndarray]:
        out, rem = [], np.asarray(arr, dtype=np.int64)
        for p in self.strides[:-1]:
            out.append(rem // p)
            rem = rem - out[-1] * p  # about twice as fast as np.divmod on int64
        return out + [rem]

    def toward(self, u, v):
        """The least step from u toward v (u != v), over aligned vertex arrays
        or, as an int, for one pair."""
        steps = [
            np.where(a != b, (f.tree_index.toward(a, b) - a) * p, np.iinfo(np.int64).max)
            for f, p, a, b in zip(self.factors, self.strides, self.decode_bulk(u), self.decode_bulk(v))
        ]
        out = np.asarray(u) + np.min(steps, axis=0)
        return out if out.ndim else int(out)

    def median_bulk(self, a, b_arr: np.ndarray, c) -> np.ndarray:
        """Medians m(a, b, c) for every b in b_arr; `a` and `c` are each a
        vertex or an array aligned with b_arr.  The median is taken factor
        by factor, by the factor's `TreeIndex.median`.  No subcommand calls
        it: perfbench's tracer patches it, and it goes once the tracer stops
        patching."""
        ca, cb, cc = (self.decode_bulk(x) for x in (a, b_arr, c))
        meds = 0
        for f, s, xa, xb, xc in zip(self.factors, self.sizes, ca, cb, cc):
            meds = meds * s + f.tree_index.median(xa, xb, xc)
        return meds

    def wall_sides(self, verts) -> np.ndarray:
        return np.hstack([R[x] for R, x in zip(self.sides, self.decode_bulk(verts))])

    def vertices_of(self, sides: np.ndarray) -> np.ndarray:
        """Per row, the vertex whose coordinate in each factor is the tree
        vertex on the given side of every edge of that tree, or -1."""
        out, missing, lo = 0, False, 0
        for R, s in zip(self.sides, self.sizes):
            x = row_index(R, sides[:, lo : lo + s - 1])
            out, missing, lo = out * s + x, missing | (x < 0), lo + s - 1
        return np.where(missing, -1, out)

    def pairwise_distances(self, verts: list[int]) -> np.ndarray:
        arrs = self.decode_bulk(verts)
        total = np.zeros((len(verts), len(verts)), dtype=np.int64)
        for D, idx in zip(self.dists, arrs):
            total += D[np.ix_(idx, idx)]
        return total


# ---------------------------------------------------------------------------
# promotion to a cube skeleton


@dataclass(frozen=True)
class PromoteResult:
    skeleton: CubeSkeleton
    vertex_tuples: tuple[tuple[int, ...], ...]
    hausdorff: int
    one_connected: bool
    median_closed: bool
    isometric: bool
    dimension: int
    input_size: int
    closure_size: int


def promote_to_cube_complex(points, factors, C: int) -> PromoteResult:
    """Bridge and close a C-connected point set inside a product of trees;
    return the cube skeleton of the closure with its correspondence data.

    The closure H is the set of every coherent orientation of the walls
    traced on the bridged set A' (`median.closure_search`), and its skeleton
    is the graph of those orientations joined one flip apart
    (`cubes.orientation_skeleton`): no distance matrix of H is built, and
    nothing below is measured, as the construction proves it.
    - H is median-closed: the median of three orientations, the majority
      side of each wall, is again coherent.
    - A' is 1-connected, and each edge of the product crosses exactly one
      wall, one edge of one factor tree; so no two walls live on A' have
      equal traces there, and the merged walls are single product walls.
    - So the flips are exactly the pairs of H at product distance 1, and the
      Hamming distance of two orientations is their product distance: H is
      isometric in the product, and a median graph.
    - The search reaches every orientation from the root by flips, so H is
      1-connected.
    """
    space = TreeProduct(tuple(factors))
    enc = np.unique(space.encode(np.reshape(np.asarray(points, dtype=np.int64), (-1, len(factors)))))
    if not enc.size:
        raise PipelineError("no input points")
    result = connectify_and_close_in(space, enc, C)
    skeleton = orientation_skeleton(result.orientations, result.flips)
    closure = np.sort(np.fromiter(result.closure, dtype=np.int64))
    return PromoteResult(
        skeleton=skeleton,
        vertex_tuples=tuple(map(tuple, np.stack(space.decode_bulk(closure), axis=1).tolist())),
        hausdorff=result.hausdorff,
        one_connected=True,
        median_closed=True,
        isometric=True,
        dimension=skeleton.dimension,
        input_size=len(enc),
        closure_size=len(closure),
    )


# ---------------------------------------------------------------------------
# tree approximation


@dataclass(frozen=True)
class TreeApproxResult:
    tree: UnitGraph
    root: int
    additive: Fraction
    multiplicative: Fraction


# Past this many vertices, tree_approximate tries every (n // MAX_ROOTS)-th
# vertex as a root instead of all of them.
MAX_ROOTS = 64


def tree_approximate(q: QuasiTreeSpace) -> TreeApproxResult:
    """Shortest-path spanning tree of least distortion over candidate roots.

    The candidates are every vertex, or every (n // MAX_ROOTS)-th one beyond
    `MAX_ROOTS` vertices.  In the tree of root r, each vertex v != r hangs from
    its least neighbour u with d(r, u) + w(u, v) = d(r, v).  That rule reads
    only row r of the distance matrix, not a visit order, so one numpy pass
    over the arcs (v <- u, w) sorted by (v, u, w) finds the parents for all
    roots at once.  Roots with the same edge set share their scores, so each
    distinct tree is scored once, under its least root (`np.unique` over the
    rows of sorted edge codes, each row one opaque value), on a metric from
    the batched `tree_metrics`.  The winner minimizes (additive,
    multiplicative, root).  Both are two-sided, since td, the unit tree's
    metric, can fall below d, the quasitree's, once an edge weighs more than
    1: additive = max |td - d| and multiplicative = max(td / d, d / td) over
    d > 0, a float ratio rounded by `limit_denominator(10**6)`.  At L = 1 the
    tree is a subgraph of a unit-weight graph, so td >= d.  Distortion is
    reported, never assumed.  Only the winner's td is kept: the returned
    tree carries it as its cached `distance_matrix` (int32), so
    `TreeProduct` and the promote C default do not compute it again; its
    `tree_index` is built on first use.

    A quasitree that is already a tree of unit edges, one with a
    `tree_index`, is its own answer, with no search: every root's
    shortest-path tree is q itself, so every root ties at additive 0 and
    multiplicative 1, and the least, 0, wins.  The answer is then q's
    `graph` (the piece itself when there is one piece), returned before any
    matrix of q is read: the tree shares the graph's `TreeIndex` and, once
    built, its cached `distance_matrix`, which only `promote` reads (the
    Helly experiment asks the index and `bfs_distances`).  A tree with a
    longer edge has no `tree_index` and goes through the search.
    """
    if not q.connected:
        raise PipelineError("quasitree space is disconnected")
    if q.scale != 1:
        raise PipelineError("tree approximation requires integer edge lengths")
    if q.tree_index is not None:
        return TreeApproxResult(tree=q.graph, root=0, additive=Fraction(0), multiplicative=Fraction(1))
    n = q.n
    mat = q.distance_matrix
    roots = np.arange(n) if n <= MAX_ROOTS else np.arange(0, n, max(1, n // MAX_ROOTS))
    parent = np.zeros((len(roots), n), dtype=np.int64)
    if n > 1:
        u, v, w = np.array([(a, b, int(c)) for a, b, c in q.edges], dtype=np.int64).T
        head, tail, w = np.r_[v, u], np.r_[u, v], np.r_[w, w]
        order = np.lexsort((w, tail, head))
        head, tail, w = head[order], tail[order], w[order]
        M = mat[roots]
        # index of each root's first arc into v that lies on a geodesic from
        # the root; the root itself has none and gets the sentinel len(head).
        # Every vertex heads some arc (q is connected, n > 1).
        ok = M[:, tail] + w == M[:, head]
        pos = np.where(ok, np.arange(len(head)), len(head))
        first = np.minimum.reduceat(pos, np.searchsorted(head, np.arange(n)), axis=1)
        parent = np.append(tail, -1)[first]
    parent[np.arange(len(roots)), roots] = roots  # a root is its own parent
    child = np.arange(n)
    codes = np.minimum(child, parent) * n + np.maximum(child, parent)
    codes[parent == child] = n * n  # the root's sentinel sorts last
    codes = np.sort(codes, axis=1)
    rows = codes.view(np.dtype((np.void, codes.itemsize * n)))[:, 0]
    distinct = np.unique(rows, return_index=True)[1]
    gap = np.empty((n, n), dtype=np.int64)  # td - d, for each candidate in turn
    best, tds = None, (td for block in tree_metrics(parent[distinct]) for td in block)
    for i, td in zip(distinct.tolist(), tds):
        np.subtract(td, mat, out=gap)
        add = int(max(gap.max(), -gap.min()))
        if best is not None and add > best[0][0]:
            continue  # only a tree of least additive distortion can win
        mult = Fraction(1)  # td = d when add = 0
        if add:
            # max(td, d) / max(min(td, d), 1) is (|td - d| + least) / least
            least = np.maximum(np.minimum(td, mat), 1)
            np.abs(gap, out=gap)
            gap += least
            mult = Fraction((gap / least).max()).limit_denominator(10**6)
        if best is None or (add, mult, int(roots[i])) < best[0]:
            best = ((add, mult, int(roots[i])), i, td)
    (add, mult, root), i, td = best
    tree = UnitGraph(n, np.stack(np.divmod(codes[i, :-1], n), axis=1))
    vars(tree)["distance_matrix"] = td  # fills the cached property
    return TreeApproxResult(tree=tree, root=root, additive=Fraction(add), multiplicative=mult)


# ---------------------------------------------------------------------------
# coarse Helly


@dataclass(frozen=True)
class HellyExperimentResult:
    center: int
    r: int
    inflation: int
    helly_points: tuple[int, ...]
    hull_bound_ok: bool


def coarse_helly_experiment(
    cs: ColouredSystem, psi: PsiImage, sets, R: int, trees: list[TreeApproxResult]
) -> HellyExperimentResult:
    """Push pairwise-close sets through the pipeline, intersect their inflated
    convex images factorwise, and pull the common point back.  Each factor
    is a tree: the convex image of a set is the subtree it spans
    (`hhs.space_hull`), the common point the tree's Helly point
    (`cubes.helly_intersection`), and the hull bound, the rank times the
    inflation, is the inflation: a tree's rank is 1 (on one vertex every
    distance is 0).

    Every distance read is from a vertex set, one `bfs_distances` search,
    so no n x n table of the ambient graph or of a tree is built: a search
    from each set gives its gaps to the later sets, and a search from each
    image in each tree its gaps to the other images and, cut at r, its
    ball.  The ball's hull breaks the bound exactly when it holds a vertex
    outside the ball.  The pull-back is one argmin over the summed
    `TreeIndex.dist` from every ambient vertex's images to the Helly
    points, the least vertex winning ties, and r one search from it.  A
    disconnected ambient graph gets its DisconnectedGraphError first, and
    an empty set, which a search would leave at -1 everywhere, an
    EmbeddingError."""
    h = cs.instance
    G = h.ambient
    G.require_connected()
    families = [np.unique(np.fromiter(S, dtype=np.int64)) for S in sets]
    for i, S in enumerate(families):
        if not S.size:
            raise EmbeddingError(f"set {i} is empty")
    k = len(families)
    for i in range(k - 1):
        row = bfs_distances(G.n, G.edge_array, families[i])
        for j in range(i + 1, k):
            if (d := int(row[families[j]].min())) > R:
                raise EmbeddingError(f"sets {i} and {j} are {d} apart, exceeding R={R}")
    maps = np.array(psi.maps, dtype=np.int64).reshape(cs.chi, h.n)
    tgraphs = [trees[ci].tree for ci in range(cs.chi)]
    hulls = [[np.flatnonzero(space_hull(t, m[S])) for S in families] for t, m in zip(tgraphs, maps)]
    # rows[ci][i][v] = d(v, image of set i) in tree ci
    rows = [[bfs_distances(t.n, t.edge_array, hv) for hv in hs] for t, hs in zip(tgraphs, hulls)]
    # product distance between convex images decomposes over the factors
    gap = lambda i, j: sum(int(r[i][hs[j]].min()) for r, hs in zip(rows, hulls))
    worst = max((gap(i, j) for i in range(k) for j in range(i + 1, k)), default=0)
    r_infl = (worst + 1) // 2
    helly_points = []
    hull_bound_ok = True
    for ci, tree in enumerate(tgraphs):
        inflated = []
        for row in rows[ci]:
            ball = row <= r_infl
            hull = space_hull(tree, np.flatnonzero(ball))
            if (hull & ~ball).any():
                hull_bound_ok = False
            inflated.append(np.flatnonzero(hull))
        res = helly_intersection(tree, inflated)
        if not res.found:
            raise EmbeddingError(
                f"inflated images in colour {ci} fail to intersect (pair {res.witness_pair})"
            )
        helly_points.append(res.vertex)
    # pull back: ambient vertex whose image is l1-nearest to the Helly point
    total = sum(t.tree_index.dist(m, p) for t, m, p in zip(tgraphs, maps, helly_points))
    center = int(np.argmin(total))
    row = bfs_distances(G.n, G.edge_array, [center])
    r_out = max(int(row[S].min()) for S in families)
    return HellyExperimentResult(
        center=center,
        r=r_out,
        inflation=r_infl,
        helly_points=tuple(helly_points),
        hull_bound_ok=hull_bound_ok,
    )


# ---------------------------------------------------------------------------
# packing


def bounded_packing_count(h: HHSInstance, family, R: int) -> tuple[int, tuple[int, ...]]:
    """Size of the largest pairwise-R-close subfamily (exact by clique search
    up to 20 members, greedy beyond); members must be nonempty and pairwise
    disjoint.  One broadcast pair query over all members gives every gap."""
    sets = [sorted(set(int(v) for v in S)) for S in family]
    for i, S in enumerate(sets):
        if not S:
            raise EmbeddingError(f"family member {i} is empty")
        for j in range(i + 1, len(sets)):
            overlap = set(S) & set(sets[j])
            if overlap:
                raise EmbeddingError(f"family members {i},{j} overlap at {min(overlap)}")
    k = len(sets)
    close = np.zeros((k, k), dtype=bool)
    if k:
        members = np.concatenate(sets)
        starts = np.cumsum([0] + [len(S) for S in sets[:-1]])
        D = h.ambient.pair_distances(members[:, None], members)
        close = np.minimum.reduceat(np.minimum.reduceat(D, starts, axis=0), starts, axis=1) <= R
        np.fill_diagonal(close, False)
    if k <= 20:
        # largest clique, ties broken lexicographically
        best = min(maximal_cliques(close), key=lambda c: (-len(c), c), default=())
        return len(best), best
    order = sorted(range(k), key=lambda v: (-int(close[v].sum()), v))
    clique: list[int] = []
    for v in order:
        if all(close[v, u] for u in clique):
            clique.append(v)
    return len(clique), tuple(sorted(clique))
