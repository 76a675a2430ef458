"""Median graphs: recognition, the median closure and the
connectify-and-close procedure, on one median space.

Recognition (`is_median_graph`) is for graphs of unknown type, the input of
`median-check`; a graph whose construction already makes it median, a tree
or a promoted closure, is not re-scanned.  `interval_medians` is the one
interval scan: for aligned triples it gives the least vertex between each
pair and how many there are, from a distance matrix, in `BLOCK`-row blocks
(`_blockwise`, the one row-block policy for every (triples x vertices)
array).  The closure and bridging run in one median space, a product of
trees (`applications.TreeProduct`, see "the median space" below).  The
median closure evaluates no median: by the duality of median algebras and
wallspaces (Sageev 1995; Roller 1998), the subalgebra generated by S is the
set of coherent orientations of the walls that the space's halfspaces trace
on S, and `orientation_search` lists those from one point of S outward with
the flips between them, which `connectify_and_close_in` hands on as the
closure's dual graph (`cubes.orientation_skeleton`).  The flips also give
what is measured of the closure: its rank, the most flips into one
orientation, and its Hausdorff distance to S, one breadth-first search
along them; no product over the orientations is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import UnitGraph, bfs_distances, component_labels


class MedianError(ValueError):
    pass


class NotMedianGraphError(MedianError):
    def __init__(self, witness: tuple[int, int, int], count: int):
        self.witness = witness
        self.count = count
        super().__init__(
            f"triple {witness} has {count} medians (exactly one required)"
        )


def _popcount_rows(a: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(a).sum(axis=-1, dtype=np.int64)
    table = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
    return table[a].sum(axis=-1)


# Triples per block wherever a (triples x vertices) array is built: bounds
# the memory of every batched median.
BLOCK = 128


def _blockwise(m: int, fn) -> np.ndarray:
    """fn(sl) over the consecutive slices sl of range(m), BLOCK rows each,
    joined along the last axis."""
    parts = [fn(slice(lo, lo + BLOCK)) for lo in range(0, max(m, 1), BLOCK)]
    return np.concatenate(parts, axis=-1)


def interval_medians(D: np.ndarray, a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """For the aligned vertex arrays a, b, c: per triple, the least vertex
    lying between each pair (0 when none does) and how many such vertices
    the distance matrix D has."""
    a, b, c = (np.asarray(v, dtype=np.int64) for v in (a, b, c))

    def block(sl):
        ra, rb, rc = a[sl], b[sl], c[sl]
        Da, Db, Dc = D[ra], D[rb], D[rc]
        mask = (
            (Da + Db == D[ra, rb][:, None])
            & (Db + Dc == D[rb, rc][:, None])
            & (Da + Dc == D[ra, rc][:, None])
        )
        return np.stack([mask.argmax(axis=1), mask.sum(axis=1)])

    return tuple(_blockwise(len(b), block))


def is_median_graph(g: UnitGraph) -> tuple[bool, tuple[int, int, int] | None]:
    """Decide medianness; on failure return a witness triple with 0 or >=2 medians.

    A tree is a median graph (the median of a triple is the centre of the
    tripod it spans), so a connected graph with n - 1 edges is accepted
    without a scan.  Any other graph gets a bit-packed interval scan: one
    pass per vertex pair, vectorized over the third vertex.
    """
    g.require_connected()
    n = g.n
    if n <= 2 or len(g.edges) == n - 1:
        return True, None
    D = g.distance_matrix
    # IT[x, y] = packed bits over v of "v in I(x, y)"
    IT = np.empty((n, n, (n + 7) // 8), dtype=np.uint8)
    for x in range(n):
        IT[x] = np.packbits(D[x][None, :] + D == D[x][:, None], axis=1)
    ITT = IT.transpose(1, 0, 2).copy()
    for x in range(n):
        for y in range(x + 1, n):
            combined = IT[x, y][None, :] & IT[y] & ITT[x]
            counts = _popcount_rows(combined)
            bad = np.flatnonzero(counts[y + 1 :] != 1)
            if bad.size:
                z = int(bad[0]) + y + 1
                return False, (x, y, z)
    return True, None


@dataclass(frozen=True)
class MedianAlgebra:
    """A graph whose construction proves it median, with its rank: the
    carrier of a `cubes.CubeSkeleton`.  The one construction in the package
    is the graph of the coherent orientations of a wallspace joined one flip
    apart (`cubes.orientation_skeleton`, behind `walls.dual_cube_complex`
    and `applications.promote_to_cube_complex`), so no recognition runs
    here; a graph of unknown type goes to `is_median_graph`.
    """

    graph: UnitGraph
    rank: int

    @property
    def n(self) -> int:
        return self.graph.n

    def median_bulk(self, a, b_arr: np.ndarray, c) -> np.ndarray:
        """Medians m(a, b, c) for every b in b_arr, vectorized; `a` and `c`
        are each a vertex or an array aligned with b_arr.  No subcommand
        calls it: perfbench's tracer patches it, and it goes once the tracer
        stops patching."""
        b_arr = np.asarray(b_arr, dtype=np.int64)
        a, c = (np.broadcast_to(np.asarray(x, dtype=np.int64), b_arr.shape) for x in (a, c))
        meds, counts = interval_medians(self.graph.distance_matrix, a, b_arr, c)
        bad = np.flatnonzero(counts != 1)
        if bad.size:
            i = bad[0]
            raise NotMedianGraphError((int(a[i]), int(b_arr[i]), int(c[i])), int(counts[i]))
        return meds


# ---------------------------------------------------------------------------
# the median space
#
# The closure and bridging engines run on one median space,
# `applications.TreeProduct`, through four methods over integer vertex ids.
# closure_search reads two: wall_sides(verts), the bool matrix of the side
# of each wall (an edge of a factor tree) each vertex lies on, and
# vertices_of(sides), which maps such rows back to vertices, -1 where none
# is.  connectify_and_close_in adds two for its bridges:
# pairwise_distances(verts), the distance matrix of a vertex list, and
# toward(u, v), for u != v the least neighbour of u one step closer to v,
# over aligned vertex arrays (a scalar pair gives an int), which each
# factor's `TreeIndex.toward` answers.  Neither engine evaluates a median.


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """One sortable opaque value per row of a 2-D bool array: its packed bytes."""
    packed = np.packbits(bits, axis=1)
    if not packed.shape[1]:  # rows of no bits are all equal
        packed = np.zeros((len(bits), 1), dtype=np.uint8)
    return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1])))[:, 0]


def row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each row of `rows`, its index among the distinct rows of the
    bool matrix `table`, or -1 where it is none of them."""
    keys, wanted = _row_keys(table), _row_keys(rows)
    order = np.argsort(keys)
    at = order[np.searchsorted(keys, wanted, sorter=order).clip(max=len(keys) - 1)]
    return np.where(keys[at] == wanted, at, -1)


_GRAM_EXACT = 1 << 24  # float32 holds every count up to this many points


def orientation_search(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coherent orientations of the walls of H, and the flips between them.

    H[x, w] says whether point x lies on side 1 of wall w; row 0 is all
    False, and no column is constant or repeated.  An orientation picks a
    side of every wall, coherently when the picked sides pairwise meet.
    Joined where they differ on one wall, the coherent orientations form
    the dual median graph (Sageev 1995; Roller 1998), walked here from
    point 0's orientation in layers: layer d + 1 flips one more wall from
    side 0 to side 1.  Wall w may flip iff no other picked side lies in its
    side 0.  The Gram matrix of the 1-sides says which sides lie in which,
    and so how many picked sides block each wall: each orientation keeps
    that count as an integer row, and a flip of w adds row w of a fixed
    (walls x walls) step matrix to its parent's row.  An orientation of
    layer d + 1 is one flip from layer d and none from an earlier layer, so
    one np.unique per layer drops repeats.  The Gram matrix is formed in
    float32, whose integers are exact up to 2^24: more points than that are
    a MedianError, not a float64 product.  Returns (O, flips): O[i, w] is
    the side orientation i picks of wall w, layer by layer from row 0; the
    rows (i, j) of flips are the dual's edges, j in the later layer.
    """
    if len(H) > _GRAM_EXACT:
        raise MedianError(f"{len(H)} points: the orientation search counts at most 2^24 exactly")
    A = np.asarray(H, dtype=np.float32).T
    gram = A @ A.T  # gram[v, w]: points on side 1 of both v and w, exact in float32
    # inside0[v, w]: side 0 of v lies in side 0 of w, as side 1 of w lies in
    # side 1 of v; side 1 of v does when gram[v, w] = 0.  So an orientation
    # O blocks the flip of wall w by (column w of inside0).sum() + (O @ step)[w]
    # picked sides; the root, O = 0, by the first term alone.
    inside0 = gram == np.diag(gram)[None, :]
    np.fill_diagonal(inside0, False)
    step = (gram == 0).view(np.int8)  # -1, 0 or 1, built in place over the bool matrix
    step -= inside0
    del gram
    layer = np.zeros((1, A.shape[0]), dtype=bool)
    blocked = inside0.sum(axis=0, dtype=np.int32)[None, :]  # one row per orientation
    layers, flips, start = [layer], [], 0
    while True:
        i, w = np.nonzero(~layer & (blocked == 0))
        if not i.size:
            break
        child = layer[i]
        child[np.arange(len(i)), w] = True
        _, first, inverse = np.unique(_row_keys(child), return_index=True, return_inverse=True)
        flips.append(np.stack([start + i, start + len(layer) + inverse], axis=1))
        start += len(layer)
        layer = child[first]
        blocked = blocked[i[first]] + step[w[first]]  # the flip of w adds its row of step
        layers.append(layer)
    return np.concatenate(layers), np.concatenate(flips or [np.empty((0, 2), np.int64)])


def relabel_rows(O: np.ndarray, flips: np.ndarray, order: np.ndarray):
    """The rows of O listed in `order`, and the flips renumbered to match."""
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return O[order], rank[flips]


def closure_search(space, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smallest median-closed superset of `seed`, by wall duality, with the
    dual graph it carries.

    A median lies on the side of each wall that most of its triple lies on,
    so <S> is the set of coherent orientations of the walls traced on the
    sorted seed S (Sageev 1995; Roller 1998).  The traces are one bool
    matrix, each row XORed with S[0]'s; walls constant on S are dropped and
    equal traces merged by one np.unique over the packed columns.
    `orientation_search` lists the orientations and `space.vertices_of`
    maps them back in one batched pass.  No median is evaluated.  Returns
    (points, O, flips): the points of <S> in increasing order, row i of O
    the orientation of points[i] (one column per merged wall), and the
    flips the pairs of rows one wall apart.
    """
    S = np.unique(np.asarray(seed, dtype=np.int64))
    if not S.size:
        raise MedianError("closure of the empty set is undefined")
    T = space.wall_sides(S)
    root, T = T[0], T ^ T[0]
    live = np.flatnonzero(T.any(axis=0))
    traces = T[:, live]
    _, first, merged = np.unique(_row_keys(traces.T), return_index=True, return_inverse=True)
    O, flips = orientation_search(traces[:, first])
    sides = np.repeat(root[None, :], len(O), axis=0)
    sides[:, live] ^= O[:, merged]
    points = space.vertices_of(sides)
    if (points < 0).any():
        flipped = live[O[np.argmax(points < 0), merged]].tolist()
        raise MedianError(
            f"no vertex has the coherent orientation that differs from {S[0]} on the walls {flipped}"
        )
    order = np.argsort(points)
    return (points[order], *relabel_rows(O, flips, order))


# ---------------------------------------------------------------------------
# connectify and close


def lex_least_geodesics(space, u, v) -> np.ndarray:
    """The shortest path from each u[i] to v[i] that takes the least
    neighbour one step closer at every step (`toward`), all walked
    together: row k holds the k-th vertex of every walk, which repeats its
    end once there."""
    x, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    rows = [x]
    while (live := x != v).any():
        x = x.copy()
        x[live] = space.toward(x[live], v[live])
        rows.append(x)
    return np.stack(rows)


@dataclass(frozen=True)
class ConnectifyResult:
    a_prime: frozenset[int]
    closure: frozenset[int]
    hausdorff: int
    # row i: the orientation of the i-th least closure point, one column per
    # wall live on a_prime; flips: the pairs of rows one wall apart
    orientations: np.ndarray = field(compare=False, repr=False)
    flips: np.ndarray = field(compare=False, repr=False)


def connectify_and_close_in(space, A, C: int) -> ConnectifyResult:
    """Bridge C-close 1-connected pieces of A with geodesics, then close.

    `space` is a median space (see "the median space" above).  Every ordered pair
    of pieces at most C apart is joined by the lex-least geodesic from its
    lexicographically least closest pair (u, v), all walked together
    (`lex_least_geodesics`).  Those pairs come from one stable sort of the
    member pairs (u, v) in different pieces with d(u, v) <= C by (piece of
    u, piece of v, distance): the first pair of each piece pair is a closest
    one, and, the members being sorted, the row-major order the sort keeps
    among ties is (u, v) lex order.  The
    bridged set A' is 1-connected, so the closure's skeleton, its
    orientations joined by the flips, is isometric in the space (proof in
    `applications.promote_to_cube_complex`): the Hausdorff distance is the
    depth of one breadth-first search from A along the flips
    (`graphs.bfs_distances`).
    """
    members = np.unique(np.asarray(A, dtype=np.int64))
    if not members.size:
        raise MedianError("empty subset")
    sub = space.pairwise_distances(members)
    # maximal 1-connected pieces = components of the induced unit-step graph
    comp_id = component_labels(sub <= 1)
    n_pieces = comp_id.max() + 1
    if n_pieces > 1:
        cc = component_labels(sub <= C)
        if cc.max() > 0:
            i = int(np.argmax(cc == 0))
            j = int(np.argmax(cc == 1))
            raise MedianError(
                f"subset is not {C}-connected: vertices {members[i]} and {members[j]} "
                "lie in different pieces"
            )
    u, v = np.nonzero((sub <= C) & (comp_id[:, None] != comp_id[None, :]))
    group = comp_id[u] * n_pieces + comp_id[v]
    order = np.lexsort((sub[u, v], group))
    _, first = np.unique(group[order], return_index=True)
    pick = order[first]
    a_prime = np.union1d(members, lex_least_geodesics(space, members[u[pick]], members[v[pick]]))
    points, O, flips = closure_search(space, a_prime)
    haus = int(bfs_distances(len(points), flips, np.searchsorted(points, members)).max())
    return ConnectifyResult(frozenset(a_prime.tolist()), frozenset(points.tolist()), haus, O, flips)
