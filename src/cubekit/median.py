"""Median graphs: recognition, the ternary median operation, subalgebras,
and the connectify-and-close procedure.

The median of a triple is realized as the unique vertex in the triple
intersection of pairwise metric intervals, or factorwise from lowest common
ancestors in a product of trees.  `interval_medians` is the one interval
scan: for aligned triples it gives the least vertex between each pair and
how many there are, from a distance matrix, in `BLOCK`-row blocks
(`_blockwise`, the one row-block policy for every (triples x vertices)
array).  All subset operations are exact fixpoint computations.  The median
closure runs in semi-naive rounds: each round evaluates only the triples
with a member new in it, a few thousand per `median_bulk` call, so each
triple of the result is evaluated once.  Recognition (`is_median_graph`)
is for graphs of unknown type; a graph whose construction already makes it
median, such as a promoted closure, is not re-scanned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import UnitGraph, component_labels


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


def interval_matrix(D: np.ndarray, x: int) -> np.ndarray:
    """Boolean matrix M[y, v] = (v lies on a geodesic from x to y)."""
    return D[x][None, :] + D == D[x][:, None]


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
        IT[x] = np.packbits(interval_matrix(D, x), axis=1)
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
    """A median graph together with its metric and rank.

    `from_graph` verifies medianness and computes the rank.  A caller may
    construct `MedianAlgebra(g, rank)` directly only when the type of g
    already guarantees medianness: for instance a connected median-closed
    subset of a median graph, which is isometric and hence itself a median
    graph (`applications.promote_to_cube_complex`), or a tree
    (`applications.coarse_helly_experiment`).
    """

    graph: UnitGraph
    rank: int

    @staticmethod
    def from_graph(g: UnitGraph) -> "MedianAlgebra":
        ok, witness = is_median_graph(g)
        if not ok:
            _, count = interval_medians(g.distance_matrix, *np.array(witness)[:, None])
            raise NotMedianGraphError(witness, int(count[0]))
        from . import cubes  # rank is a hyperplane quantity; lazy to avoid a cycle

        rank = cubes.crossing_dimension(g)
        return MedianAlgebra(g, rank)

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def dist(self) -> np.ndarray:
        return self.graph.distance_matrix

    def toward(self, u: int, v: int) -> int:
        return self.graph.toward(u, v)

    def pairwise_distances(self, verts) -> np.ndarray:
        idx = np.asarray(verts, dtype=np.int64)
        return self.dist[np.ix_(idx, idx)]

    def median(self, x: int, y: int, z: int) -> int:
        return int(self.median_bulk(x, [y], z)[0])

    def median_bulk(self, a, b_arr: np.ndarray, c) -> np.ndarray:
        """Medians m(a, b, c) for every b in b_arr, vectorized; `a` and `c`
        are each a vertex or an array aligned with b_arr."""
        b_arr = np.asarray(b_arr, dtype=np.int64)
        a, c = (np.broadcast_to(np.asarray(x, dtype=np.int64), b_arr.shape) for x in (a, c))
        meds, counts = interval_medians(self.dist, a, b_arr, c)
        bad = np.flatnonzero(counts != 1)
        if bad.size:
            i = bad[0]
            raise NotMedianGraphError((int(a[i]), int(b_arr[i]), int(c[i])), int(counts[i]))
        return meds


# ---------------------------------------------------------------------------
# subalgebras
#
# The closure and bridging engines work against any median space with three
# methods over integer vertex ids.  toward(u, v), for u != v, is the least
# neighbour of u one step closer to v; pairwise_distances(verts) is the
# distance matrix of a vertex list; median_bulk(a, b_arr, c) takes a 1-D
# array b_arr, with `a` and `c` each a vertex or an array aligned with b_arr,
# and row i of its result is m(a[i], b_arr[i], c[i]).  MedianAlgebra reads
# all three off its graph's distance matrix (median_bulk by the one interval
# scan, `interval_medians`, in `BLOCK`-row blocks);
# applications.TreeProduct works factorwise, with the median the XOR of the
# three pairwise lowest common ancestors (graphs.TreeIndex.median), read
# from a dense table of each factor's TreeIndex.lca.  A lone tree needs no
# median space: its TreeIndex answers medians by query.  closure_of needs
# median_bulk alone.


def _pairs(arr: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (a, b) for a in arr[:rows], b in arr, in row-major order."""
    return np.repeat(arr[:rows], len(arr)), np.tile(arr, rows)


_TRIPLE_BLOCK = 1 << 13  # triples per median_bulk call in closure_of


def _triple_blocks(S: np.ndarray, new_from: int):
    """The triples (S[i], S[j], S[k]) with i < j < k and k >= new_from, as
    aligned arrays (a, b, c) of _TRIPLE_BLOCK rows (the last may be
    shorter).  Pairs are ordered by j, then i, so the pairs below k are the
    prefix of length k(k - 1)/2 of one pair list; a block is a run of such
    prefixes, the first and last possibly cut."""
    n = len(S)
    J = np.repeat(np.arange(n - 1), np.arange(n - 1))
    I = np.arange(len(J)) - J * (J - 1) // 2
    A, B = S[I], S[J]

    def gather(pieces):  # pieces of (k, first pair, end pair)
        return (
            np.concatenate([A[p:q] for _, p, q in pieces]),
            np.concatenate([B[p:q] for _, p, q in pieces]),
            np.repeat(S[[k for k, _, _ in pieces]], [q - p for _, p, q in pieces]),
        )

    pieces, room = [], _TRIPLE_BLOCK
    for k in range(new_from, n):
        lo, hi = 0, k * (k - 1) // 2
        while lo < hi:
            take = min(hi - lo, room)
            pieces.append((k, lo, lo + take))
            lo += take
            room -= take
            if not room:
                yield gather(pieces)
                pieces, room = [], _TRIPLE_BLOCK
    if pieces:
        yield gather(pieces)


def closure_of(space, seed) -> frozenset[int]:
    """Smallest median-closed superset of `seed`: semi-naive rounds.

    The members sit in an array S in discovery order, the sorted seed first.
    A round evaluates m(S[i], S[j], S[k]) for every i < j < k with k new in
    that round, in blocks of _TRIPLE_BLOCK triples (`_triple_blocks`), one
    median_bulk call each.  The medians not in S are the next round's new
    members; a round that finds none ends the closure.  So each triple of
    the result is evaluated exactly once, in the round its last member
    joined: C(|S|, 3) median evaluations for a closure S.
    """
    S = np.unique(np.fromiter((int(v) for v in seed), dtype=np.int64))
    if not S.size:
        raise MedianError("closure of the empty set is undefined")
    new_from = 0
    while new_from < len(S):
        misses = []
        for a, b, c in _triple_blocks(S, new_from):
            meds = space.median_bulk(a, b, c)
            misses.append(meds[~np.isin(meds, S)])
        new_from = len(S)
        if misses:
            S = np.concatenate([S, np.unique(np.concatenate(misses))])
    return frozenset(S.tolist())


def is_median_closed(m: MedianAlgebra, S) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether S holds every median of its triples; on failure the witness
    (a, b, c) has the least (a, c) with a <= c, then the least b."""
    members = np.array(sorted(set(int(v) for v in S)), dtype=np.int64)
    least = None  # (a, c, b) of the least escaping triple
    for i, c in enumerate(members.tolist()):
        a, b = _pairs(members, i + 1)
        out = np.flatnonzero(~np.isin(m.median_bulk(a, b, c), members))
        if out.size:
            j = int(out[0])  # row-major order: least a, then least b
            if least is None or (a[j], c) < least[:2]:
                least = (int(a[j]), c, int(b[j]))
    if least is None:
        return True, None
    a, c, b = least
    return False, (a, b, c)


# ---------------------------------------------------------------------------
# connectivity of subsets


def minimal_connection_constant(dist: np.ndarray, S) -> int:
    """Least C for which S is C-connected."""
    members = sorted(set(int(v) for v in S))
    if len(members) <= 1:
        return 0
    sub = dist[np.ix_(members, members)]
    for c in sorted(set(sub.flatten().tolist())):
        if c > 0 and component_labels(sub <= c).max() == 0:
            return int(c)
    return int(sub.max())


@dataclass(frozen=True)
class SubsetReport:
    subset: frozenset[int]
    C: int
    M: int
    is_C_connected: bool
    is_M_median: bool
    minimal_C: int
    minimal_M: int
    closure: frozenset[int]
    hausdorff_to_closure: int


def median_defect(m: MedianAlgebra, A) -> int:
    """Largest distance from a median of an A-triple back to A."""
    members = np.array(sorted(set(int(v) for v in A)), dtype=np.int64)
    worst = 0
    for i, c in enumerate(members.tolist()):
        meds = np.unique(m.median_bulk(*_pairs(members, i + 1), c))
        worst = max(worst, int(m.dist[np.ix_(meds, members)].min(axis=1).max()))
    return worst


def median_subset_report(m: MedianAlgebra, A, C: int, M: int) -> SubsetReport:
    """Exhaustive connectivity/medianness audit of a vertex subset."""
    members = sorted(set(int(v) for v in A))
    if not members:
        raise MedianError("empty subset")
    min_c = minimal_connection_constant(m.dist, members)
    min_m = median_defect(m, members)
    closure = closure_of(m, members)
    cl = sorted(closure)
    haus = int(m.dist[np.ix_(cl, members)].min(axis=1).max())
    return SubsetReport(
        subset=frozenset(members),
        C=C,
        M=M,
        is_C_connected=min_c <= C,
        is_M_median=min_m <= M,
        minimal_C=min_c,
        minimal_M=min_m,
        closure=closure,
        hausdorff_to_closure=haus,
    )


# ---------------------------------------------------------------------------
# connectify and close


def lex_least_geodesic(space, u: int, v: int) -> list[int]:
    """Shortest u->v path taking the least neighbour one step closer to v
    at every step (`toward` of the median-space protocol)."""
    path = [u]
    while path[-1] != v:
        path.append(space.toward(path[-1], v))
    return path


@dataclass(frozen=True)
class ConnectifyResult:
    a_prime: frozenset[int]
    closure: frozenset[int]
    hausdorff: int
    one_connected: bool
    # pairwise_distances of the sorted closure
    closure_distances: np.ndarray = field(compare=False, repr=False)


def connectify_and_close_in(space, A, C: int) -> ConnectifyResult:
    """Bridge C-close 1-connected pieces of A with geodesics, then close.

    `space` is a median space (see "subalgebras" above).  Every ordered pair
    of pieces at most C apart is joined by the lex-least geodesic from its
    lexicographically least closest pair (u, v).  Those pairs come from one
    stable sort of the member pairs (u, v) in different pieces with
    d(u, v) <= C by (piece of u, piece of v, distance): the first pair of
    each piece pair is a closest one, and, the members being sorted, the
    row-major order the sort keeps among ties is (u, v) lex order.
    """
    members = sorted(set(int(v) for v in A))
    if not members:
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
    added: set[int] = set()
    for a, b in zip(u[pick].tolist(), v[pick].tolist()):
        added.update(lex_least_geodesic(space, members[a], members[b]))
    a_prime = frozenset(members) | frozenset(added)
    closure = closure_of(space, a_prime)
    cl = sorted(closure)
    clmat = space.pairwise_distances(cl)
    one_conn = component_labels(clmat <= 1).max() == 0
    haus = clmat[:, np.searchsorted(cl, members)].min(axis=1).max()
    return ConnectifyResult(a_prime, closure, int(haus), bool(one_conn), clmat)


# ---------------------------------------------------------------------------
# isometric subalgebras


def check_isometric_subalgebra(m: MedianAlgebra, Y) -> bool:
    """A 1-connected median-closed subset carries the ambient metric.

    Preconditions are verified first; violations raise with a witness.
    """
    members = sorted(set(int(v) for v in Y))
    if not members:
        raise MedianError("empty subset")
    sub = m.dist[np.ix_(members, members)]
    comp = component_labels(sub <= 1)
    if comp.max() > 0:
        i = int(np.argmax(comp == 0))
        j = int(np.argmax(comp == 1))
        raise MedianError(
            f"subset not 1-connected: vertices {members[i]}, {members[j]} "
            "in different pieces"
        )
    closed, witness = is_median_closed(m, members)
    if not closed:
        raise MedianError(f"subset not median-closed: triple {witness} escapes")
    induced, index = m.graph.induced_subgraph(members)
    di = induced.distance_matrix
    return bool((di == sub).all())
