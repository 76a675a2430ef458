"""Finite simple graphs with unit-length edges: the carrier type for everything else.

Vertices are integers 0..n-1.  Distances are geodesic edge counts, computed
once per graph and cached.  Construction rejects loops and multi-edges;
connectivity is enforced wherever a metric is needed.

Every tree of unit edges in the package (a unit graph with n - 1 edges, a
quasitree whose glued space is such a tree, a factor of a product of trees)
is served by one table, `TreeIndex`, built from one iterative preorder and
built once per tree: a quasitree of unit edges shares its graph's, and an
instance parses equal graphs into one object (`hhs.HHSInstance.from_dict`).
It answers lowest common ancestor, distance and median queries on vertex
arrays by binary lifting, and the next step from u toward v from the
subtree runs of the preorder, so a caller that reads sampled pairs asks it
for those pairs (`UnitGraph.pair_distances`) and a caller that walks
geodesics or takes medians in a product asks it for steps and medians
(`applications.TreeProduct`), and neither builds an n x n matrix.  The
subtree a point set spans (`hhs.space_hull`) and the dense form,
`distance_matrix`, come from the same subtree runs.
Candidate trees, given by parent arrays, get their metrics in batches from
`tree_metrics`.  Every other metric (unit graphs that are not trees, and
quasitrees with a cycle or an edge longer than 1, their lengths scaled to
integers) comes from `integer_distance_matrix`, Dial's bucketed shortest
paths from all sources at once.  A question of how far each vertex lies
from one vertex set (a ball about it, its gap to another set, the depth of
a search from it) is one frontier search, `bfs_distances`, which reads no
matrix: `helly` asks only such questions of its trees and ambient graph,
so it builds no n x n table of either.  Connected components come from one
labelling over an arc list, `arc_component_labels`, and cliques from one
Bron-Kerbosch search, `maximal_cliques`.  All of it runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .jsonio import at, expect, int_rows, member


class GraphError(ValueError):
    pass


class DisconnectedGraphError(GraphError):
    """Raised when a metric is requested on a disconnected graph.

    Carries one unreachable vertex pair as a witness.
    """

    def __init__(self, u: int, v: int):
        self.u = u
        self.v = v
        super().__init__(f"graph is disconnected: no path joins vertex {u} to vertex {v}")


def _canonical_edges(n: int, edges) -> np.ndarray:
    """The edges as a sorted (m x 2) array of (min, max) pairs, checked for
    loops, ends out of range and repeats, and sorted by the keys lo * n + hi,
    in one numpy pass; the loop below runs only to name the first bad edge."""
    try:
        pairs = np.sort(np.array(edges, dtype=np.int64).reshape(len(edges), 2), axis=1)
        keys = pairs[:, 0] * n + pairs[:, 1]
        keys = keys[order := keys.argsort()]
        in_range = n < 2**31 and (pairs.view(np.uint64) < n).all()  # a negative end wraps past n
        if in_range and (pairs[:, 0] < pairs[:, 1]).all() and (keys[1:] > keys[:-1]).all():
            return pairs[order]
    except (TypeError, ValueError, OverflowError):  # ragged rows or ends beyond int64
        pass
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for {n} vertices")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"multi-edge {key}")
        seen.add(key)
    return np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class UnitGraph:
    """Simple undirected graph; edges all have length 1."""

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)  # the edges, (m x 2)

    def __post_init__(self):
        if self.n <= 0:
            raise GraphError("need at least one vertex")
        object.__setattr__(self, "edge_array", _canonical_edges(self.n, self.edges))
        object.__setattr__(self, "edges", tuple(zip(*self.edge_array.T.tolist())))
        if self.labels is not None and len(self.labels) != self.n:
            raise GraphError("labels length must equal vertex count")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbr: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbr)

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs geodesic distances (edge counts), int32 matrix.

        A graph with n - 1 edges goes through its `tree_index`, any other
        through `integer_distance_matrix` with unit weights (a BFS from every
        source at once).  A disconnected graph raises
        DisconnectedGraphError(0, v), v the least vertex not joined to 0,
        on either path.
        """
        if len(self.edges) == self.n - 1:
            return self.tree_index.distance_matrix()
        self.require_connected()
        return integer_distance_matrix(self.n, [(u, v, 1) for u, v in self.edges]).astype(np.int32)

    @cached_property
    def tree_index(self) -> "TreeIndex":
        """The `TreeIndex` of a graph with n - 1 edges, rooted at vertex 0;
        it raises as `distance_matrix` does when the graph is no tree."""
        return TreeIndex(self.n, self.edges)

    def pair_distances(self, u, v) -> np.ndarray:
        """d(u, v) over broadcast vertex arrays, int64: from the `tree_index`
        when there are n - 1 edges (no matrix), else from `distance_matrix`."""
        if len(self.edges) == self.n - 1:
            return self.tree_index.dist(u, v)
        return self.distance_matrix[u, v].astype(np.int64)

    @cached_property
    def components(self) -> np.ndarray:
        """Connected-component label of every vertex (see `arc_component_labels`)."""
        u, v = self.edge_array.T
        return arc_component_labels(self.n, u, v)

    def is_connected(self) -> bool:
        """`require_connected` as a bool: a graph of n - 1 edges keeps the `tree_index` it builds."""
        try:
            self.require_connected()
        except DisconnectedGraphError:
            return False
        return True

    def require_connected(self) -> None:
        """Raise DisconnectedGraphError(0, v), v the least vertex not joined
        to 0, unless the graph is connected.  A graph with n - 1 edges is
        checked by building its `tree_index`, whose preorder from 0 names
        the same vertex, so a tree is walked once for both."""
        if len(self.edges) == self.n - 1:
            self.tree_index
            return
        lab = self.components
        if lab.max() > 0:
            u = int(np.argmax(lab == 0))
            v = int(np.argmax(lab == 1))
            raise DisconnectedGraphError(u, v)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.n - 1

    def diameter_of(self, vertices) -> int:
        """The largest distance between two of the given vertices (0 for
        fewer than two)."""
        idx = sorted(vertices)
        if len(idx) <= 1:
            return 0
        return int(self.distance_matrix[idx][:, idx].max())

    def to_dict(self) -> dict:
        d = {"n": self.n, "edges": self.edge_array.tolist()}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    @staticmethod
    def from_dict(d: dict, path: str = "") -> "UnitGraph":
        """The graph of the JSON object d, named `path` in its document."""
        edges = int_rows(member(d, "edges", list, path), at(path, "edges"), 2)
        labels = d.get("labels")
        labels = None if labels is None else tuple(expect(labels, list, at(path, "labels")))
        return UnitGraph(member(d, "n", int, path), edges, labels)


def _preorder(n: int, edges):
    """One iterative preorder, from vertex 0, of the tree with edges (u, v):
    int64 arrays order, parent (the root its own), depth, pos (pos[order] =
    0..n-1) and stop, v's subtree being the contiguous run of positions
    pos[v] .. stop[v] - 1.  Raises GraphError unless there are n - 1 edges,
    and DisconnectedGraphError(0, x), x the least vertex not reached from 0,
    when they do not join every vertex."""
    if len(edges) != n - 1:
        raise GraphError(f"a tree on {n} vertices has {n - 1} edges, not {len(edges)}")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    parent, depth = [0] * n, [0] * n
    seen = [True] + [False] * (n - 1)
    order = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in nbrs[x]:
            if not seen[y]:
                seen[y] = True
                parent[y], depth[y] = x, depth[x] + 1
                stack.append(y)
    if len(order) < n:
        raise DisconnectedGraphError(0, seen.index(False))
    size = [1] * n
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    order, parent, depth, size = (np.array(a, dtype=np.int64) for a in (order, parent, depth, size))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    return order, parent, depth, pos, pos + size


class TreeIndex:
    """Lowest common ancestors, distances and medians of a tree of unit
    edges, given by its n - 1 edges (u, v), rooted at 0.

    From one iterative preorder (`_preorder`) it holds each vertex's parent
    and depth, and a binary-lifting table over preorder positions:
    jumps[k, p], the position of the ancestor 2^k steps above position p, or
    of the root (n log n entries).  Queries take broadcastable int arrays.
    For lca(u, v) let pos[u] > pos[v]: the run of an ancestor y of u holds
    u, so it holds v once it starts at or before v, and y lies above v
    exactly when pos[y] <= pos[v].  Halving jumps climb from u to its
    highest ancestor x with pos[x] > pos[v]; the parent of x is the answer
    (Bender & Farach-Colton, "The LCA problem revisited", LATIN 2000).  dist(u, v) = depth[u] + depth[v] - 2 depth[lca(u, v)].
    The step from u toward v (`toward`) reads the same runs: the parent of
    u, unless v lies in u's run, below u.  Raises as `_preorder` does.
    """

    def __init__(self, n: int, edges):
        self.n = n
        self.order, self.parent, self.depth, self.pos, self.stop = _preorder(n, edges)

    @cached_property
    def jumps(self) -> np.ndarray:
        jumps = [self.pos[self.parent[self.order]]]
        for _ in range(1, max(1, int(self.depth.max()).bit_length())):
            jumps.append(jumps[-1][jumps[-1]])
        return np.stack(jumps)

    def lca(self, u, v) -> np.ndarray:
        pu, pv = self.pos[u], self.pos[v]
        low, x = np.minimum(pu, pv), np.maximum(pu, pv)
        for jump in self.jumps[::-1]:
            y = jump[x]
            x = np.where(y > low, y, x)
        # x == low only when u == v; otherwise x is the climb's end
        return self.order[np.where(x == low, low, self.jumps[0][x])]

    def dist(self, u, v) -> np.ndarray:
        return self.depth[u] + self.depth[v] - 2 * self.depth[self.lca(u, v)]

    @cached_property
    def _child_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Every vertex x sorted by the key parent[x] * n + pos[x], with the
        sorted keys: the children of each vertex in preorder, one run per
        parent, the root first under key 0."""
        keys = self.parent * self.n + self.pos
        kids = np.argsort(keys)
        return keys[kids], kids

    def toward(self, u, v) -> np.ndarray:
        """The neighbour of u one step closer to v, over broadcastable vertex
        arrays with u != v.  That is u's parent unless v lies below u, where
        pos[u] < pos[v] < stop[u]; then it is the child of u whose run holds
        v, the last child c of u with pos[c] <= pos[v], found by one
        `searchsorted` of the key u * n + pos[v] among the children's keys.
        The root's key, 0, is the least of all, so the search never lands
        before the first entry, even on one vertex."""
        pu, pv = self.pos[u], self.pos[v]
        keys, kids = self._child_keys
        child = kids[np.searchsorted(keys, u * self.n + pv, side="right") - 1]
        return np.where((pu < pv) & (pv < self.stop[u]), child, self.parent[u])

    def path(self, u: int, v: int) -> list[int]:
        """The tree's path from u to v: the deeper end climbs to its parent
        until the climbs meet at lca(u, v); v's is joined on reversed."""
        up, down = [int(u)], [int(v)]
        while up[-1] != down[-1]:
            climb = up if self.depth[up[-1]] >= self.depth[down[-1]] else down
            climb.append(int(self.parent[climb[-1]]))
        return up + down[-2::-1]

    def median(self, a, b, c) -> np.ndarray:
        """m(a, b, c) = lca(a, b) ^ lca(b, c) ^ lca(a, c).  Let w = lca(a, b, c).
        Were lca(a, b) and lca(b, c) both below w, both would lie in the
        subtree of the child of w above b, and so would a and c.  So two of
        the three are w and cancel, leaving the third, say lca(a, b).  It is
        on the path from a to b and, being w or below w on the way up from a
        and from b, on their paths to c, which pass through w."""
        return self.lca(a, b) ^ self.lca(b, c) ^ self.lca(a, c)

    def distance_matrix(self) -> np.ndarray:
        """All-pairs distances, int32.  Seen from a child v of p, every
        vertex outside v's subtree is one step farther than from p and every
        vertex inside it one nearer: row(v) = row(p) + 1, minus 2 on v's
        run.  Rows are built in preorder-position columns, the root's the
        depth, inner vertices parent first, the leaves (whose run is their
        own position) in one batch."""
        rest = self.order[1:]
        leafy = self.stop[rest] - self.pos[rest] == 1
        inner, leaf = rest[~leafy], rest[leafy]
        R = np.empty((self.n, self.n), dtype=np.int32)  # R[v, pos[x]] = d(v, x)
        R[0] = self.depth[self.order]
        cols = (inner, self.parent[inner], self.pos[inner], self.stop[inner])
        for v, p, a, b in zip(*(c.tolist() for c in cols)):
            row = R[v]
            np.add(R[p], 1, out=row)
            run = row[a:b]
            np.subtract(run, 2, out=run)
        R[leaf] = R[self.parent[leaf]] + 1
        R[leaf, self.pos[leaf]] = 0
        return R[:, self.pos]


def tree_metrics(parent):
    """Unit-weight metrics of trees on 0..n-1 given by parent arrays (t x n,
    a root its own parent): int32 (c, n, n) blocks of consecutive trees, at
    most `median.BLOCK` ** 2 cells or one tree each.  Pointer doubling
    (A[v] |= A[J[v]], J = J[J]) gives each vertex its ancestor set A[v],
    itself included.  A root's row is the depth; seen from a child v of p,
    x is one step farther than from p, or one nearer below v: row(v) =
    row(p) + 1 - 2 [v in A[x]], filled one depth level (a slice of the rows
    sorted by depth) at a time across the block.
    """
    from .median import BLOCK  # median imports this module

    parent = np.asarray(parent, dtype=np.int64)
    t, n = parent.shape
    per = max(1, BLOCK * BLOCK // (n * n))
    for P in np.split(parent, range(per, t, per)):
        c = len(P)
        g = (P + n * np.arange(c)[:, None]).ravel()  # parents as flat row ids
        v = np.arange(c * n)
        A = np.zeros((c * n, n), dtype=bool)
        A[v, v % n] = A[v, g % n] = True
        J = g
        while (J[J] != J).any():
            A |= A[J]
            J = J[J]
        depth = A.sum(axis=1)  # one more than the depth: the c roots sort first
        order = np.argsort(depth, kind="stable")
        rank = np.argsort(order)
        up = rank[g[order]]
        below = A.reshape(c, n, n).transpose(0, 2, 1).reshape(c * n, n)  # v in A[x]
        R = np.where(below[order], np.int32(-1), np.int32(1))
        R[:c] = depth.reshape(c, n) - 1
        cuts = np.searchsorted(depth[order], np.arange(2, depth.max() + 2)).tolist()
        for a, b in zip(cuts, cuts[1:]):
            R[a:b] += R[up[a:b]]
        yield R[rank].reshape(c, n, n)


def integer_distance_matrix(n: int, edges) -> np.ndarray:
    """All-pairs distances of a graph with positive integer edge lengths,
    int64, with -1 between vertices that no path joins.

    The graph is given by its edges (u, v, w), each of length w.  This is
    Dial's bucketed shortest paths (Dial, "Algorithm 360", CACM 1969) run
    from every source at once.  A pair (s, v) is the code s * n + v, and
    bucket t holds the codes reached at distance t.  The least bucket is
    settled: codes settled earlier are dropped, duplicates are removed by a
    stamp (each copy writes its own position into D, and the one copy whose
    write stands is kept, no sort), and D[s, v] = t.  Its codes then follow
    every arc v -> x of length w (gathered from a CSR arc list with
    `np.repeat`), and the unsettled (s, x) go to bucket t + w.  Each pair is
    settled once, at its least distance, since lengths are positive.  Unit
    lengths make this a breadth-first search from every source.
    """
    u, v, w = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    tail, head, w = np.r_[u, v], np.r_[v, u], np.r_[w, w]
    order = np.argsort(tail, kind="stable")
    head, w = head[order], w[order]
    start = np.searchsorted(tail[order], np.arange(n + 1))  # arcs of x: start[x]..start[x+1]-1
    lengths = np.unique(w).tolist()
    D = np.full(n * n, -1, dtype=np.int64)
    buckets = {0: [np.arange(n) * (n + 1)]}
    while buckets:
        t = min(buckets)
        codes = np.concatenate(buckets.pop(t))
        codes = codes[D[codes] < 0]
        stamp = -2 - np.arange(len(codes))  # negative, so still "unsettled"
        D[codes] = stamp
        codes = codes[D[codes] == stamp]
        D[codes] = t
        x = codes % n
        deg = start[x + 1] - start[x]
        first = np.repeat(start[x] - np.cumsum(deg) + deg, deg)
        arc = first + np.arange(len(first))
        nxt = np.repeat(codes - x, deg) + head[arc]
        keep = D[nxt] < 0
        nxt, step = nxt[keep], w[arc[keep]]
        for c in lengths:
            sel = nxt[step == c]
            if len(sel):
                buckets.setdefault(t + c, []).append(sel)
    return D.reshape(n, n)


def bfs_distances(n: int, edges, sources, limit: int | None = None) -> np.ndarray:
    """d(v, sources) for every vertex v of the graph on n vertices with these
    unit edges (an (m x 2) array), int64; -1 for a vertex farther than
    `limit` or joined to no source (every vertex when there are none).

    One pass over both directions of every edge per level: the unreached
    heads of the arcs leaving the frontier mask make the next level.  No
    matrix is read; eccentricity k costs O(k (n + m)), which on the shallow
    graphs searched here beats gathering only the frontier's arcs from a
    sorted arc list, whose per-level `repeat` and dedup cost more.
    """
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    tail, head = np.concatenate([u, v]), np.concatenate([v, u])
    dist = np.full(n, -1, dtype=np.int64)
    front = np.zeros(n, dtype=bool)
    if limit is None or limit >= 0:  # else every vertex lies farther than limit
        front[np.asarray(sources, dtype=np.int64)] = True
    dist[front] = 0
    level = 0
    while limit is None or level < limit:
        reached = head[front[tail]]
        reached = reached[dist[reached] < 0]
        if not reached.size:
            break
        level += 1
        dist[reached] = level
        front = dist == level
    return dist


def arc_component_labels(n: int, u, v) -> np.ndarray:
    """Connected-component label of every vertex of the graph on n vertices
    with arcs u[i] - v[i] (either direction; loops are harmless).

    Min-label hooking with pointer jumping: lab[x] is a vertex of x's
    component no larger than x, and every vertex points at a root (a vertex
    labelled by itself).  Each round hooks the root at each end of an arc to
    the smaller of the two ends' labels, then jumps pointers (lab = lab[lab])
    until every vertex points at a root again.  A round that changes nothing
    leaves every arc with equal labels at both ends, so each component
    carries one label, its least vertex.  Labels count up from 0 in the
    order of each component's least vertex.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lab = np.arange(n)
    while True:
        low = np.minimum(lab[u], lab[v])
        hooked = lab.copy()
        np.minimum.at(hooked, lab[u], low)
        np.minimum.at(hooked, lab[v], low)
        while True:
            jumped = hooked[hooked]
            if (jumped == hooked).all():
                break
            hooked = jumped
        if (hooked == lab).all():
            break
        lab = hooked
    return np.unique(lab, return_inverse=True)[1]


def component_labels(adjacency) -> np.ndarray:
    """Connected-component label of every vertex of a symmetric boolean
    adjacency matrix (dense, e.g. `dist <= step`), as `arc_component_labels`.
    """
    u, v = np.nonzero(adjacency)
    return arc_component_labels(len(adjacency), u, v)


def maximal_cliques(adjacency) -> list[tuple[int, ...]]:
    """Every maximal clique of the graph of a symmetric boolean adjacency
    matrix (the diagonal is ignored), each as an increasing tuple.

    Bron-Kerbosch with pivoting (Bron & Kerbosch, CACM 1973; Tomita et al.
    2006) over int bitsets: a clique R grows by the candidates P, X holds
    the vertices already tried, and only candidates outside the
    neighbourhood of a pivot, a vertex of P | X with the most neighbours
    in P, are branched on.  The recursion is as deep as the largest clique.
    A graph with no vertices has no maximal clique.
    """
    adj = np.asarray(adjacency, dtype=bool)
    packed = np.packbits(adj, axis=1, bitorder="little")  # row i: the bits of i's neighbours
    data, w = packed.tobytes(), packed.shape[1]
    nbrs = [int.from_bytes(data[i * w : i * w + w], "little") & ~(1 << i) for i in range(len(adj))]
    out: list[tuple[int, ...]] = []

    def expand(clique: list[int], p: int, x: int) -> None:
        if not p and not x:
            out.append(tuple(sorted(clique)))
            return
        px, pivot, most = p | x, -1, -1
        while px:
            low = px & -px
            i = low.bit_length() - 1
            if (c := (p & nbrs[i]).bit_count()) > most:
                pivot, most = i, c
            px ^= low
        branch = p & ~nbrs[pivot]
        while branch:
            low = branch & -branch
            i = low.bit_length() - 1
            expand(clique + [i], p & nbrs[i], x & nbrs[i])
            p ^= low
            x |= low
            branch ^= low

    if len(adj):
        expand([], (1 << len(adj)) - 1, 0)
    return out


def gate_map(D: np.ndarray, target) -> np.ndarray:
    """For each row x of D, the first entry of `target` nearest to x.

    On a tree the nearest point of a geodesic (any subtree) is unique, as is
    the gate of a convex set in a median graph.
    """
    target = np.asarray(target, dtype=np.int64)
    return target[np.argmin(D[:, target], axis=1)]


# ---------------------------------------------------------------------------
# fixture constructors


def _row_paths(ids: np.ndarray) -> np.ndarray:
    """The edges joining neighbouring entries along each row of ids."""
    return np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)


def path_graph(n: int) -> UnitGraph:
    return UnitGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def grid_graph(rows: int, cols: int) -> UnitGraph:
    """rows x cols grid; vertex (r, c) has index r*cols + c."""
    v = np.arange(rows * cols).reshape(rows, cols)
    return UnitGraph(rows * cols, np.concatenate([_row_paths(v), _row_paths(v.T)]))


def spider_graph(legs: int, leg_length: int) -> UnitGraph:
    """Center 0 with `legs` paths of `leg_length` edges attached, leg i
    running 0, 1 + i * leg_length, ..., (i + 1) * leg_length."""
    runs = 1 + np.arange(legs * leg_length).reshape(legs, leg_length)
    runs = np.hstack([np.zeros((legs, 1), dtype=np.int64), runs])
    return UnitGraph(legs * leg_length + 1, _row_paths(runs))


def random_tree(n: int, rng: np.random.Generator) -> UnitGraph:
    """Uniform-ish random tree: each vertex i>0 attaches to a random earlier vertex."""
    edges = tuple((int(rng.integers(0, i)), i) for i in range(1, n))
    return UnitGraph(n, edges)
