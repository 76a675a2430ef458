"""Independent brute-force oracles used to derive expected values.

Everything here is deliberately naive and self-contained: plain-Python BFS,
exhaustive triple scans.  The oracles never
call into the code paths they check.  The section after them keeps, as
reference kernels, the numpy products the package once used for the rank,
the orientation search and the Hausdorff distance of a closure.  The last
section holds the checks and fixtures that only tests use: property checks
built on the package's types, and small graphs, instances and projection
systems.
"""

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from cubekit.cubes import ConvexityError
from cubekit.fixtures import _with_measured_E
from cubekit.graphs import GraphError, UnitGraph, component_labels, path_graph, spider_graph
from cubekit.hhs import Domain, HHSInstance, SetRows
from cubekit.jsonio import as_number
from cubekit.median import MedianError, closure_search, lex_least_geodesics
from cubekit.projection import Number, ProjectionError, ProjectionSystem, axes_in_tree_system
from cubekit.walls import Orientation, dual_cube_complex, walls_of_skeleton


def oracle_bfs(n, edges, src):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [None] * n
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def oracle_all_dists(n, edges):
    return [oracle_bfs(n, edges, s) for s in range(n)]


def oracle_root_paths(n, edges):
    """paths[v]: the vertices from v up to vertex 0 in a tree, v first, by a
    plain BFS from 0 (edges are (u, v) or (u, v, w))."""
    adj = [[] for _ in range(n)]
    for e in edges:
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    parent = {0: None}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    paths = []
    for v in range(n):
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        paths.append(path)
    return paths


def oracle_lca(paths, u, v):
    """The first vertex of u's root path that is on v's."""
    up = set(paths[v])
    return next(x for x in paths[u] if x in up)


def oracle_medians_of(dist, x, y, z):
    n = len(dist)
    out = []
    for v in range(n):
        if (
            dist[x][v] + dist[v][y] == dist[x][y]
            and dist[y][v] + dist[v][z] == dist[y][z]
            and dist[z][v] + dist[v][x] == dist[z][x]
        ):
            out.append(v)
    return out

def oracle_is_median(n, edges):
    dist = oracle_all_dists(n, edges)
    if any(None in row for row in dist):
        return False, None
    for x, y, z in combinations(range(n), 3):
        meds = oracle_medians_of(dist, x, y, z)
        if len(meds) != 1:
            return False, (x, y, z)
    return True, None


def oracle_closure(n, edges, seed_set):
    """Median saturation by repeated full triple scans."""
    dist = oracle_all_dists(n, edges)
    S = set(seed_set)
    while True:
        new = set()
        for x, y, z in combinations(sorted(S), 3):
            meds = oracle_medians_of(dist, x, y, z)
            assert len(meds) == 1
            if meds[0] not in S:
                new.add(meds[0])
        if not new:
            return S
        S |= new


def oracle_is_coherent(w, o):
    """Whether the sides an Orientation picks of a Wallspace's walls
    pairwise meet."""
    sides = [w.walls[i][s] for i, s in enumerate(o.sides)]
    return all(a & b for a, b in combinations(sides, 2))


def oracle_interval_closure(n, edges, seed_set):
    dist = oracle_all_dists(n, edges)
    S = set(seed_set)
    while True:
        new = set()
        for a in S:
            for b in S:
                for v in range(n):
                    if dist[a][v] + dist[v][b] == dist[a][b] and v not in S:
                        new.add(v)
        if not new:
            return S
        S |= new


def grid_v(r, c, cols):
    return r * cols + c


def lex_geodesic(graph, a, b):
    """Least-index shortest path in a UnitGraph, for building test paths."""
    D = graph.distance_matrix
    path = [a]
    cur = a
    while cur != b:
        nxt = min(w for w in graph.neighbors(cur) if D[w, b] == D[cur, b] - 1)
        path.append(nxt)
        cur = nxt
    return path


def oracle_canonical_edges(n, edges):
    """The sorted (min, max) edge pairs, checked one edge at a time: a loop,
    an end out of range or a repeat is a ValueError naming the first."""
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"multi-edge {key}")
        seen.add(key)
    return tuple(sorted(seen))


def oracle_toward(n, edges, v):
    """For every u, the least neighbour of u one step closer to v (None at
    v itself), by a BFS from v and a scan of every edge."""
    dist = oracle_bfs(n, edges, v)
    best = [None] * n
    for a, b in edges:
        for x, w in ((a, b), (b, a)):
            if dist[w] == dist[x] - 1 and (best[x] is None or w < best[x]):
                best[x] = w
    return best


def oracle_bridge(graph, members, C):
    """The members, with one `lex_geodesic` per ordered pair of pieces at
    most C apart, from the lexicographically least closest pair of the two.
    Pieces are the components of the members under distance <= 1, grown by
    search; the piece pairs are visited one at a time."""
    dist = oracle_all_dists(graph.n, graph.edges)
    members = sorted(set(members))
    pieces, seen = [], set()
    for s in members:
        if s in seen:
            continue
        piece, stack = [s], [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in members:
                if y not in seen and dist[x][y] <= 1:
                    seen.add(y)
                    piece.append(y)
                    stack.append(y)
        pieces.append(piece)
    out = set(members)
    for P in pieces:
        for Q in pieces:
            if P is not Q:
                d, u, v = min((dist[u][v], u, v) for u in P for v in Q)
                if d <= C:
                    out.update(lex_geodesic(graph, u, v))
    return out


# ---------------------------------------------------------------------------
# the per-triple and per-pair rules of the measure path (psi, df-check)


def oracle_is_tree(n, edges):
    return len(edges) == n - 1 and None not in oracle_bfs(n, edges, 0)


def oracle_set_dist(dist, A, B):
    """Least distance between the vertex sets A and B."""
    return min(dist[a][b] for a in A for b in B)


def oracle_tuple_consistency(domains, b):
    """[(u, v, value)] for each pair of domain ids u before v whose domains
    are not orthogonal, value the consistency of the tuple b (id -> vertex set).

    `domains` maps each id, in domain order, to (dist, rel, rho, rho_map),
    dist a list of lists.  Transverse u, v: the lesser distance from an entry
    to the other's rho.  `small` nested in `big`: the distance from big's
    entry to rho(small, big), or, when big has a rho_map to small, the lesser
    of that and the diameter of small's entry joined with big's entry's image.
    """

    def to_rho(src, dst):  # distance in dst from b's entry to rho(src, dst)
        return oracle_set_dist(domains[dst][0], b[dst], domains[src][2][dst])

    out = []
    for u, v in combinations(domains, 2):
        rel = domains[u][1][v]
        if rel == "orth":
            continue
        if rel == "trans":
            value = min(to_rho(v, u), to_rho(u, v))
        else:
            small, big = (u, v) if rel == "nested" else (v, u)
            value = to_rho(small, big)
            rows = domains[big][3].get(small)
            if rows is not None:
                entry = set(b[small]).union(*(rows[w] for w in b[big]))
                dist = domains[small][0]
                value = min(value, max(dist[p][q] for p in entry for q in entry))
        out.append((u, v, value))
    return out


def oracle_projection_table(dist, rows):
    """(reps, singleton, setdist, diameters) of a domain whose projection of
    vertex x is the vertex set rows[x]: the least vertex of each row, whether
    every row is one vertex, the distance from each row to each vertex, and
    each row's diameter; `dist` is a list of lists."""
    sets = [frozenset(r) for r in rows]
    reps = [min(s) for s in sets]
    setdist = [[oracle_set_dist(dist, s, [v]) for v in range(len(dist))] for s in sets]
    diameters = [max(dist[p][q] for p in s for q in s) for s in sets]
    return reps, all(len(s) == 1 for s in sets), setdist, diameters


def oracle_projection_findings(ambient, domains):
    """(measured, witness) per check of validate's projection-diameter,
    coarse-lipschitz and coarse-onto findings.  `ambient` is the ambient
    metric and `domains` lists (id, dist, rows) per domain, rows[x] the
    projection of vertex x; each witness is the first offender, scanning
    domains in order and vertices (pairs) in increasing order, that reaches
    the worst value."""
    found = {"projection-diameter": (0, None), "coarse-lipschitz": (0, None), "coarse-onto": (0, None)}

    def offer(check, value, witness):
        if value > found[check][0]:
            found[check] = (value, witness)

    n = len(ambient)
    for uid, dist, rows in domains:
        for x, d in enumerate(oracle_projection_table(dist, rows)[3]):
            offer("projection-diameter", d, (uid, x))
        for x in range(n):
            for y in range(n):
                offer("coarse-lipschitz", oracle_set_dist(dist, rows[x], rows[y]) - ambient[x][y], (uid, x, y))
        image = set().union(*rows)
        offer("coarse-onto", max(oracle_set_dist(dist, image, [v]) for v in range(len(dist))), (uid,))
    return found


def oracle_coarse_median(domains, x, y, z):
    """Coarse median of an ambient triple, one triple at a time.

    `domains` lists (dist, pi, is_tree) per domain: dist a list of lists,
    pi[g] the set a vertex g projects to.  In a tree domain the target is the
    median of the least projection points; otherwise it is the least vertex
    minimizing the summed distances to the three projections.  Returns the
    least ambient vertex minimizing the worst distance from its projection to
    the targets, with that distance.
    """
    targets = []
    for dist, pi, tree in domains:
        if tree:
            t = oracle_medians_of(dist, *(min(pi[w]) for w in (x, y, z)))[0]
        else:
            score = [
                sum(oracle_set_dist(dist, pi[w], [v]) for w in (x, y, z))
                for v in range(len(dist))
            ]
            t = score.index(min(score))
        targets.append(t)
    n = len(domains[0][1])
    score = [
        max(oracle_set_dist(dist, pi[g], [t]) for (dist, pi, _), t in zip(domains, targets))
        for g in range(n)
    ]
    best = score.index(min(score))
    return best, score[best]


def oracle_codomain_median(distfn, n, a, b, c):
    """(the unique vertex between each pair of a, b, c, False) when there is
    one, else (the least vertex minimizing the summed distances, True)."""
    exact = [
        v
        for v in range(n)
        if distfn(a, v) + distfn(b, v) == distfn(a, b)
        and distfn(b, v) + distfn(c, v) == distfn(b, c)
        and distfn(c, v) + distfn(a, v) == distfn(c, a)
    ]
    if len(exact) == 1:
        return exact[0], False
    score = [distfn(a, v) + distfn(b, v) + distfn(c, v) for v in range(n)]
    return score.index(min(score)), True


def oracle_orbit(n, doms, table=None):
    """Orbit table and slack of one colour class, one vertex at a time.

    `doms` lists (dist, pi, rho) per domain of the class, where rho[j] is the
    shadow of the class's j-th domain in this one.  Unless a table is given,
    vertex g goes to the least position V minimizing max over U != V of
    d_U(pi_U(g), rho_U(V)); the slack is the largest such value at the
    table's positions.
    """
    def worst(g, pos):
        vals = [
            oracle_set_dist(dist, pi[g], rho[pos])
            for u, (dist, pi, rho) in enumerate(doms)
            if u != pos
        ]
        return max(vals, default=0)

    if table is None:
        table = []
        for g in range(n):
            vals = [worst(g, pos) for pos in range(len(doms))]
            table.append(vals.index(min(vals)))
    return table, max(worst(g, table[g]) for g in range(n))


def oracle_df_fit(rows, s):
    """Distance-formula constants by the Fraction loop: the least A >= 1
    with B(A) = max(0, S/A - d, d - A*S over rows) <= A*s, that B, and the
    largest upper and lower slacks.  `rows` holds (pair, d, S)."""
    from fractions import Fraction

    A = 1
    while True:
        b = Fraction(0)
        for _, d, S in rows:
            b = max(b, Fraction(S, A) - d, Fraction(d - A * S))
        if b <= A * s or A > 1 << 20:
            break
        A += 1
    up = max((A * S + b - d for _, d, S in rows), default=Fraction(0))
    low = max((d - (Fraction(S, A) - b) for _, d, S in rows), default=Fraction(0))
    return A, b, up, low


# ---------------------------------------------------------------------------
# tree approximation and hulls


def oracle_weighted_dists(n, edges, src):
    """Distances from src over weighted edges (u, v, w), by relaxing every
    edge until nothing changes."""
    dist = [None] * n
    dist[src] = 0
    changed = True
    while changed:
        changed = False
        for u, v, w in edges:
            for a, b in ((u, v), (v, u)):
                if dist[a] is not None and (dist[b] is None or dist[a] + w < dist[b]):
                    dist[b] = dist[a] + w
                    changed = True
    return dist


def oracle_metric(n, edges):
    """d(u, v) over weighted edges (u, v, w) by `oracle_weighted_dists`, each
    source's row computed once, on first use; None between components."""
    rows = {}

    def dist(u, v):
        if u not in rows:
            rows[u] = oracle_weighted_dists(n, edges, u)
        return rows[u][v]

    return dist


def oracle_tree_approximate(n, edges, max_roots=64):
    """Shortest-path tree per candidate root, one root at a time.

    Candidates are every vertex, or every (n // max_roots)-th past max_roots.
    Each vertex v other than the root hangs from its first neighbour u in
    (u, w) order with d(root, u) + w = d(root, v).  The tree is scored
    two-sided against the weighted metric d, exactly: additive max |td - d|,
    multiplicative max(td / d, d / td) over d > 0.  Returns (root, additive,
    multiplicative, sorted tree edges) of the least (additive,
    multiplicative, root).
    """
    from fractions import Fraction

    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    full = [oracle_weighted_dists(n, edges, s) for s in range(n)]
    roots = list(range(n)) if n <= max_roots else list(range(0, n, max(1, n // max_roots)))
    best = None
    for r in roots:
        d = full[r]
        tree = []
        for v in range(n):
            if v != r:
                p = next(u for u, w in sorted(adj[v]) if d[u] + w == d[v])
                tree.append((min(v, p), max(v, p)))
        tree.sort()
        td = oracle_all_dists(n, tree)
        add = max(abs(td[a][b] - full[a][b]) for a in range(n) for b in range(n))
        mult = max(
            (
                Fraction(max(td[a][b], full[a][b]), min(td[a][b], full[a][b]))
                for a in range(n)
                for b in range(n)
                if full[a][b] > 0
            ),
            default=Fraction(1),
        )
        if best is None or (add, mult, r) < best[:3]:
            best = (add, mult, r, tree)
    add, mult, r, tree = best
    return r, add, mult, tree


def oracle_hull(n, edges, points):
    """Vertices on some geodesic between two of `points`, all pairs scanned."""
    dist = oracle_all_dists(n, edges)
    return sorted(
        v for v in range(n)
        if any(dist[a][v] + dist[v][b] == dist[a][b] for a in points for b in points)
    )


def oracle_kappa(rows):
    """(kappa_lower, kappa_upper, additive) by the per-pair Fraction loop over
    rows (pair, d_G, d_product)."""
    from fractions import Fraction

    k_up, k_low, add = Fraction(1), Fraction(1), Fraction(0)
    for _, dg, dp in rows:
        if dg > 0 and dp > 0:
            k_up = max(k_up, Fraction(dp) / dg)
            k_low = max(k_low, Fraction(dg) / dp)
        elif dg == 0:
            add = max(add, Fraction(dp))
        else:
            add = max(add, Fraction(dg))
    return k_low, k_up, add


# ---------------------------------------------------------------------------
# reference kernels: the (walls x walls) and (closure x A) products


def oracle_max_crossing(masks):
    """Size of the largest clique of the crossing graph of the classes with
    these side masks, one row each: two classes cross when all four
    quarter-spaces are nonempty, which float products count for every pair
    at once."""
    from cubekit.graphs import maximal_cliques

    if not len(masks):
        return 0
    a = np.array(masks, dtype=np.float64)
    b = 1.0 - a
    cross = (a @ a.T > 0) & (a @ b.T > 0) & (b @ a.T > 0) & (b @ b.T > 0)
    return max(len(c) for c in maximal_cliques(cross))


def oracle_orientation_search(H):
    """The coherent orientations of the walls of H (row 0 all False, no
    column constant or repeated) and the flips between them, layer by
    layer, each layer's blocked counts from one `layer @ step` product and
    its repeats dropped by np.unique over its rows."""
    A = np.asarray(H, dtype=np.float64).T
    gram = A @ A.T
    inside0 = gram == np.diag(gram)[None, :]
    np.fill_diagonal(inside0, False)
    base = inside0.sum(axis=0)
    step = (gram == 0).astype(np.float64) - inside0
    layer = np.zeros((1, A.shape[0]), dtype=bool)
    layers, flips, start = [layer], [], 0
    while True:
        i, w = np.nonzero(~layer & (layer @ step + base == 0))
        if not i.size:
            break
        child = layer[i]
        child[np.arange(len(i)), w] = True
        _, first, inverse = np.unique(child, axis=0, return_index=True, return_inverse=True)
        flips.append(np.stack([start + i, start + len(layer) + inverse.reshape(-1)], axis=1))
        start += len(layer)
        layer = child[first]
        layers.append(layer)
    return np.concatenate(layers), np.concatenate(flips or [np.empty((0, 2), np.int64)])


def oracle_hamming_hausdorff(O, at):
    """Largest Hamming distance from a row of the orientations O to the
    nearest of the rows `at`, by one (rows x at) float product."""
    H = np.asarray(O, dtype=np.float64)
    size = H.sum(axis=1)
    hamming = size[:, None] + size[at] - 2 * (H @ H[at].T)
    return int(hamming.min(axis=1).max())


# ---------------------------------------------------------------------------
# checks and fixtures that only tests use


def closure_of(space, seed):
    """The points of `closure_search`, as a frozenset."""
    return frozenset(closure_search(space, seed)[0].tolist())


def lex_least_geodesic(space, u, v):
    """The one walk from u to v of `lex_least_geodesics`, as a list."""
    return lex_least_geodesics(space, [u], [v])[:, 0].tolist()


def cycle_graph(n):
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return UnitGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_bipartite_graph(a, b):
    return UnitGraph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def star_graph(legs):
    """Center vertex 0 with `legs` pendant vertices."""
    return UnitGraph(legs + 1, tuple((0, i + 1) for i in range(legs)))


def are_isomorphic(g, h):
    """Exact isomorphism test (VF2 via networkx; brute force for tiny inputs)."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    if g.n <= 7:
        hset = set(h.edges)
        for perm in itertools.permutations(range(g.n)):
            if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in hset for u, v in g.edges):
                return True
        return False
    import networkx as nx

    gn = nx.Graph(list(g.edges))
    gn.add_nodes_from(range(g.n))
    hn = nx.Graph(list(h.edges))
    hn.add_nodes_from(range(h.n))
    return nx.is_isomorphic(gn, hn)


def verify_isomorphism(g, h, mapping):
    """Check that `mapping` is a bijection g->h preserving adjacency both ways."""
    if len(mapping) != g.n or h.n != g.n:
        return False
    if sorted(mapping.values()) != list(range(h.n)):
        return False
    hset = set(h.edges)
    mapped = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in g.edges}
    return mapped == hset


def is_median_closed(m, S):
    """Whether S holds every median of its triples in the `MedianAlgebra` m;
    on failure the witness (a, b, c) has the least (a, c) with a <= c, then
    the least b."""
    members = np.array(sorted(set(int(v) for v in S)), dtype=np.int64)
    least = None  # (a, c, b) of the least escaping triple
    for i, c in enumerate(members.tolist()):
        a, b = np.repeat(members[: i + 1], len(members)), np.tile(members, i + 1)
        out = np.flatnonzero(~np.isin(m.median_bulk(a, b, c), members))
        if out.size:
            j = int(out[0])  # row-major order: least a, then least b
            if least is None or (a[j], c) < least[:2]:
                least = (int(a[j]), c, int(b[j]))
    if least is None:
        return True, None
    a, c, b = least
    return False, (a, b, c)


def minimal_connection_constant(dist, S):
    """Least C for which S is C-connected."""
    members = sorted(set(int(v) for v in S))
    if len(members) <= 1:
        return 0
    sub = dist[np.ix_(members, members)]
    for c in sorted(set(sub.flatten().tolist())):
        if c > 0 and component_labels(sub <= c).max() == 0:
            return int(c)
    return int(sub.max())


def check_isometric_subalgebra(m, Y):
    """A 1-connected median-closed subset carries the ambient metric.

    Preconditions are verified first; violations raise a MedianError with a
    witness.  The induced subgraph keeps the order of the sorted members.
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
    index = {v: i for i, v in enumerate(members)}
    induced = UnitGraph(
        len(members), tuple((index[u], index[v]) for u, v in m.graph.edges if u in index and v in index)
    )
    return bool((induced.distance_matrix == sub).all())


def convex_hull(c, S):
    """Intersection of all halfspaces of the `CubeSkeleton` c containing S:
    the vertices on S's side of every class that does not split S."""
    on = c.sides[:, np.unique(np.fromiter(S, dtype=np.int64))]
    if not on.shape[1]:
        raise ConvexityError("hull of the empty set is undefined")
    whole = on.all(axis=1) | ~on.any(axis=1)
    return frozenset(np.flatnonzero((c.sides[whole] == on[whole, :1]).all(axis=0)).tolist())


def principal_orientation(w, x):
    """Orient every wall toward the side containing the ground point x."""
    return Orientation(tuple(0 if x in l else 1 for l, _ in w.walls))


def duality_roundtrip(c):
    """Map each vertex of the `CubeSkeleton` c to its principal orientation
    and verify an isomorphism onto the dual of c's walls."""
    w = walls_of_skeleton(c)
    dual = dual_cube_complex(w)
    index = {o.sides: i for i, o in enumerate(dual.orientations)}
    mapping = {}
    for v in range(c.n):
        key = principal_orientation(w, v).sides
        if key not in index:
            return False, dual, {}
        mapping[v] = index[key]
    ok = verify_isomorphism(c.graph, dual.skeleton.graph, mapping)
    return ok, dual, mapping


def flat_projection(q, U, x):
    """Global vertices of piece U of the quasitree q that x projects to
    ({x} when x is in U)."""
    if not (0 <= U < q.system.count):
        raise ProjectionError(f"unknown piece {U}")
    if not (0 <= x < q.n):
        raise ProjectionError(f"unknown vertex {x}; only piece vertices are queryable")
    p, local = q.local_id(x)
    if p == U:
        return frozenset([x])
    return frozenset(q.offsets[U] + v for v in q.system.proj[(U, p)])


def flat_distance(q, U, x, y):
    """diam of the union of the flat projections of x and y inside piece U."""
    px = flat_projection(q, U, x)
    py = flat_projection(q, U, y)
    return q.system.pieces[U].diameter_of(v - q.offsets[U] for v in px | py)


def flat_sum(q, x, y, threshold):
    """Sum of flat distances over all pieces, ignoring values below threshold."""
    total = 0
    for U in range(q.system.count):
        d = flat_distance(q, U, x, y)
        if d >= threshold:
            total += d
    return total


@dataclass(frozen=True)
class DistanceFormulaSample:
    pair: tuple[int, int]
    true_distance: Number
    lower_sum: int
    upper_sum: int
    lower_ok: bool
    upper_ok: bool


@dataclass(frozen=True)
class DistanceFormulaReport:
    K: Number
    Kprime: Number
    L: Number
    samples: tuple[DistanceFormulaSample, ...]
    all_lower_ok: bool
    all_upper_ok: bool
    max_lower_ratio: Fraction
    max_upper_gap: Number


def check_bbf_distance_formula(q, Kprime, samples):
    """Check  sum_{>=K'}/2 <= d <= 6K + 4*sum_{>=K}  on the sampled pairs of
    the quasitree q (Bestvina-Bromberg-Fujiwara's distance formula)."""
    Kprime = as_number(Kprime)
    if Kprime <= q.K:
        raise ProjectionError(f"K'={Kprime} must exceed K={q.K}")
    out = []
    max_ratio = Fraction(0)
    max_gap: Number = -6 * q.K
    for x, y in samples:
        true = q.dist(int(x), int(y))
        low = flat_sum(q, x, y, Kprime)
        up = flat_sum(q, x, y, q.K)
        lower_ok = Fraction(low, 2) <= true
        upper_ok = true <= 6 * q.K + 4 * up
        out.append(DistanceFormulaSample((int(x), int(y)), true, low, up, lower_ok, upper_ok))
        if true > 0:
            max_ratio = max(max_ratio, Fraction(low) / Fraction(true))
        max_gap = max(max_gap, true - 4 * up)
    return DistanceFormulaReport(
        K=q.K,
        Kprime=Kprime,
        L=q.L,
        samples=tuple(out),
        all_lower_ok=all(s.lower_ok for s in out),
        all_upper_ok=all(s.upper_ok for s in out),
        max_lower_ratio=max_ratio,
        max_upper_gap=max_gap,
    )


def identity_instance(g):
    """Single domain whose space is the ambient graph and pi the identity."""
    dom = Domain(id="whole", space=g, pi=SetRows(np.arange(g.n)), rel={}, rho={})
    return _with_measured_E(HHSInstance(ambient=g, domains=(dom,), E=0))


def tripod_system(leg_length=4):
    """Three leg-lines of a tripod; every projection is the center."""
    tree = spider_graph(3, leg_length)
    lines = [[0] + [1 + i * leg_length + t for t in range(leg_length)] for i in range(3)]
    return axes_in_tree_system(tree, lines)


def two_piece_system(len0, len1, p0=0, p1=0):
    """Two paths, each projecting to one vertex of the other; theta measured."""
    pieces = (path_graph(len0), path_graph(len1))
    return ProjectionSystem(pieces, {(0, 1): frozenset([p0]), (1, 0): frozenset([p1])})


def chain_system(middle_length=12):
    """A - B - C where the shadows of A and C sit at opposite ends of B."""
    pieces = (path_graph(4), path_graph(middle_length + 1), path_graph(4))
    proj = {
        (0, 1): frozenset([0]),
        (0, 2): frozenset([0]),
        (1, 0): frozenset([0]),
        (1, 2): frozenset([middle_length]),
        (2, 0): frozenset([0]),
        (2, 1): frozenset([0]),
    }
    return ProjectionSystem(pieces, proj)


def p1_violation_system():
    """Two fat, far-apart shadow pairs on two pieces: (P1) must flag a triple."""
    pieces = (path_graph(11), path_graph(11), path_graph(3))
    proj = {
        (0, 1): frozenset([0, 1]),
        (0, 2): frozenset([9, 10]),
        (1, 0): frozenset([0, 1]),
        (1, 2): frozenset([9, 10]),
        (2, 0): frozenset([1]),
        (2, 1): frozenset([1]),
    }
    return ProjectionSystem(pieces, proj, 1)
