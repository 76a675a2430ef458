"""Hyperplane structure on median graphs: halfspaces, dimension,
convexity and the Helly property.

An edge class (hyperplane) is the set of edges inducing the same vertex
bipartition; its two sides are convex halfspaces.  The classes of a graph
come from one np.unique over the sides of its edges, or, for the dual of a
wallspace, from the search that built it (`orientation_skeleton`): an
edge's class is the wall it flips.  A `CubeSkeleton` keeps a label per
edge and a side mask per class, and reads its report lists off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import UnitGraph
from .hhs import space_hull
from .median import MedianAlgebra, _row_keys


class ConvexityError(ValueError):
    pass


def _edge_classes(g: UnitGraph) -> tuple[np.ndarray, np.ndarray]:
    """Theta-classes of g: an edge (u, v) splits off the vertices nearer u
    than v, XORed with vertex 0's side, and equal splits are one class.
    Returns the class label of each edge and the (classes x n) side masks."""
    D = g.distance_matrix
    u, v = g.edge_array.T
    sides = (D[:, u] < D[:, v]) ^ (D[0, u] < D[0, v])
    if not (cut := sides.any(axis=0)).all():
        a, b = g.edges[int(np.argmin(cut))]
        raise ConvexityError(f"edge ({a},{b}) does not separate; graph not bipartite")
    _, first, label = np.unique(_row_keys(sides.T), return_index=True, return_inverse=True)
    return label, sides[:, first].T


def crossing_dimension(g: UnitGraph) -> int:
    """Max size of a pairwise-crossing family of edge classes of a graph
    verified to be median: its largest cube's dimension.  By the downward
    cube property the edges below a vertex, seen from vertex 0, span a cube
    (Mulder 1980; Bandelt & Chepoi, "Metric graph theory and geometry",
    2008), and a cube's vertex farthest from 0 has all its cube edges below
    it; so this is the most edges with one far end from 0.
    """
    d0 = g.distance_matrix[0]
    u, v = g.edge_array.T
    return int(np.bincount(np.where(d0[u] < d0[v], v, u), minlength=1).max())


def _runs(flat: list, counts: np.ndarray) -> list[list]:
    """`flat` cut into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


@dataclass(frozen=True, eq=False)
class CubeSkeleton:
    """A median graph with its hyperplane classes, kept as arrays: edge i of
    the graph's sorted `edge_array` lies in class label[i], the classes
    numbered in the order of their first edge, and sides[k] is the side
    mask of class k, False on vertex 0's side.  `hyperplanes` and
    `halfspaces` hold the same classes as tuples and frozensets."""

    median: MedianAlgebra
    label: np.ndarray
    sides: np.ndarray
    dimension: int

    @property
    def graph(self) -> UnitGraph:
        return self.median.graph

    @property
    def n(self) -> int:
        return self.median.n

    def hyperplane_lists(self) -> list[list[list[int]]]:
        """Each class's edges, sorted, by one stable argsort of the labels."""
        edges = self.graph.edge_array[np.argsort(self.label, kind="stable")].tolist()
        return _runs(edges, np.bincount(self.label, minlength=len(self.sides)))

    def halfspace_lists(self) -> list[list[list[int]]]:
        """Each class's two sides as sorted vertex lists, vertex 0's first,
        by np.nonzero on the masks."""
        sides = [_runs(np.nonzero(s)[1].tolist(), s.sum(axis=1)) for s in (~self.sides, self.sides)]
        return [list(pair) for pair in zip(*sides)]

    @cached_property
    def hyperplanes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple(map(tuple, h)) for h in self.hyperplane_lists())

    @cached_property
    def halfspaces(self) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
        return tuple((frozenset(a), frozenset(b)) for a, b in self.halfspace_lists())


def hyperplane_decomposition(m: MedianAlgebra, classes=None) -> CubeSkeleton:
    """Group edges into parallelism classes (hyperplanes) with their halfspaces.

    Both halfspaces of every class are convex, by the theorem that the
    Theta-classes of a median graph bound convex halfspaces (Djokovic 1973;
    Chepoi 2000); the type of `m` guarantees medianness, so convexity is not
    re-checked here.  The dimension is the algebra's rank.

    `classes` is (labels, side masks) of the Theta-classes over the sorted
    edges, as `_edge_classes` returns them, when the caller already knows
    them (`orientation_skeleton`); by default they are computed from the
    graph.  The classes are renumbered in the order of their first edge.
    """
    label, masks = _edge_classes(m.graph) if classes is None else classes
    order = np.argsort(np.unique(label, return_index=True)[1])
    rank = np.argsort(order)
    return CubeSkeleton(m, rank[label], masks[order] ^ masks[order, :1], m.rank)  # False at vertex 0


def orientation_skeleton(O: np.ndarray, flips: np.ndarray) -> CubeSkeleton:
    """The cube skeleton of the dual graph of a wallspace, from
    `median.orientation_search`: vertex k is row k of O, and the flips are
    the edges.  The dual is median (Sageev 1995; Roller 1998), so it is not
    re-scanned.  Its Theta-classes are the walls, so the wall an edge flips
    is its class, and that wall's column of O is a side mask of the class.
    The rank, the largest pairwise-crossing family of walls, is the most
    flips into one orientation from the layer before it, by the downward
    cube property (`crossing_dimension`): the search's root is the base."""
    g = UnitGraph(len(O), np.sort(flips, axis=1))
    u, v = g.edge_array.T
    median = MedianAlgebra(g, int(np.bincount(flips[:, 1], minlength=1).max()))
    return hyperplane_decomposition(median, (np.nonzero(O[u] != O[v])[1], O.T))  # one wall a row


def is_convex(m: MedianAlgebra, S) -> bool:
    """Interval-closure convexity: every geodesic between members stays inside."""
    members = np.unique(np.fromiter(S, dtype=np.int64))
    return int(space_hull(m.dist, members).sum()) == len(members)


@dataclass(frozen=True)
class HellyResult:
    found: bool
    vertex: int | None
    witness_pair: tuple[int, int] | None


def helly_intersection(m: MedianAlgebra, family) -> HellyResult:
    """Common vertex of pairwise-intersecting convex sets of a median graph,
    or a disjoint pair.

    For up to three members the point is the median of pairwise picks; larger
    families fold the last two members into their (convex) intersection.
    Only the metric and the median are read, so no hyperplane pass is needed.
    """
    sets = [np.unique(np.fromiter(S, dtype=np.int64)) for S in family]
    if not sets:
        raise ConvexityError("Helly intersection of an empty family is undefined")
    for idx, S in enumerate(sets):
        if not S.size:
            raise ConvexityError(f"family member {idx} is empty")
        if not is_convex(m, S):
            raise ConvexityError(f"family member {idx} is not convex")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not _meet(sets[i], sets[j]).size:
                return HellyResult(False, None, (i, j))
    vertex = _helly_point(m, sets)
    assert all(vertex in S for S in sets)
    return HellyResult(True, vertex, None)


def _meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted common vertices of two sorted vertex arrays."""
    return np.intersect1d(a, b, assume_unique=True)


def _helly_point(m: MedianAlgebra, sets: list[np.ndarray]) -> int:
    if len(sets) == 1:
        return int(sets[0][0])
    if len(sets) == 2:
        return int(_meet(sets[0], sets[1])[0])
    if len(sets) == 3:
        return m.median(*(int(_meet(sets[i], sets[j])[0]) for i, j in ((1, 2), (0, 2), (0, 1))))
    return _helly_point(m, sets[:-2] + [_meet(sets[-2], sets[-1])])
