"""Hyperplane structure of the dual median graph of a wallspace, and the
Helly property of subtrees.

An edge class (hyperplane) is the set of edges inducing the same vertex
bipartition; its two sides are convex halfspaces.  The package builds one
kind of median graph that is not a tree: the dual of a wallspace, from the
search that lists its orientations (`orientation_skeleton`), where an
edge's class is the wall it flips.  A `CubeSkeleton` keeps a label per
edge and a side mask per class.  Its report (`CubeSkeleton.to_dict`) never
lists them in Python: `jsonio.encode_rows` writes the hyperplanes from the
label-sorted edge array, runs of edges per class, and the halfspaces from
the side masks stacked two rows a class (vertex 0's side first), runs of
vertices per side and two sides per class.  Those are most of a `promote`
report.  Helly (`helly_intersection`) runs on a tree, the approximation of
one quasitree: its convex sets are subtrees, read off the tree's
`TreeIndex` (`hhs.space_hull`), and its median is the index's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import UnitGraph
from .hhs import space_hull
from .jsonio import encode_rows
from .median import MedianAlgebra


class ConvexityError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class CubeSkeleton:
    """A median graph with its hyperplane classes, kept as arrays: edge i of
    the graph's sorted `edge_array` lies in class label[i], the classes
    numbered in the order of their first edge, and sides[k] is the side
    mask of class k, False on vertex 0's side.  `hyperplanes` holds each
    class's edges as tuples."""

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

    @cached_property
    def hyperplanes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each class's edges, sorted, by one stable argsort of the labels."""
        edges = map(tuple, self.graph.edge_array[np.argsort(self.label, kind="stable")].tolist())
        sizes = np.bincount(self.label, minlength=len(self.sides)).tolist()
        return tuple(tuple(itertools.islice(edges, k)) for k in sizes)

    def to_dict(self) -> dict:
        """The skeleton's report: the graph, the dimension and, written by
        `encode_rows` straight from the arrays, each class's sorted edges
        (the label-sorted `edge_array`) and its two sorted sides, vertex 0's
        first (the stacked masks, two rows a class)."""
        sides = np.stack([~self.sides, self.sides], axis=1).reshape(-1, self.n)
        members = np.flatnonzero(sides)
        members %= self.n  # the vertex of each member, in place: one int64 array, not nonzero's two
        order = np.argsort(self.label, kind="stable")
        return {
            "graph": self.graph.to_dict(),
            "hyperplanes": encode_rows(
                "[%d,%d]", self.graph.edge_array[order], np.bincount(self.label, minlength=len(self.sides))
            ),
            "halfspaces": encode_rows("%d", members, sides.sum(axis=1), np.full(len(self.sides), 2)),
            "dimension": self.dimension,
        }


def hyperplane_decomposition(m: MedianAlgebra, classes) -> CubeSkeleton:
    """Group edges into parallelism classes (hyperplanes) with their halfspaces.

    Both halfspaces of every class are convex, by the theorem that the
    Theta-classes of a median graph bound convex halfspaces (Djokovic 1973;
    Chepoi 2000); the type of `m` guarantees medianness, so convexity is not
    re-checked here.  The dimension is the algebra's rank.

    `classes` is (labels, side masks) of the Theta-classes over the sorted
    edges, as the construction of m knows them (`orientation_skeleton`).
    The classes are renumbered in the order of their first edge.
    """
    label, masks = classes
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
    cube property: the edges below a vertex, seen from the search's root,
    span a cube, and a cube's vertex farthest from the root has all its cube
    edges below it (Mulder 1980; Bandelt & Chepoi, "Metric graph theory and
    geometry", 2008)."""
    g = UnitGraph(len(O), np.sort(flips, axis=1))
    u, v = g.edge_array.T
    median = MedianAlgebra(g, int(np.bincount(flips[:, 1], minlength=1).max()))
    return hyperplane_decomposition(median, (np.nonzero(O[u] != O[v])[1], O.T))  # one wall a row


def is_convex(tree: UnitGraph, S) -> bool:
    """Whether the vertex set S of a tree is a subtree: it holds the subtree
    its members span (`space_hull`)."""
    members = np.unique(np.fromiter(S, dtype=np.int64))
    return int(space_hull(tree, members).sum()) == len(members)


@dataclass(frozen=True)
class HellyResult:
    found: bool
    vertex: int | None
    witness_pair: tuple[int, int] | None


def helly_intersection(tree: UnitGraph, family) -> HellyResult:
    """Common vertex of pairwise-intersecting subtrees of a tree, or a
    disjoint pair.

    For up to three members the point is the median of pairwise picks, by
    the tree's `TreeIndex.median`; larger families fold the last two members
    into their (convex) intersection.  A member that is not a subtree is a
    ConvexityError, a tree's hull being read off its `TreeIndex`
    (`space_hull`); a graph that is not a tree gets the index's GraphError.
    """
    sets = [np.unique(np.fromiter(S, dtype=np.int64)) for S in family]
    if not sets:
        raise ConvexityError("Helly intersection of an empty family is undefined")
    for idx, S in enumerate(sets):
        if not S.size:
            raise ConvexityError(f"family member {idx} is empty")
        if not is_convex(tree, S):
            raise ConvexityError(f"family member {idx} is not convex")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not _meet(sets[i], sets[j]).size:
                return HellyResult(False, None, (i, j))
    vertex = _helly_point(tree, sets)
    assert all(vertex in S for S in sets)
    return HellyResult(True, vertex, None)


def _meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted common vertices of two sorted vertex arrays."""
    return np.intersect1d(a, b, assume_unique=True)


def _helly_point(tree: UnitGraph, sets: list[np.ndarray]) -> int:
    if len(sets) == 1:
        return int(sets[0][0])
    if len(sets) == 2:
        return int(_meet(sets[0], sets[1])[0])
    if len(sets) == 3:
        picks = (int(_meet(sets[i], sets[j])[0]) for i, j in ((1, 2), (0, 2), (0, 1)))
        return int(tree.tree_index.median(*picks))
    return _helly_point(tree, sets[:-2] + [_meet(sets[-2], sets[-1])])
