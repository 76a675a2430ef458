"""Wallspaces and their dual complexes.

A wall is a bipartition of a finite ground set; a coherent orientation picks
one side per wall with all chosen sides pairwise intersecting.  The dual
graph has one vertex per coherent orientation and an edge where two
orientations differ on exactly one wall.  It is a median graph (Sageev
1995; Roller 1998), and `median.orientation_search` walks it from the
principal orientation of point 0, so its edges are the flips of the search
and its hyperplanes the walls (`cubes.orientation_skeleton`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubes import CubeSkeleton, orientation_skeleton
from .jsonio import expect, ints, member
from .median import orientation_search, relabel_rows


class WallspaceError(ValueError):
    pass


@dataclass(frozen=True)
class Wallspace:
    """Distinct walls on the ground set range(points), each stored as
    (side holding its least point, other side)."""

    points: int
    walls: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self):
        ground = frozenset(range(self.points))
        canon: dict[tuple[frozenset[int], frozenset[int]], int] = {}
        for i, (lh, rh) in enumerate(self.walls):
            lh, rh = frozenset(lh), frozenset(rh)
            if not lh or not rh:
                raise WallspaceError(f"wall {i} has an empty side")
            if lh | rh != ground or lh & rh:
                raise WallspaceError(f"wall {i} is not a bipartition of the ground set")
            if sorted(rh) < sorted(lh):
                lh, rh = rh, lh
            j = canon.setdefault((lh, rh), i)
            if j != i:
                raise WallspaceError(f"walls {j} and {i} are the same bipartition")
        object.__setattr__(self, "walls", tuple(canon))

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "walls": [[sorted(l), sorted(r)] for l, r in self.walls],
        }

    @staticmethod
    def from_dict(d: dict) -> "Wallspace":
        walls = []
        for i, wall in enumerate(member(d, "walls", list)):
            sides = enumerate(expect(wall, list, f"walls[{i}]", 2))
            walls.append(tuple(frozenset(ints(s, f"walls[{i}][{j}]")) for j, s in sides))
        return Wallspace(member(d, "points", int), tuple(walls))


@dataclass(frozen=True)
class Orientation:
    """A choice of one side per wall; sides[i] in {0, 1}."""

    sides: tuple[int, ...]


@dataclass(frozen=True)
class DualComplex:
    skeleton: CubeSkeleton
    orientations: tuple[Orientation, ...]


def dual_cube_complex(w: Wallspace) -> DualComplex:
    """The dual graph on all coherent orientations, sorted by their sides.
    Side 0 of every wall holds point 0, so the search starts from the
    all-zeros orientation."""
    H = np.zeros((w.points, len(w.walls)), dtype=bool)
    for i, (_, rh) in enumerate(w.walls):
        H[sorted(rh), i] = True
    O, flips = orientation_search(H)
    order = np.lexsort(O.T[::-1]) if w.walls else np.zeros(1, dtype=np.int64)
    O, flips = relabel_rows(O, flips, order)
    return DualComplex(
        skeleton=orientation_skeleton(O, flips),
        orientations=tuple(Orientation(tuple(o)) for o in O.astype(np.int64).tolist()),
    )


def walls_of_skeleton(c: CubeSkeleton) -> Wallspace:
    """The wallspace whose walls are the skeleton's halfspace pairs."""
    return Wallspace(c.n, tuple(c.halfspaces))
