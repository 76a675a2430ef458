"""Projection systems and the quasitree of metric spaces.

A projection system is a family of unit graphs with, for each ordered pair,
a nonempty projection subset and a constant theta controlling projection
diameters (P0), the triple inequality (P1), and the far-pair census (P2).
The quasitree glues the pieces with length-L edges between projection sets
of pairs whose mutual flat-distances on every other piece stay below K.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .graphs import TreeIndex, UnitGraph, gate_map, integer_distance_matrix
from .jsonio import ShapeError, as_number, at, encode_number, expect, ints, member, number


class ProjectionError(ValueError):
    pass


class QuasitreeParameterError(ProjectionError):
    pass


Number = int | Fraction


@dataclass(frozen=True)
class ProjectionSystem:
    """Pieces Y_i with projections proj[(i, j)] = shadow of Y_j inside Y_i,
    and the constant theta.  A system given no theta takes its measured
    constant, the least for which (P0) and (P1) hold
    (`verify_projection_axioms`)."""

    pieces: tuple[UnitGraph, ...]
    proj: dict[tuple[int, int], frozenset[int]]
    theta: Number | None = None

    def __post_init__(self):
        k = len(self.pieces)
        canon = {}
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                if (i, j) not in self.proj:
                    raise ProjectionError(f"missing projection entry ({i},{j})")
                s = frozenset(int(v) for v in self.proj[(i, j)])
                if not s:
                    raise ProjectionError(f"projection ({i},{j}) is empty")
                if not 0 <= min(s) <= max(s) < self.pieces[i].n:
                    raise ProjectionError(f"projection ({i},{j}) leaves piece {i}")
                canon[(i, j)] = s
        for i, j in self.proj:
            if (i, j) not in canon:
                raise ProjectionError(f"projection entry ({i},{j}) names no pair of the {k} pieces")
        object.__setattr__(self, "proj", canon)
        theta = verify_projection_axioms(self).theta_min if self.theta is None else self.theta
        object.__setattr__(self, "theta", as_number(theta))

    @property
    def count(self) -> int:
        return len(self.pieces)

    @cached_property
    def dpi_table(self) -> list[list[list[int]]]:
        """dpi_table[m][a][b]: the diameter of the union of the shadows of a
        and b inside piece m, for distinct m, a, b (0 elsewhere).  Each is
        computed once, for both the axiom check and the gluing rule."""
        k = self.count
        dpi = [[[0] * k for _ in range(k)] for _ in range(k)]
        for m in range(k):
            for a, b in itertools.combinations([j for j in range(k) if j != m], 2):
                dpi[m][a][b] = dpi[m][b][a] = self.pieces[m].diameter_of(self.proj[(m, a)] | self.proj[(m, b)])
        return dpi

    def to_dict(self) -> dict:
        return {
            "pieces": [p.to_dict() for p in self.pieces],
            "proj": {f"{i},{j}": sorted(s) for (i, j), s in sorted(self.proj.items())},
            "theta": encode_number(self.theta),
        }

    @staticmethod
    def from_dict(d: dict, path: str = "") -> "ProjectionSystem":
        """The system of the JSON object d, named `path` in its document."""
        pieces = []
        for i, p in enumerate(member(d, "pieces", list, path)):
            where = f"{at(path, 'pieces')}[{i}]"
            pieces.append(UnitGraph.from_dict(expect(p, dict, where), where))
        proj = {}
        for key, val in member(d, "proj", dict, path).items():
            where = at(at(path, "proj"), key)
            try:
                i, j = map(int, key.split(","))
            except ValueError:
                raise ShapeError(f'{where}: the key is not "i,j" with integers i, j') from None
            proj[(i, j)] = frozenset(ints(val, where))
        return ProjectionSystem(tuple(pieces), proj, number(d, "theta", path))


@dataclass(frozen=True)
class AxiomReport:
    p0_max: int
    theta_min: int
    ok: bool
    p1_violations: tuple[tuple[int, int, int], ...]
    p2_counts: dict[tuple[int, int], int]


def verify_projection_axioms(s: ProjectionSystem) -> AxiomReport:
    """Least theta making (P0) and (P1) hold, and the (P1) violations and
    (P2) census of loud middles per pair at the system's theta, or at that
    least theta while `ProjectionSystem` measures it; the dpi values come
    from `s.dpi_table`."""
    k = s.count
    p0 = max((s.pieces[i].diameter_of(sub) for (i, _), sub in s.proj.items()), default=0)
    dpi = s.dpi_table
    triples = [
        sorted([(dpi[a][b][c], a), (dpi[b][a][c], b), (dpi[c][a][b], c)], reverse=True)
        for a, b, c in itertools.combinations(range(k), 3)
    ]
    theta_min = max([p0] + [vals[1][0] for vals in triples])
    theta = theta_min if s.theta is None else s.theta
    violations = []
    for vals in triples:
        loud = [m for v, m in vals if v > theta]
        if len(loud) >= 2:
            # witness ordered as (outer, loud middle, loud middle)
            outer = ({m for _, m in vals} - set(loud[:2])).pop()
            violations.append((outer,) + tuple(sorted(loud[:2])))
    p2 = {}
    for i in range(k):
        for l in range(i + 1, k):
            p2[(i, l)] = sum(
                1 for j in range(k) if j not in (i, l) and dpi[j][i][l] > theta
            )
    ok = p0 <= theta and not violations
    return AxiomReport(p0, theta_min, ok, tuple(sorted(set(violations))), p2)


def axes_in_tree_system(tree: UnitGraph, lines: list[list[int]]) -> ProjectionSystem:
    """Nearest-point projections between geodesic lines of a tree."""
    if not tree.is_tree():
        raise ProjectionError("carrier graph is not a tree")
    D = tree.distance_matrix
    for idx, line in enumerate(lines):
        for a, b in zip(line, line[1:]):
            if D[a, b] != 1:
                raise ProjectionError(f"line {idx} has non-adjacent consecutive points")
        if D[line[0], line[-1]] != len(line) - 1:
            raise ProjectionError(f"line {idx} is not a geodesic")
    sets = [frozenset(line) for line in lines]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] == sets[j]:
                raise ProjectionError(f"lines {i} and {j} coincide")
    k = len(lines)
    local = [{v: t for t, v in enumerate(line)} for line in lines]
    proj = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            gates = gate_map(D[lines[j]], lines[i])
            proj[(i, j)] = frozenset(local[i][int(g)] for g in gates)
    pieces = tuple(UnitGraph(len(line), tuple((t, t + 1) for t in range(len(line) - 1))) for line in lines)
    return ProjectionSystem(pieces, proj)


# ---------------------------------------------------------------------------
# the quasitree of metric spaces


# Scaled path lengths stay at most 2^40, so int64 holds them exactly with
# room for the sum of three in a median scan and for sums over up to 2^20
# colours (3 * 2^60 < 2^63).
_MAX_SCALED_PATH = 2**40


@dataclass(frozen=True)
class QuasiTreeSpace:
    """The glued space: piece edges of length 1 and, between the projection
    sets of each attached pair, edges of length L.  `edges` keeps the exact
    lengths; every metric query runs on int64 in units of 1/`scale`."""

    system: ProjectionSystem
    K: Number
    L: Number
    offsets: tuple[int, ...]
    piece_of: tuple[int, ...]
    edges: tuple[tuple[int, int, Number], ...]
    attachments: tuple[tuple[int, int], ...]
    connected: bool

    @property
    def n(self) -> int:
        return len(self.piece_of)

    def global_id(self, piece: int, local: int) -> int:
        return self.offsets[piece] + local

    def local_id(self, v: int) -> tuple[int, int]:
        p = self.piece_of[v]
        return p, v - self.offsets[p]

    def piece_vertices(self, piece: int) -> range:
        start = self.offsets[piece]
        return range(start, start + self.system.pieces[piece].n)

    @cached_property
    def scale(self) -> int:
        """The denominator of L.  Distances are held as integers in units of
        1/scale: a piece edge weighs scale and an L-edge L * scale."""
        return Fraction(self.L).denominator

    @cached_property
    def tree_index(self) -> TreeIndex | None:
        """The `TreeIndex` of the glued space, on the scaled weights, when it
        is a connected tree, else None.  LCAs do not see weights."""
        if self.connected and len(self.edges) == self.n - 1:
            return TreeIndex(self.n, self._scaled_edges)
        return None

    @property
    def _scaled_edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, int(w * self.scale)) for u, v, w in self.edges]

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Exact all-pairs distances in units of 1/scale, int64: from the
        `tree_index` when the glued space is a tree, else from
        `integer_distance_matrix` (-1 between components)."""
        if self.tree_index is not None:
            return self.tree_index.distance_matrix()
        return integer_distance_matrix(self.n, self._scaled_edges)

    def dist(self, u: int, v: int) -> Number:
        d = int(self.distance_matrix[u, v])
        if d < 0:
            raise ProjectionError(f"vertices {u},{v} are in different components")
        whole, rest = divmod(d, self.scale)
        return Fraction(d, self.scale) if rest else whole

    def to_dict(self) -> dict:
        return {
            "system": self.system.to_dict(),
            "K": encode_number(self.K),
            "L": encode_number(self.L),
            "piece_of": list(self.piece_of),
            "edges": [[u, v, encode_number(w)] for u, v, w in self.edges],
            "attachments": [list(a) for a in self.attachments],
            "connected": self.connected,
        }

    @staticmethod
    def from_dict(d: dict) -> "QuasiTreeSpace":
        system = ProjectionSystem.from_dict(member(d, "system", dict), "system")
        return build_quasitree(system, number(d, "K"), number(d, "L"))


def build_quasitree(s: ProjectionSystem, K, L) -> QuasiTreeSpace:
    """Assemble the glued space; refuses K below the system constant and an
    L whose scaled path lengths exceed `_MAX_SCALED_PATH`."""
    K = as_number(K)
    L = as_number(L)
    if L <= 0:
        raise QuasitreeParameterError("edge length L must be positive")
    if K < s.theta:
        raise QuasitreeParameterError(
            f"K={K} is below the system constant theta={s.theta}; "
            "the gluing rule is only meaningful for K >= theta"
        )
    k = s.count
    sizes = [p.n for p in s.pieces]
    offsets = tuple(itertools.accumulate(sizes, initial=0))[:-1]
    piece_of = tuple(i for i, size in enumerate(sizes) for _ in range(size))
    total = len(piece_of)
    reach = (total - 1) * max(Fraction(L).numerator, Fraction(L).denominator)
    if reach > _MAX_SCALED_PATH:
        raise QuasitreeParameterError(
            f"L={L} is out of range: scaled path lengths "
            f"(n-1)*max(numerator, denominator) = {reach} exceed 2^40, "
            "the bound that keeps int64 distances and their sums exact"
        )
    edges: list[tuple[int, int, Number]] = [
        (offsets[i] + u, offsets[i] + v, 1) for i, p in enumerate(s.pieces) for u, v in p.edges
    ]
    dpi = s.dpi_table
    attachments = []
    for i in range(k):
        for j in range(i + 1, k):
            if all(dpi[w][i][j] <= K for w in range(k) if w not in (i, j)):
                attachments.append((i, j))
                for u in sorted(s.proj[(i, j)]):
                    for v in sorted(s.proj[(j, i)]):
                        edges.append((offsets[i] + u, offsets[j] + v, L))
    return QuasiTreeSpace(
        system=s,
        K=K,
        L=L,
        offsets=offsets,
        piece_of=piece_of,
        edges=tuple(edges),
        attachments=tuple(attachments),
        connected=UnitGraph(total, tuple((u, v) for u, v, _ in edges)).is_connected(),
    )


@dataclass(frozen=True)
class PieceEmbeddingReport:
    piece: int
    isometric: bool
    totally_geodesic: bool
    worst_pair: tuple[int, int] | None


def piece_embedding_check(q: QuasiTreeSpace, U: int) -> PieceEmbeddingReport:
    """Induced piece distances vs ambient, plus vertex-wise total geodesity."""
    piece = q.system.pieces[U]
    Dp = piece.distance_matrix
    verts = list(q.piece_vertices(U))
    iso = True
    tg = True
    worst = None
    outside = [v for v in range(q.n) if q.piece_of[v] != U]
    for a in range(piece.n):
        for b in range(a + 1, piece.n):
            da = q.dist(verts[a], verts[b])
            if da != int(Dp[a, b]):
                iso = False
                worst = (verts[a], verts[b])
            for w in outside:
                if q.dist(verts[a], w) + q.dist(w, verts[b]) == da:
                    tg = False
                    if worst is None:
                        worst = (verts[a], verts[b])
    return PieceEmbeddingReport(U, iso, tg, worst)
