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
    """Pieces Y_i with projections proj[(i, j)] = shadow of Y_j inside Y_i."""

    pieces: tuple[UnitGraph, ...]
    proj: dict[tuple[int, int], frozenset[int]]
    theta: Number

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
        object.__setattr__(self, "theta", as_number(self.theta))

    @property
    def count(self) -> int:
        return len(self.pieces)

    def diam(self, piece: int, subset) -> int:
        idx = sorted(subset)
        if len(idx) <= 1:
            return 0
        D = self.pieces[piece].distance_matrix
        return int(D[idx][:, idx].max())

    def dpi(self, middle: int, a: int, b: int) -> int:
        """diam of the union of the shadows of a and b inside `middle`."""
        return self.diam(middle, self.proj[(middle, a)] | self.proj[(middle, b)])

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
    """Least theta making (P0) and (P1) hold, violations at the declared
    theta, and the (P2) census of loud middles per pair.  Each dpi(middle,
    a, b) is computed once, into a table both passes read."""
    k = s.count
    p0 = 0
    for (i, j), sub in s.proj.items():
        p0 = max(p0, s.diam(i, sub))
    theta_min = p0
    dpi = [[[0] * k for _ in range(k)] for _ in range(k)]
    for m in range(k):
        for a, b in itertools.combinations([j for j in range(k) if j != m], 2):
            dpi[m][a][b] = dpi[m][b][a] = s.dpi(m, a, b)
    violations = []
    for a in range(k):
        for b in range(a + 1, k):
            for c in range(b + 1, k):
                vals = [(dpi[a][b][c], a), (dpi[b][a][c], b), (dpi[c][a][b], c)]
                vals.sort(reverse=True)
                theta_min = max(theta_min, vals[1][0])
                loud = [m for v, m in vals if v > s.theta]
                if len(loud) >= 2:
                    # witness ordered as (outer, loud middle, loud middle)
                    outer = ({a, b, c} - set(loud[:2])).pop()
                    violations.append((outer,) + tuple(sorted(loud[:2])))
    p2 = {}
    for i in range(k):
        for l in range(i + 1, k):
            p2[(i, l)] = sum(
                1 for j in range(k) if j not in (i, l) and dpi[j][i][l] > s.theta
            )
    ok = p0 <= s.theta and not violations
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
    sys0 = ProjectionSystem(pieces, proj, 0)
    report = verify_projection_axioms(sys0)
    return ProjectionSystem(pieces, proj, report.theta_min)


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
    attachments = []
    for i in range(k):
        for j in range(i + 1, k):
            if all(s.dpi(w, i, j) <= K for w in range(k) if w not in (i, j)):
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


def flat_projection(q: QuasiTreeSpace, U: int, x: int) -> frozenset[int]:
    """Global vertices of piece U that x projects to ({x} when x is in U)."""
    if not (0 <= U < q.system.count):
        raise ProjectionError(f"unknown piece {U}")
    if not (0 <= x < q.n):
        raise ProjectionError(f"unknown vertex {x}; only piece vertices are queryable")
    p, local = q.local_id(x)
    if p == U:
        return frozenset([x])
    return frozenset(q.offsets[U] + v for v in q.system.proj[(U, p)])


def flat_distance(q: QuasiTreeSpace, U: int, x: int, y: int) -> int:
    """diam of the union of the flat projections of x and y inside piece U."""
    px = flat_projection(q, U, x)
    py = flat_projection(q, U, y)
    local = sorted(v - q.offsets[U] for v in px | py)
    return q.system.diam(U, local)


def flat_sum(q: QuasiTreeSpace, x: int, y: int, threshold) -> int:
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


def check_bbf_distance_formula(q: QuasiTreeSpace, Kprime, samples) -> DistanceFormulaReport:
    """Check  sum_{>=K'}/2 <= d <= 6K + 4*sum_{>=K}  on the sampled pairs."""
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


def fit_lower_threshold(q: QuasiTreeSpace, samples, cap_factor: int = 20):
    """Least K' in (K, cap_factor*K] making the halved lower bound hold on
    every sample; None when even the cap fails."""
    cap = cap_factor * q.K
    values = {q.K + 1}
    pairs = [(int(x), int(y)) for x, y in samples]
    for x, y in pairs:
        for U in range(q.system.count):
            d = flat_distance(q, U, x, y)
            if q.K < d <= cap:
                values.add(d)
    candidates = sorted(v for v in values if v <= cap) + [cap]
    for cand in candidates:
        if all(Fraction(flat_sum(q, x, y, cand), 2) <= q.dist(x, y) for x, y in pairs):
            return cand
    return None


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
