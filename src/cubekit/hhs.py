"""Finite hierarchical instances: an ambient graph, a family of domain
graphs with projections, pairwise relations (nesting / orthogonality /
transversality), rho-points, and what the pipeline reads of them: the
axiom scan, distance-formula fitting, product regions, hulls, colourings
and the coarse median.

Per-vertex data is held in int arrays: a domain's projection table `pi`
and each `rho_map` are `SetRows`, one flat sorted member array with row
offsets (none at all when every row is one vertex), parsed from JSON in
bulk and read as array slices, gathers and padded matrices.  Sampled pairs
stay int64 arrays through `distance_formula_fit` into its report.

Tuple consistency is one pass, `_pair_consistency`, which
`validate_instance` runs over every vertex tuple at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .graphs import UnitGraph
from .jsonio import expect, flat_int_rows, ints, member
from .median import BLOCK, _blockwise  # noqa: F401  (BLOCK is re-exported)
from .median import is_median_graph  # noqa: F401  (perfbench traces this binding)

REL_NESTED = "nested"      # self is strictly nested in other
REL_CONTAINS = "contains"  # other is strictly nested in self
REL_ORTH = "orth"
REL_TRANS = "trans"
_INVERSE = {REL_NESTED: REL_CONTAINS, REL_CONTAINS: REL_NESTED,
            REL_ORTH: REL_ORTH, REL_TRANS: REL_TRANS}


class InstanceError(ValueError):
    pass


def _in_range(S, n: int) -> bool:
    return all(0 <= v < n for v in S)


def _row_diams(D: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The diameter in D of the vertices of each row of the index matrix
    `rows`, gathered in blocks of at most about 2^20 entries."""
    step = max(1, (1 << 20) // max(1, rows.shape[1]) ** 2)
    return np.concatenate([
        D[r[:, :, None], r[:, None, :]].max(axis=(1, 2), initial=0)
        for r in (rows[lo:lo + step] for lo in range(0, max(len(rows), 1), step))
    ])


class SetRows:
    """A table of vertex sets, one row each, as one flat int64 array:
    row x is members[offsets[x]:offsets[x + 1]], sorted and without
    repeats.  An all-singleton table keeps no offsets (None), row x being
    members[x] alone.  Rows are read as array slices."""

    __slots__ = ("members", "offsets")

    def __init__(self, members, lengths=None):
        """The table whose rows are `members` cut, in order, into runs of
        `lengths` (runs of one when None), each run sorted and cleared of
        repeats."""
        members = np.asarray(members, dtype=np.int64).reshape(-1)
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.int64)
            if (lengths != 1).any():
                row = np.repeat(np.arange(len(lengths)), lengths)
                order = np.lexsort((members, row))
                members, row = members[order], row[order]
                new = np.ones(len(members), dtype=bool)
                new[1:] = (members[1:] != members[:-1]) | (row[1:] != row[:-1])
                members = members[new]
                lengths = np.bincount(row[new], minlength=len(lengths))
            if (lengths == 1).all():
                lengths = None
        self.members = members
        self.offsets = None if lengths is None else np.concatenate(([0], np.cumsum(lengths)))

    @classmethod
    def from_rows(cls, rows) -> "SetRows":
        """The table of an iterable of vertex collections, one row each."""
        rows = [r if isinstance(r, np.ndarray) else np.fromiter(r, dtype=np.int64) for r in rows]
        return cls(np.concatenate([np.zeros(0, dtype=np.int64), *rows]), list(map(len, rows)))

    def __len__(self) -> int:
        return len(self.members) if self.offsets is None else len(self.offsets) - 1

    def __getitem__(self, x):
        """Row x: its sorted members, a slice of `members`; a slice of rows
        is a table of those rows."""
        if isinstance(x, slice):
            return SetRows.from_rows([self[i] for i in range(len(self))[x]])
        if self.offsets is None:
            return self.members[x, None]
        x = range(len(self))[x]  # an IndexError past the end, as a sequence gives
        return self.members[self.offsets[x]:self.offsets[x + 1]]

    @property
    def singleton(self) -> bool:
        return self.offsets is None

    @property
    def lengths(self) -> np.ndarray:
        if self.offsets is None:
            return np.ones(len(self), dtype=np.int64)
        return np.diff(self.offsets)

    @property
    def starts(self) -> np.ndarray:
        """Where each row begins in `members`."""
        return np.arange(len(self)) if self.offsets is None else self.offsets[:-1]

    def image(self, rows=None) -> np.ndarray:
        """The sorted distinct members of the given rows (of all when None)."""
        if rows is None:
            return np.unique(self.members)
        return np.unique(np.concatenate([self[x] for x in rows]))

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, ok): row x of the matrix M starts with row x's members, marked
        True in ok, and repeats its first member to the width of the longest
        row, so that a max or min over M's row ignores the padding (an empty
        row, all padding, holds some other member or 0)."""
        if self.offsets is None:
            return self.members[:, None], np.ones((len(self), 1), dtype=bool)
        lengths = self.lengths
        cols = np.arange(int(lengths.max(initial=0)))
        ok = cols < lengths[:, None]
        at = self.starts[:, None] + np.where(ok, cols, 0)
        return np.append(self.members, 0)[at], ok

    def tolist(self) -> list[list[int]]:
        if self.offsets is None:
            return self.members[:, None].tolist()
        flat = self.members.tolist()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class Domain:
    """One domain: its space, the projection `pi` from the ambient graph (a
    `SetRows`, row x the projection of vertex x), its relations to the other
    domains, and its rho data; a `rho_map` entry is a `SetRows` with one row
    per vertex of this domain's space.  Rows given in another form, such as
    a tuple of sets, are converted by `SetRows.from_rows`.  An empty
    projection, or one naming a vertex outside the space, is an
    InstanceError."""

    id: str
    space: UnitGraph
    pi: SetRows
    rel: dict[str, str]
    rho: dict[str, frozenset[int]]
    rho_map: dict[str, SetRows] = field(default_factory=dict)

    def __post_init__(self):
        def rows(t):
            return t if isinstance(t, SetRows) else SetRows.from_rows(t)

        object.__setattr__(self, "pi", rows(self.pi))
        object.__setattr__(self, "rho_map", {k: rows(t) for k, t in self.rho_map.items()})
        pi = self.pi
        if not pi.singleton and not (lengths := pi.lengths).all():
            raise InstanceError(f"empty projection of vertex {int(np.argmin(lengths))} in {self.id}")
        unsigned = pi.members.view(np.uint64)  # a negative member wraps past any n
        if unsigned.max(initial=0) >= self.space.n:
            x = int(np.searchsorted(pi.starts, np.argmax(unsigned >= self.space.n), side="right")) - 1
            raise InstanceError(f"projection of vertex {x} in {self.id} leaves its space of {self.space.n} vertices")

    @cached_property
    def dist(self) -> np.ndarray:
        return self.space.distance_matrix

    @cached_property
    def reps(self) -> np.ndarray:
        """reps[x] = min(pi[x]), the least vertex of each projection."""
        return self.pi.members[self.pi.starts]

    @cached_property
    def singleton(self) -> bool:
        """Whether every projection pi[x] is one vertex, namely reps[x]."""
        return self.pi.singleton

    @cached_property
    def setdist(self) -> np.ndarray:
        """Matrix S[x, v] = distance from the projection of ambient x to v."""
        D = self.dist
        if self.singleton:
            return D[self.reps]
        return np.minimum.reduceat(D[self.pi.members], self.pi.starts, axis=0)


@dataclass(frozen=True)
class HHSInstance:
    ambient: UnitGraph
    domains: tuple[Domain, ...]
    E: int

    @cached_property
    def by_id(self) -> dict[str, Domain]:
        return {d.id: d for d in self.domains}

    @cached_property
    def dist(self) -> np.ndarray:
        return self.ambient.distance_matrix

    @property
    def n(self) -> int:
        return self.ambient.n

    def domain_ids(self) -> list[str]:
        return [d.id for d in self.domains]

    def d_U_matrix(self, U: Domain) -> np.ndarray:
        """Matrix of d_U(x, y), the distance in U's space between the
        projections of x and y, over all ambient pairs."""
        if U.singleton:
            return U.dist[U.reps][:, U.reps]
        return np.minimum.reduceat(U.setdist[:, U.pi.members], U.pi.starts, axis=1)

    def rho_of(self, source: Domain, target: Domain) -> frozenset[int]:
        """The shadow of `source` inside `target`'s space."""
        if target.id not in source.rho:
            raise InstanceError(f"missing rho of {source.id} in {target.id}")
        return source.rho[target.id]

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient.to_dict(),
            "E": self.E,
            "domains": [
                {
                    "id": d.id,
                    "space": d.space.to_dict(),
                    "pi": d.pi.tolist(),
                    "rel": dict(sorted(d.rel.items())),
                    "rho": {k: sorted(v) for k, v in sorted(d.rho.items())},
                    "rho_map": {k: v.tolist() for k, v in sorted(d.rho_map.items())},
                }
                for d in self.domains
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "HHSInstance":
        domains = []
        for i, dd in enumerate(member(data, "domains", list)):
            dom = f"domains[{i}]"
            expect(dd, dict, dom)
            rho = expect(dd.get("rho", {}), dict, f"{dom}.rho")
            rho_map = expect(dd.get("rho_map", {}), dict, f"{dom}.rho_map")
            domains.append(
                Domain(
                    id=member(dd, "id", str, dom),
                    space=UnitGraph.from_dict(member(dd, "space", dict, dom), f"{dom}.space"),
                    pi=SetRows(*flat_int_rows(member(dd, "pi", list, dom), f"{dom}.pi")),
                    rel={str(k): str(v) for k, v in member(dd, "rel", dict, dom).items()},
                    rho={str(k): frozenset(ints(s, f"{dom}.rho.{k}")) for k, s in rho.items()},
                    rho_map={str(k): SetRows(*flat_int_rows(v, f"{dom}.rho_map.{k}")) for k, v in rho_map.items()},
                )
            )
        return HHSInstance(
            ambient=UnitGraph.from_dict(member(data, "ambient", dict), "ambient"),
            domains=tuple(domains),
            E=member(data, "E", int),
        )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Finding:
    check: str
    ok: bool
    measured: int
    witness: tuple | None


@dataclass(frozen=True)
class InstanceDiagnostics:
    findings: tuple[Finding, ...]
    E_min: int
    ok: bool


def validate_instance(h: HHSInstance) -> InstanceDiagnostics:
    """Full axiom scan; every finding carries its measured constant.

    Each failing check names its first offending pair as witness.  A pair
    flagged by `relation-schema` or `rho-presence` lacks the data the
    consistency scan reads, so `tuple-consistency` skips it: a defective
    instance yields diagnostics, never an exception.  `rho-presence` flags a
    rho that is missing, empty or names a vertex outside the target space,
    and a rho_map that is missing, does not have one row per vertex of the
    containing domain, or names a vertex outside the nested space.
    """
    findings: list[Finding] = []
    _require_domains(h)
    ids = h.domain_ids()
    if len(set(ids)) != len(ids):
        raise InstanceError("duplicate domain ids")
    flagged: set[frozenset[str]] = set()

    # relation schema
    witness = None
    for U, V in itertools.combinations(h.domains, 2):
        rUV = U.rel.get(V.id)
        rVU = V.rel.get(U.id)
        if rUV is None or rVU is None or _INVERSE.get(rUV) != rVU:
            flagged.add(frozenset((U.id, V.id)))
            if witness is None:
                witness = (U.id, V.id)
    findings.append(Finding("relation-schema", witness is None, 0, witness))

    # rho presence and diameters
    rho_diam = 0
    witness = None
    for U in h.domains:
        for V in h.domains:
            if U.id == V.id:
                continue
            r = U.rel.get(V.id)
            if r in (REL_TRANS, REL_NESTED):
                rho = U.rho.get(V.id)
                missing = not rho or not _in_range(rho, V.space.n)
                if not missing:
                    rho_diam = max(rho_diam, V.space.diameter_of(U.rho[V.id]))
            elif r == REL_CONTAINS:
                rows = U.rho_map.get(V.id)
                missing = (
                    rows is None
                    or len(rows) != U.space.n
                    or not _in_range(rows.image(), V.space.n)
                )
            else:
                missing = False
            if missing:
                flagged.add(frozenset((U.id, V.id)))
                if witness is None:
                    witness = (U.id, V.id)
    findings.append(Finding("rho-presence", witness is None, rho_diam, witness))
    findings.append(Finding("rho-diameter", rho_diam <= h.E, rho_diam, None))

    # projection diameters; a singleton domain's are 0 by its type, and no
    # projection is empty (`Domain` refuses one)
    pi_diam = 0
    witness = None
    for U in h.domains:
        if len(U.pi) != h.n:
            raise InstanceError(f"projection table of {U.id} has wrong length")
        if U.singleton:
            continue
        diams = _row_diams(U.dist, U.pi.padded()[0])
        if (d := int(diams.max(initial=0))) > pi_diam:
            pi_diam = d
            witness = (U.id, int(np.argmax(diams)))
    findings.append(Finding("projection-diameter", pi_diam <= h.E, pi_diam, witness))

    # coarse Lipschitz (slope 1, additive defect) and coarse onto
    lip = 0
    lip_w = None
    onto = 0
    onto_w = None
    DG = h.dist
    for U in h.domains:
        gap_mat = h.d_U_matrix(U) - DG
        defect = int(gap_mat.max())
        if defect > lip:
            lip = defect
            x, y = np.unravel_index(int(np.argmax(gap_mat)), gap_mat.shape)
            lip_w = (U.id, int(x), int(y))
        gap = int(U.dist[:, U.pi.image()].min(axis=1).max())
        if gap > onto:
            onto = gap
            onto_w = (U.id,)
    findings.append(Finding("coarse-lipschitz", lip <= h.E, lip, lip_w))
    findings.append(Finding("coarse-onto", onto <= h.E, onto, onto_w))

    # consistency of all vertex tuples, vectorized over the ambient vertex
    cons = 0
    cons_w = None
    for U, V, vals in _pair_consistency(h, flagged):
        if (worst := int(vals.max())) > cons:
            cons, cons_w = worst, (int(np.argmax(vals)), U.id, V.id)
    findings.append(Finding("tuple-consistency", cons <= h.E, cons, cons_w))

    e_min = max(f.measured for f in findings)
    return InstanceDiagnostics(tuple(findings), e_min, all(f.ok for f in findings))


def _pair_consistency(h: HHSInstance, skip):
    """(U, V, values) for each pair U, V of domains, in combination order,
    that is neither in `skip` (a set of frozenset id pairs) nor orthogonal.

    The tuple of ambient vertex x has entry pi_U(x) in each domain U.
    values[x] is its consistency value for the pair: for transverse U, V
    the lesser distance from an entry to the other's rho; for `small`
    nested in `big` the distance from big's entry to rho(small, big), or,
    when big has a rho_map to small, the lesser of that and the diameter
    of small's entry joined with the image of big's entry.  That join is
    one padded row per vertex: small's entry, then the rho_map rows of the
    members of big's entry, each padded with the first member of small's
    entry, which leaves the diameter as it is."""
    for U, V in itertools.combinations(h.domains, 2):
        if frozenset((U.id, V.id)) in skip or U.rel[V.id] == REL_ORTH:
            continue
        if U.rel[V.id] == REL_TRANS:
            vals = np.minimum(
                U.setdist[:, sorted(h.rho_of(V, U))].min(axis=1),
                V.setdist[:, sorted(h.rho_of(U, V))].min(axis=1),
            )
        else:
            small, big = (U, V) if U.rel[V.id] == REL_NESTED else (V, U)
            vals = big.setdist[:, sorted(h.rho_of(small, big))].min(axis=1)
            table = big.rho_map.get(small.id)
            if table is not None:
                P, Q = small.pi.padded()[0], big.pi.padded()[0]
                M, ok = table.padded()
                joined = np.concatenate([P, M[Q].reshape(len(Q), -1)], axis=1)
                real = np.concatenate([np.ones_like(P, dtype=bool), ok[Q].reshape(len(Q), -1)], axis=1)
                vals = np.minimum(vals, _row_diams(small.dist, np.where(real, joined, P[:, :1])))
        yield U, V, vals


# ---------------------------------------------------------------------------
# distance formula


@dataclass(frozen=True, eq=False)
class DistanceFormulaFit:
    """The fitted constants, and per sampled pair (aligned int64 arrays) its
    ambient distance and its projection sum."""

    s: int
    A: int
    B: Fraction
    max_upper_slack: Fraction
    max_lower_slack: Fraction
    pairs: np.ndarray  # (m, 2)
    distances: np.ndarray
    sums: np.ndarray

    @property
    def samples(self) -> tuple[tuple[tuple[int, int], int, int], ...]:
        """(pair, distance, sum) per sampled pair, as tuples of ints."""
        return tuple(zip(map(tuple, self.pairs.tolist()), self.distances.tolist(), self.sums.tolist()))


def projection_sum(h: HHSInstance, x, y, s):
    """Sum of d_U(x, y) over the domains where x, y project more than s apart.

    The threshold is strict: a domain with d_U(x, y) == s contributes
    nothing.  x, y are aligned arrays of ambient vertices; the result has
    one sum per pair.
    """
    total = np.zeros(len(x), dtype=np.int64)
    for d in h.domains:
        v = d.space.pair_distances(d.reps[x], d.reps[y]) if d.singleton else h.d_U_matrix(d)[x, y]
        total += np.where(v > s, v, 0)
    return total


def distance_formula_fit(h: HHSInstance, s, samples) -> DistanceFormulaFit:
    """Least integer A >= 1 whose minimal additive term B(A) stays below A*s.

    S is `projection_sum(h, x, y, s)`, which counts only the domains with
    d_U(x, y) > s (strict threshold).  B(A) = max(0, max(S/A - d),
    max(d - A*S)) over the sample; with that (A, B) both distance-formula
    inequalities hold on every sampled pair.  When no A <= 2^20 qualifies,
    A is 2^20 + 1.  The search runs in integers: A*B(A) = max(0, max(S - A*d),
    A*max(d - A*S)).  `samples` is an (m, 2) array of vertex pairs, or
    anything numpy reads as one.
    """
    if s < 100 * h.E:
        raise InstanceError(f"threshold s={s} is below 100*E={100 * h.E}")
    xy = np.asarray(samples, dtype=np.int64).reshape(-1, 2)
    d = h.ambient.pair_distances(xy[:, 0], xy[:, 1])
    S = projection_sum(h, xy[:, 0], xy[:, 1], s)

    def times_b(A: int) -> int:
        return max(int((S - A * d).max(initial=0)), A * int((d - A * S).max(initial=0)))

    # B(A) falls and A*s grows with A (d, S >= 0), so the least A with
    # B(A) <= A*s is found by bisection; past 2^20 the search gives up
    lo, hi = 1, (1 << 20) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if times_b(mid) <= mid * mid * s:
            hi = mid
        else:
            lo = mid + 1
    A = lo
    B = Fraction(times_b(A), A)
    up = low = Fraction(0)
    if len(xy):
        up = B + int((A * S - d).max())
        low = B + Fraction(int((A * d - S).max()), A)
    return DistanceFormulaFit(int(s), A, B, up, low, xy, d, S)


# ---------------------------------------------------------------------------
# product regions and hulls


def product_region(h: HHSInstance, U_id: str) -> frozenset[int]:
    """Vertices projecting E-close to the rho of U on every transverse or
    strictly larger domain.  May be empty; emptiness is an instance defect."""
    U = h.by_id[U_id]
    keep = np.ones(h.n, dtype=bool)
    for V in h.domains:
        if V.id == U.id:
            continue
        if U.rel[V.id] in (REL_TRANS, REL_NESTED):
            keep &= V.setdist[:, sorted(h.rho_of(U, V))].min(axis=1) <= h.E
    return frozenset(int(v) for v in np.flatnonzero(keep))


def space_hull(space_dist: np.ndarray, points) -> np.ndarray:
    """Union of all geodesics between pairs of `points`, as a boolean mask.

    `space_dist` must be the metric of a connected unit graph, as every
    domain space, median graph and tree here is.  Such a graph is a tree
    exactly when it has n - 1 edges, that is, when 2(n - 1) entries of its
    metric equal 1.  On a tree one anchor a among the points suffices: for
    members p and q, the median m of a, p, q lies on all three geodesics, so
    [p, q] = [p, m] + [m, q] lies in [a, p] + [a, q].  The geodesics from a
    to the other members thus cover every pair's, and their union is the
    subtree spanned by `points`.  Other graphs scan all pairs.
    """
    pts = np.unique(np.fromiter(points, dtype=np.int64))
    n = space_dist.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[pts] = True
    tree = np.count_nonzero(space_dist == 1) == 2 * (n - 1)
    for a in pts[:1] if tree else pts:
        rows = space_dist[a][None, :] + space_dist[pts, :] == space_dist[a, pts][:, None]
        mask |= rows.any(axis=0)
    return mask


# ---------------------------------------------------------------------------
# colourings


@dataclass(frozen=True)
class Colouring:
    classes: tuple[tuple[str, ...], ...]

    @property
    def chi(self) -> int:
        return len(self.classes)


def _require_domains(h: HHSInstance) -> None:
    if not h.domains:  # psi would map into an empty product
        raise InstanceError("the instance has no domains: there is nothing to colour")


def find_bbf_colouring(h: HHSInstance) -> Colouring:
    """Greedy proper colouring of the conflict graph (conflict = not transverse);
    an instance with no domains is refused, as `validate_instance` refuses it."""
    _require_domains(h)
    ids = sorted(h.domain_ids())
    classes: list[list[str]] = []
    for uid in ids:
        U = h.by_id[uid]
        placed = False
        for cls in classes:
            if all(U.rel[v] == REL_TRANS for v in cls):
                cls.append(uid)
                placed = True
                break
        if not placed:
            classes.append([uid])
    return Colouring(tuple(tuple(c) for c in classes))


# ---------------------------------------------------------------------------
# coarse median


def domain_coarse_median(h: HHSInstance, dom: Domain, x, y, z):
    """Coarse median of x, y, z in one domain: the tree median of the
    representatives min(pi[.]) from its `TreeIndex` when the space is a tree,
    else the least-index minimizer of the summed distances to the projections.

    x, y, z are aligned arrays of ambient vertices; the result has one
    median per triple.
    """
    if dom.space.is_tree():
        r = dom.reps
        med = dom.space.tree_index.median(r[x], r[y], r[z])
    else:
        S = dom.setdist
        med = _blockwise(
            len(x), lambda sl: np.argmin(S[x[sl]] + S[y[sl]] + S[z[sl]], axis=1)
        )
    return med


def hhs_median(h: HHSInstance, x, y, z):
    """Ambient vertex realizing the per-domain coarse medians best, and the
    achieved max defect: the least-index g minimizing max over domains U of
    d_U(pi_U(g), m_U), with m_U the coarse median in U.

    x, y, z are aligned arrays of ambient vertices; the results are arrays
    of vertices and defects, one per triple.
    """
    targets = [domain_coarse_median(h, dom, x, y, z) for dom in h.domains]

    def best(sl):
        score = None
        for dom, t in zip(h.domains, targets):
            col = dom.setdist[:, t[sl]]
            score = col if score is None else np.maximum(score, col, out=score)
        return np.argmin(score, axis=0)

    best_v = _blockwise(len(x), best)
    defect = np.max([dom.setdist[best_v, t] for dom, t in zip(h.domains, targets)], axis=0)
    return best_v, defect
