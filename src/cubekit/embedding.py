"""The per-colour projection systems, the map into the product of
quasitree spaces, and the empirical measurements attached to it:
quasiisometry constants and quasimedian defect.

psi is a (chi, n) int64 array, and the sampled pairs and triples stay
int64 arrays into the reports, which derive their per-sample rows only
when asked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hhs import Colouring, HHSInstance
from .jsonio import as_number
from .median import _blockwise, interval_medians
from .projection import (
    ProjectionError,
    ProjectionSystem,
    QuasitreeParameterError,
    QuasiTreeSpace,
    build_quasitree,
)


class EmbeddingError(ValueError):
    pass


def default_constants(h: HHSInstance) -> tuple[int, int]:
    """(D, K) from the instance constant: D = max(100*E, 1), K = 101*D + 1."""
    D = max(100 * h.E, 1)
    return D, 101 * D + 1


@dataclass(frozen=True)
class ColouredSystem:
    instance: HHSInstance
    colouring: Colouring
    class_ids: tuple[tuple[str, ...], ...]
    quasitrees: tuple[QuasiTreeSpace, ...]
    orbit: tuple[tuple[int, ...], ...]  # per colour, ambient vertex -> class position
    orbit_slack: int

    @property
    def chi(self) -> int:
        return len(self.class_ids)


def build_coloured_system(
    h: HHSInstance, colouring: Colouring, K, L, orbit=None
) -> ColouredSystem:
    """Per-colour systems from the rho tables, each at its measured
    constant, their quasitrees, and the basepoint assignment; refuses K
    below any colour's measured constant."""
    class_ids = tuple(tuple(sorted(cls)) for cls in colouring.classes)
    quasitrees = []
    for ci, cls in enumerate(class_ids):
        doms = [h.by_id[i] for i in cls]
        for a, b in itertools.combinations(doms, 2):
            if a.rel[b.id] != "trans":
                raise EmbeddingError(
                    f"colour class {ci} contains non-transverse pair {a.id},{b.id}"
                )
        pieces = tuple(d.space for d in doms)
        proj = {}
        for ia, a in enumerate(doms):
            for ib, b in enumerate(doms):
                if ia == ib:
                    continue
                proj[(ia, ib)] = h.rho_of(b, a)
        try:
            q = build_quasitree(ProjectionSystem(pieces, proj), K, L)
        except QuasitreeParameterError as e:
            raise QuasitreeParameterError(f"colour {ci}: {e}") from e
        quasitrees.append(q)

    orbit_tables = []
    slack = 0
    for ci, cls in enumerate(class_ids):
        doms = [h.by_id[i] for i in cls]
        # worst[pos, g]: max over U != V of d_U(pi_U(g), rho(V, U)), V = doms[pos]
        worst = np.zeros((len(doms), h.n), dtype=np.int64)
        for pos, V in enumerate(doms):
            for U in doms:
                if U.id != V.id:
                    col = U.setdist[:, sorted(h.rho_of(V, U))].min(axis=1)
                    np.maximum(worst[pos], col, out=worst[pos])
        if orbit is not None:
            table = tuple(cls.index(orbit[ci][g]) for g in range(h.n))
        else:
            table = tuple(np.argmin(worst, axis=0).tolist())
        slack = max(slack, int(worst[table, np.arange(h.n)].max()))
        orbit_tables.append(table)
    return ColouredSystem(
        instance=h,
        colouring=colouring,
        class_ids=class_ids,
        quasitrees=tuple(quasitrees),
        orbit=tuple(orbit_tables),
        orbit_slack=slack,
    )


@dataclass(frozen=True, eq=False)
class PsiImage:
    # maps[i, g]: the global quasitree vertex of ambient vertex g in colour
    # i, a (chi, n) int64 array (or any sequence numpy reads as one)
    maps: np.ndarray


def psi_map(cs: ColouredSystem) -> PsiImage:
    """psi_i(g): least-index vertex of g's projection to its orbit domain,
    seen inside the colour's quasitree; one gather per colour."""
    h = cs.instance
    maps = np.empty((cs.chi, h.n), dtype=np.int64)
    for ci, cls in enumerate(cs.class_ids):
        pos = np.asarray(cs.orbit[ci], dtype=np.int64)
        reps = np.stack([h.by_id[i].reps for i in cls])
        maps[ci] = np.asarray(cs.quasitrees[ci].offsets)[pos] + reps[pos, np.arange(h.n)]
    return PsiImage(maps)


def _quasitree_dists(cs: ColouredSystem, us, vs) -> np.ndarray:
    """chi x m int64 matrix of the distances, in units of 1/scale, between
    us[i][k] and vs[i][k] in the quasitree of colour i (by `TreeIndex` query
    on a tree).  Raises ProjectionError, as QuasiTreeSpace.dist does, for the
    first pair (least k, then least colour) that lies in two components."""
    dists = np.array([
        q.tree_index.dist(u, v) if q.tree_index is not None else q.distance_matrix[u, v]
        for q, u, v in zip(cs.quasitrees, us, vs)
    ])
    bad = np.argwhere(dists.T < 0)
    if bad.size:
        k, ci = bad[0]
        raise ProjectionError(f"vertices {us[ci][k]},{vs[ci][k]} are in different components")
    return dists


def _numbers(values: np.ndarray, scale: int) -> list:
    """values / scale as exact numbers, int when integral, as `as_number` gives."""
    vals = values.tolist()
    return vals if scale == 1 else [as_number(Fraction(v, scale)) for v in vals]


@dataclass(frozen=True, eq=False)
class EmbeddingReport:
    """The constants, and per sampled pair (aligned int64 arrays) its
    ambient distance and its product distance in units of 1/scale."""

    kappa_lower: Fraction
    kappa_upper: Fraction
    additive: Fraction
    kappa: Fraction
    pairs: np.ndarray  # (m, 2)
    distances: np.ndarray
    product_distances: np.ndarray
    scale: int

    @property
    def samples(self) -> tuple[tuple[tuple[int, int], int, int | Fraction], ...]:
        """(pair, d_G, d_product) per pair, d_product an int when integral,
        else a Fraction."""
        return tuple(zip(
            map(tuple, self.pairs.tolist()),
            self.distances.tolist(),
            _numbers(self.product_distances, self.scale),
        ))


def measure_embedding(cs: ColouredSystem, psi: PsiImage, samples) -> EmbeddingReport:
    """Least multiplicative constants (and additive floor for degenerate
    pairs) sandwiching the product distance against the ambient one, over
    `samples`, an (m, 2) array of vertex pairs or anything numpy reads as
    one."""
    xy = np.asarray(samples, dtype=np.int64).reshape(-1, 2)
    if len(xy) < 2:
        raise EmbeddingError("need at least two sample pairs")
    xs, ys = xy.T
    maps = np.asarray(psi.maps, dtype=np.int64)
    scale = cs.quasitrees[0].scale  # every colour shares one L
    DP = _quasitree_dists(cs, maps[:, xs], maps[:, ys]).sum(axis=0)  # DG is scaled with DP
    DG = cs.instance.ambient.pair_distances(xs, ys)
    DGs = DG * scale
    both = (DG > 0) & (DP > 0)
    k_up = _max_ratio(DP[both], DGs[both], Fraction(1))
    k_low = _max_ratio(DGs[both], DP[both], Fraction(1))
    add = max(
        Fraction(0),
        Fraction(int(DP[DG == 0].max(initial=0)), scale),
        Fraction(int(DG[(DG > 0) & (DP <= 0)].max(initial=0))),
    )
    return EmbeddingReport(
        kappa_lower=k_low,
        kappa_upper=k_up,
        additive=add,
        kappa=max(k_low, k_up, add),
        pairs=xy,
        distances=DG,
        product_distances=DP,
        scale=scale,
    )


def _max_ratio(num: np.ndarray, den: np.ndarray, floor: Fraction) -> Fraction:
    """max(floor, max of num / den), exactly, over aligned int64 arrays with
    num >= 0 and den > 0.  A float ratio of int64 values is within about
    2^-51 of the exact ratio, so every exact maximum is among the ratios
    within 2^-40 of the float maximum; their distinct (num, den) pairs are
    compared as Fractions."""
    if not num.size:
        return floor
    ratio = num / den
    near = ratio >= ratio.max() * (1 - 2.0**-40)
    pairs = set(zip(num[near].tolist(), den[near].tolist()))
    return max(floor, *(Fraction(p, q) for p, q in pairs))


# ---------------------------------------------------------------------------
# quasimedian defect


def _codomain_medians(q: QuasiTreeSpace, a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Per triple of the aligned arrays a, b, c: the exact graph median of the
    quasitree when the triple has one, else the least-index sum-of-distances
    minimizer, flagged True.  On a tree every triple has one, which
    `TreeIndex.median` gives; other quasitrees scan intervals by
    `interval_medians`."""
    if q.tree_index is not None:
        return q.tree_index.median(a, b, c), np.zeros(len(a), dtype=bool)
    mat = q.distance_matrix
    mu, hits = interval_medians(mat, a, b, c)
    flagged = hits != 1
    rows = np.flatnonzero(flagged)

    def least_sum(sl):
        r = rows[sl]
        return np.argmin(mat[a[r]] + mat[b[r]] + mat[c[r]], axis=1)

    mu[rows] = _blockwise(len(rows), least_sum)
    return mu, flagged


@dataclass(frozen=True, eq=False)
class QuasimedianReport:
    """The defect summary, and per sampled triple (aligned int64 arrays) its
    defect in units of 1/scale."""

    max_defect: Fraction
    histogram: tuple[tuple[str, int], ...]
    fallback_colours: tuple[int, ...]
    xyz: np.ndarray  # (m, 3)
    defects: np.ndarray
    scale: int

    @property
    def triples(self) -> tuple[tuple[tuple[int, int, int], int | Fraction], ...]:
        """(triple, defect) per triple, the defect an int when integral,
        else a Fraction."""
        return tuple(zip(map(tuple, self.xyz.tolist()), _numbers(self.defects, self.scale)))


def quasimedian_defect(cs: ColouredSystem, psi: PsiImage, triples) -> QuasimedianReport:
    """Distance between the image of the instance median and the
    coordinate-wise codomain median, per sampled triple; `triples` is an
    (m, 3) array of vertex triples, or anything numpy reads as one.

    One `hhs_median` call over all triples gives the instance medians; the
    codomain medians are computed per colour for all triples at once.  The
    defects stay exact integers, in units of 1/scale, in the report.
    """
    from .hhs import hhs_median

    xyz = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    x, y, z = xyz.T
    m, _ = hhs_median(cs.instance, x, y, z)
    maps = np.asarray(psi.maps, dtype=np.int64)
    mus = []
    fallback = []
    for ci, (q, mp) in enumerate(zip(cs.quasitrees, maps)):
        mu, flagged = _codomain_medians(q, mp[x], mp[y], mp[z])
        mus.append(mu)
        if flagged.any():
            fallback.append(ci)
    scale = cs.quasitrees[0].scale  # every colour shares one L
    defects = _quasitree_dists(cs, maps[:, m], mus).sum(axis=0)
    values, counts = np.unique(defects, return_counts=True)
    hist = tuple((str(Fraction(v, scale)), c) for v, c in zip(values.tolist(), counts.tolist()))
    top = Fraction(int(defects.max(initial=0)), scale)
    return QuasimedianReport(top, hist, tuple(fallback), xyz, defects, scale)
