"""The per-colour projection systems, the map into the product of
quasitree spaces, and the empirical measurements attached to it:
quasiisometry constants, quasimedian defect, and shadow quasigeodesic
quality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hhs import (
    Colouring,
    HHSInstance,
    InstanceError,
    _setdist,
    is_hierarchy_path,
    relevant_domains,
    unparametrised_qg_on_metric,
)
from .projection import (
    AxiomReport,
    ProjectionSystem,
    QuasitreeParameterError,
    QuasiTreeSpace,
    build_quasitree,
    verify_projection_axioms,
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
    systems: tuple[ProjectionSystem, ...]
    axiom_reports: tuple[AxiomReport, ...]
    quasitrees: tuple[QuasiTreeSpace, ...]
    orbit: tuple[tuple[int, ...], ...]  # per colour, ambient vertex -> class position
    orbit_slack: int

    @property
    def chi(self) -> int:
        return len(self.class_ids)


def build_coloured_system(
    h: HHSInstance, colouring: Colouring, K, L, orbit=None
) -> ColouredSystem:
    """Per-colour systems from the rho tables, their quasitrees, and the
    basepoint assignment; refuses K below any colour's measured constant."""
    class_ids = tuple(tuple(sorted(cls)) for cls in colouring.classes)
    systems = []
    reports = []
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
        sys0 = ProjectionSystem(pieces, proj, 0)
        rep = verify_projection_axioms(sys0)
        system = ProjectionSystem(pieces, proj, rep.theta_min)
        try:
            q = build_quasitree(system, K, L)
        except QuasitreeParameterError as e:
            raise QuasitreeParameterError(f"colour {ci}: {e}") from e
        systems.append(system)
        reports.append(rep)
        quasitrees.append(q)

    orbit_tables = []
    slack = 0
    for ci, cls in enumerate(class_ids):
        doms = [h.by_id[i] for i in cls]
        if orbit is not None:
            table = tuple(cls.index(orbit[ci][g]) for g in range(h.n))
        elif len(doms) == 1:
            table = tuple(0 for _ in range(h.n))
        else:
            table = []
            for g in range(h.n):
                best = None
                best_pos = 0
                for pos, V in enumerate(doms):
                    worst = max(
                        _setdist(U.dist, U.pi[g], h.rho_of(V, U))
                        for U in doms
                        if U.id != V.id
                    )
                    if best is None or worst < best:
                        best = worst
                        best_pos = pos
                table.append(best_pos)
            table = tuple(table)
        for g in range(h.n):
            V = h.by_id[cls[table[g]]]
            for U in doms:
                if U.id == V.id:
                    continue
                slack = max(slack, _setdist(U.dist, U.pi[g], h.rho_of(V, U)))
        orbit_tables.append(table)
    return ColouredSystem(
        instance=h,
        colouring=colouring,
        class_ids=class_ids,
        systems=tuple(systems),
        axiom_reports=tuple(reports),
        quasitrees=tuple(quasitrees),
        orbit=tuple(orbit_tables),
        orbit_slack=slack,
    )


@dataclass(frozen=True)
class PsiImage:
    maps: tuple[tuple[int, ...], ...]  # per colour, ambient vertex -> global quasitree vertex

    def point(self, g: int) -> tuple[int, ...]:
        return tuple(m[g] for m in self.maps)


def psi_map(cs: ColouredSystem) -> PsiImage:
    """psi_i(g): least-index vertex of g's projection to its orbit domain,
    seen inside the colour's quasitree."""
    maps = []
    for ci, cls in enumerate(cs.class_ids):
        q = cs.quasitrees[ci]
        table = []
        for g in range(cs.instance.n):
            pos = cs.orbit[ci][g]
            dom = cs.instance.by_id[cls[pos]]
            table.append(q.global_id(pos, min(dom.pi[g])))
        maps.append(tuple(table))
    return PsiImage(tuple(maps))


def product_distance(cs: ColouredSystem, psi: PsiImage, x: int, y: int):
    return sum(
        cs.quasitrees[ci].dist(psi.maps[ci][x], psi.maps[ci][y])
        for ci in range(cs.chi)
    )


@dataclass(frozen=True)
class EmbeddingReport:
    kappa_lower: Fraction
    kappa_upper: Fraction
    additive: Fraction
    kappa: Fraction
    samples: tuple[tuple[tuple[int, int], int, Fraction], ...]  # pair, d_G, d_product


def measure_embedding(cs: ColouredSystem, psi: PsiImage, samples) -> EmbeddingReport:
    """Least multiplicative constants (and additive floor for degenerate
    pairs) sandwiching the product distance against the ambient one."""
    pairs = [(int(x), int(y)) for x, y in samples]
    if len(pairs) < 2:
        raise EmbeddingError("need at least two sample pairs")
    DG = cs.instance.dist
    rows = []
    k_up = Fraction(1)
    k_low = Fraction(1)
    add = Fraction(0)
    for x, y in pairs:
        dg = int(DG[x, y])
        dp = Fraction(product_distance(cs, psi, x, y))
        rows.append(((x, y), dg, dp))
        if dg > 0 and dp > 0:
            k_up = max(k_up, dp / dg)
            k_low = max(k_low, Fraction(dg) / dp)
        elif dg == 0:
            add = max(add, dp)
        else:
            add = max(add, Fraction(dg))
    return EmbeddingReport(
        kappa_lower=k_low,
        kappa_upper=k_up,
        additive=add,
        kappa=max(k_low, k_up, add),
        samples=tuple(rows),
    )


# ---------------------------------------------------------------------------
# quasimedian defect


def _codomain_median(q: QuasiTreeSpace, a: int, b: int, c: int) -> tuple[int, bool]:
    """Exact graph median of the quasitree when the triple has one; else the
    least-index sum-of-distances minimizer (flagged True)."""
    mat = q.distance_matrix
    if isinstance(mat, np.ndarray):
        mask = (
            (mat[a] + mat[b] == mat[a, b])
            & (mat[b] + mat[c] == mat[b, c])
            & (mat[c] + mat[a] == mat[c, a])
        )
        hits = np.flatnonzero(mask)
        if hits.size == 1:
            return int(hits[0]), False
        score = mat[a] + mat[b] + mat[c]
        return int(np.argmin(score)), True
    best = None
    best_v = -1
    exact = []
    for v in range(q.n):
        da, db, dc = q.dist(a, v), q.dist(b, v), q.dist(c, v)
        if (
            da + db == q.dist(a, b)
            and db + dc == q.dist(b, c)
            and dc + da == q.dist(c, a)
        ):
            exact.append(v)
        s = da + db + dc
        if best is None or s < best:
            best = s
            best_v = v
    if len(exact) == 1:
        return exact[0], False
    return best_v, True


@dataclass(frozen=True)
class QuasimedianReport:
    max_defect: Fraction
    histogram: tuple[tuple[str, int], ...]
    fallback_colours: tuple[int, ...]
    triples: tuple[tuple[tuple[int, int, int], Fraction], ...]


def quasimedian_defect(cs: ColouredSystem, psi: PsiImage, triples) -> QuasimedianReport:
    """Distance between the image of the instance median and the
    coordinate-wise codomain median, per sampled triple."""
    from .hhs import hhs_median

    h = cs.instance
    counts: dict[Fraction, int] = {}
    rows = []
    fallback: set[int] = set()
    worst = Fraction(0)
    for x, y, z in triples:
        x, y, z = int(x), int(y), int(z)
        m, _ = hhs_median(h, x, y, z)
        defect = Fraction(0)
        for ci in range(cs.chi):
            q = cs.quasitrees[ci]
            a, b, c = psi.maps[ci][x], psi.maps[ci][y], psi.maps[ci][z]
            mu, flagged = _codomain_median(q, a, b, c)
            if flagged:
                fallback.add(ci)
            defect += Fraction(q.dist(psi.maps[ci][m], mu))
        counts[defect] = counts.get(defect, 0) + 1
        rows.append(((x, y, z), defect))
        worst = max(worst, defect)
    hist = tuple((str(k), counts[k]) for k in sorted(counts))
    return QuasimedianReport(worst, hist, tuple(sorted(fallback)), tuple(rows))


# ---------------------------------------------------------------------------
# shadows of hierarchy paths


@dataclass(frozen=True)
class ColourShadowReport:
    colour: int
    mu: int
    relevant: tuple[str, ...]
    containment_slack: Fraction | None
    containment_violations: int


@dataclass(frozen=True)
class ShadowPathReport:
    D: int
    per_colour: tuple[ColourShadowReport, ...]


def shadow_path_report(cs: ColouredSystem, psi: PsiImage, path, D: int) -> ShadowPathReport:
    """Least unparametrised-quasigeodesic constant of each colour shadow,
    plus the 6K neighbourhood containment over relevant domains."""
    h = cs.instance
    path = [int(v) for v in path]
    ok, bad = is_hierarchy_path(h, path, D)
    if not ok:
        raise InstanceError(f"not a {D}-hierarchy path; domain {bad} fails")
    x0, xT = path[0], path[-1]
    rel_ids = relevant_domains(h, x0, xT, 100 * D)
    out = []
    for ci, cls in enumerate(cs.class_ids):
        q = cs.quasitrees[ci]
        shadow = [psi.maps[ci][v] for v in path]
        dedup = sorted(set(shadow))
        diam = 0
        for a in dedup:
            for b in dedup:
                if a < b:
                    d = q.dist(a, b)
                    diam = max(diam, int(d) if isinstance(d, int) else int(d) + 1)
        lo, hi = 1, max(1, diam)
        while lo < hi:
            mid = (lo + hi) // 2
            if unparametrised_qg_on_metric(q.dist, shadow, mid):
                hi = mid
            else:
                lo = mid + 1
        mu = lo
        relevant_here = [u for u in rel_ids if u in cls]
        slack = None
        violations = 0
        for uid in relevant_here:
            dom = h.by_id[uid]
            pos = cls.index(uid)
            piece_verts = list(q.piece_vertices(pos))
            a_t = next(
                (t for t in range(len(path)) if h.d_U(dom, path[t], x0) >= 2 * D), None
            )
            b_t = next(
                (t for t in range(len(path) - 1, -1, -1) if h.d_U(dom, path[t], xT) >= 2 * D),
                None,
            )
            if a_t is None or b_t is None or a_t > b_t:
                continue
            for t in range(a_t, b_t + 1):
                d = min(q.dist(shadow[t], v) for v in piece_verts)
                gap = Fraction(d) - 6 * q.K
                if slack is None or gap > slack:
                    slack = gap
                if gap > 0:
                    violations += 1
        out.append(
            ColourShadowReport(
                colour=ci,
                mu=mu,
                relevant=tuple(relevant_here),
                containment_slack=slack,
                containment_violations=violations,
            )
        )
    return ShadowPathReport(D=D, per_colour=tuple(out))

