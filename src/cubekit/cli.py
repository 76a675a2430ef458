"""Command-line entry point.

Subcommands: gen-fixture, validate, median-check, dual, build-quasitree,
df-check, psi, promote, helly, pack.  Every run is driven by an explicit
seed; identical invocations produce byte-identical report files.

Exit codes: 0 success, 1 malformed input, 2 validation defects,
64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fixtures
from .applications import (
    PipelineError,
    bounded_packing_count,
    coarse_helly_experiment,
    promote_to_cube_complex,
    tree_approximate,
)
from .embedding import (
    EmbeddingError,
    build_coloured_system,
    default_constants,
    measure_embedding,
    psi_map,
    quasimedian_defect,
)
from .graphs import GraphError, UnitGraph
from .hhs import (
    HHSInstance,
    InstanceError,
    distance_formula_fit,
    find_bbf_colouring,
    product_region,
    validate_instance,
)
from .jsonio import as_number, atomic_write, canonical_dumps, encode_rows, load_json
from .median import MedianError, is_median_graph
from .projection import (
    ProjectionError,
    ProjectionSystem,
    build_quasitree,
    piece_embedding_check,
)
from .walls import Wallspace, WallspaceError, dual_cube_complex

USAGE = """usage: cubekit SUBCOMMAND [options]

subcommands:
  gen-fixture     emit a fixture JSON (product-lines, tree-axes, spider-axes,
                  axes-system, q3-walls)
  validate        run the instance axiom scan on an HHSInstance JSON
  median-check    test a graph JSON for medianness
  dual            dual complex of a wallspace JSON
  build-quasitree assemble the glued space from a projection-system JSON
  df-check        fit distance-formula constants on sampled pairs
  psi             build the coloured systems and measure the embedding
  promote         run the full promotion pipeline to a cube skeleton
  helly           coarse Helly experiment on product regions
  pack            packing count for a family of distance shells
"""

_INPUT_ERRORS = (
    GraphError,
    MedianError,
    WallspaceError,
    ProjectionError,
    InstanceError,
    EmbeddingError,
    PipelineError,
    KeyError,
    ValueError,
    OSError,
)


def _emit(report: dict, out: str | None) -> None:
    text = canonical_dumps(report)
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _parser(cmd: str) -> argparse.ArgumentParser:
    """The flag parser of a subcommand that reads --in and writes --out."""
    p = argparse.ArgumentParser(prog=f"cubekit {cmd}")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", default=None)
    return p


def _int_at_least(text: str, least: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, not {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type of a count flag: a non-negative integer."""
    return _int_at_least(text, 0, "non-negative")


def _positive(text: str) -> int:
    """argparse type of a positive integer flag."""
    return _int_at_least(text, 1, "positive")


def _samples(rng: np.random.Generator, n: int, count: int, width: int) -> np.ndarray:
    """A (count, width) int64 array of vertices drawn uniformly from
    range(n), one sample per row."""
    return rng.integers(0, n, size=(count, width))


def cmd_gen_fixture(args) -> int:
    p = argparse.ArgumentParser(prog="cubekit gen-fixture")
    p.add_argument("kind", choices=["product-lines", "tree-axes", "spider-axes", "axes-system", "q3-walls"])
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--lines", type=int, default=4)
    p.add_argument("--legs", type=int, default=6)
    p.add_argument("--leg-length", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tree-domain", action="store_true")
    p.add_argument("--out", default=None)
    a = p.parse_args(args)
    if a.kind == "product-lines":
        data = fixtures.product_of_lines(a.n).to_dict()
    elif a.kind == "tree-axes":
        data = fixtures.tree_with_axes(
            a.n, a.lines, a.seed, include_tree_domain=True
        ).to_dict()
    elif a.kind == "spider-axes":
        data = fixtures.spider_with_axes(
            a.legs, a.leg_length, include_tree_domain=a.tree_domain
        ).to_dict()
    elif a.kind == "axes-system":
        data = fixtures.random_axes_system(a.n, a.lines, a.seed).to_dict()
    else:
        # the walls of the 3-cube: {v : bit b of v is 0} against the rest
        sides = [frozenset(v for v in range(8) if not v >> b & 1) for b in range(3)]
        data = Wallspace(8, tuple((s, frozenset(range(8)) - s) for s in sides)).to_dict()
    _emit(data, a.out)
    return 0


def cmd_validate(args) -> int:
    a = _parser("validate").parse_args(args)
    h = HHSInstance.from_dict(load_json(a.inp))
    diag = validate_instance(h)
    report = {
        "command": "validate",
        "ok": diag.ok,
        "E_declared": h.E,
        "E_min": diag.E_min,
        "findings": [
            {"check": f.check, "ok": f.ok, "measured": f.measured,
             "witness": list(f.witness) if f.witness else None}
            for f in diag.findings
        ],
    }
    _emit(report, a.out)
    return 0 if diag.ok else 2


def cmd_median_check(args) -> int:
    a = _parser("median-check").parse_args(args)
    g = UnitGraph.from_dict(load_json(a.inp))
    ok, witness = is_median_graph(g)
    _emit(
        {"command": "median-check", "median": ok,
         "witness": list(witness) if witness else None},
        a.out,
    )
    return 0


def cmd_dual(args) -> int:
    a = _parser("dual").parse_args(args)
    w = Wallspace.from_dict(load_json(a.inp))
    dual = dual_cube_complex(w)
    report = {
        "command": "dual",
        "skeleton": dual.skeleton.to_dict(),
        "orientations": [list(o.sides) for o in dual.orientations],
        "exhaustive": True,  # the search lists every coherent orientation
    }
    _emit(report, a.out)
    return 0


def cmd_build_quasitree(args) -> int:
    p = _parser("build-quasitree")
    p.add_argument("--K", type=as_number, required=True)
    p.add_argument("--L", type=as_number, default=1)
    a = p.parse_args(args)
    s = ProjectionSystem.from_dict(load_json(a.inp))
    q = build_quasitree(s, a.K, a.L)
    embeddings = [piece_embedding_check(q, U) for U in range(s.count)]
    report = {
        "command": "build-quasitree",
        "quasitree": q.to_dict(),
        "pieces_isometric": [e.isometric for e in embeddings],
        "pieces_totally_geodesic": [e.totally_geodesic for e in embeddings],
    }
    _emit(report, a.out)
    return 0


def cmd_df_check(args) -> int:
    p = _parser("df-check")
    p.add_argument("--s", type=as_number, required=True)
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    a = p.parse_args(args)
    h = HHSInstance.from_dict(load_json(a.inp))
    rng = fixtures.rng_from_seed(a.seed, stream=2)
    pairs = _samples(rng, h.n, a.samples, 2)
    fit = distance_formula_fit(h, a.s, pairs)
    report = {
        "command": "df-check",
        "config": {"s": a.s, "samples": a.samples, "seed": a.seed},
        "A": fit.A,
        "B": fit.B,
        "max_upper_slack": fit.max_upper_slack,
        "max_lower_slack": fit.max_lower_slack,
        "sample_rows": encode_rows(
            '{"distance":%d,"pair":[%d,%d],"sum":%d}',
            np.column_stack([fit.distances, fit.pairs, fit.sums]),
        ),
    }
    _emit(report, a.out)
    return 0


def _coloured(a):
    """The coloured stage of `psi`, `promote` and `helly`: the instance of
    --in, K defaulted from its constant (written back to `a.K` for the
    report), the colouring, the coloured system and psi."""
    h = HHSInstance.from_dict(load_json(a.inp))
    if a.K is None:
        _, a.K = default_constants(h)
    col = find_bbf_colouring(h)
    cs = build_coloured_system(h, col, a.K, a.L)
    return h, col, cs, psi_map(cs)


def cmd_psi(args) -> int:
    p = _parser("psi")
    p.add_argument("--K", type=as_number, default=None)
    p.add_argument("--L", type=as_number, default=1)
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    a = p.parse_args(args)
    h, col, cs, psi = _coloured(a)
    rng = fixtures.rng_from_seed(a.seed, stream=3)
    pairs = _samples(rng, h.n, a.samples, 2)
    triples = _samples(rng, h.n, max(2, a.samples // 2), 3)
    emb = measure_embedding(cs, psi, pairs)
    qm = quasimedian_defect(cs, psi, triples)
    report = {
        "command": "psi",
        "config": {"K": a.K, "L": a.L, "samples": a.samples, "seed": a.seed},
        "chi": col.chi,
        "classes": [list(c) for c in col.classes],
        "orbit_slack": cs.orbit_slack,
        "kappa": emb.kappa,
        "kappa_lower": emb.kappa_lower,
        "kappa_upper": emb.kappa_upper,
        "additive": emb.additive,
        "pairs": encode_rows("[%d,%d]", emb.pairs),
        "quasimedian_max_defect": qm.max_defect,
        "quasimedian_histogram": [[k, v] for k, v in qm.histogram],
        "fallback_colours": list(qm.fallback_colours),
    }
    _emit(report, a.out)
    return 0


def cmd_promote(args) -> int:
    p = _parser("promote")
    p.add_argument("--K", type=as_number, default=None)
    p.add_argument("--L", type=as_number, default=1)
    p.add_argument("--C", type=_positive, default=None)
    a = p.parse_args(args)
    h, col, cs, psi = _coloured(a)
    trees = [tree_approximate(q) for q in cs.quasitrees]
    pts = np.asarray(psi.maps, dtype=np.int64).T  # row g: the image of ambient vertex g
    if a.C is None:
        # the longest image of an ambient edge in the product, at least 1
        u, v = h.ambient.edge_array.T
        span = sum(t.tree.distance_matrix[m[u], m[v]] for t, m in zip(trees, pts.T))
        a.C = int(np.max(span, initial=1))
    res = promote_to_cube_complex(pts, [t.tree for t in trees], a.C)
    report = {
        "command": "promote",
        "config": {"K": a.K, "L": a.L, "C": a.C},
        "chi": col.chi,
        "tree_distortion": [
            {"root": t.root, "additive": t.additive, "multiplicative": t.multiplicative}
            for t in trees
        ],
        "dimension": res.dimension,
        "hausdorff": res.hausdorff,
        "one_connected": res.one_connected,
        "median_closed": res.median_closed,
        "isometric": res.isometric,
        "input_size": res.input_size,
        "closure_size": res.closure_size,
        "skeleton": res.skeleton.to_dict(),
    }
    _emit(report, a.out)
    return 0


def cmd_helly(args) -> int:
    p = _parser("helly")
    p.add_argument("--R", type=_count, required=True)
    p.add_argument("--K", type=as_number, default=None)
    p.add_argument("--L", type=as_number, default=1)
    a = p.parse_args(args)
    h, col, cs, psi = _coloured(a)
    sets = []
    for uid in sorted(h.domain_ids()):
        pr = product_region(h, uid)
        if pr:
            sets.append(sorted(pr))
        if len(sets) == 3:
            break
    if len(sets) < 2:
        sys.stderr.write("not enough nonempty product regions for the experiment\n")
        return 2
    trees = [tree_approximate(q) for q in cs.quasitrees]
    res = coarse_helly_experiment(cs, psi, sets, a.R, trees)
    report = {
        "command": "helly",
        "config": {"R": a.R, "K": a.K, "L": a.L},
        "set_sizes": [len(s) for s in sets],
        "center": res.center,
        "r": res.r,
        "inflation": res.inflation,
        "hull_bound_ok": res.hull_bound_ok,
    }
    _emit(report, a.out)
    return 0


def cmd_pack(args) -> int:
    p = _parser("pack")
    p.add_argument("--R", type=_count, required=True)
    p.add_argument("--count", type=_count, default=6)
    p.add_argument("--seed", type=int, default=0)
    a = p.parse_args(args)
    h = HHSInstance.from_dict(load_json(a.inp))
    rng = fixtures.rng_from_seed(a.seed, stream=4)
    center = int(rng.integers(0, h.n))
    row = h.ambient.pair_distances(center, np.arange(h.n))
    family = []
    for radius in range(a.count):
        shell = np.flatnonzero(row == radius).tolist()
        if shell:
            family.append(shell)
    N, witness = bounded_packing_count(h, family, a.R)
    report = {
        "command": "pack",
        "config": {"R": a.R, "count": a.count, "seed": a.seed},
        "center": center,
        "family_sizes": [len(f) for f in family],
        "N": N,
        "witness": list(witness),
    }
    _emit(report, a.out)
    return 0


_COMMANDS = {
    "gen-fixture": cmd_gen_fixture,
    "validate": cmd_validate,
    "median-check": cmd_median_check,
    "dual": cmd_dual,
    "build-quasitree": cmd_build_quasitree,
    "df-check": cmd_df_check,
    "psi": cmd_psi,
    "promote": cmd_promote,
    "helly": cmd_helly,
    "pack": cmd_pack,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(USAGE)
        return 64 if not argv else 0
    cmd = argv[0]
    if cmd not in _COMMANDS:
        sys.stderr.write(f"unknown subcommand: {cmd}\n\n{USAGE}")
        return 64
    try:
        return _COMMANDS[cmd](argv[1:])
    except SystemExit as e:  # argparse flag errors
        return 0 if e.code in (0, None) else 1
    except _INPUT_ERRORS as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
