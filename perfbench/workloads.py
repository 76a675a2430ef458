"""The benchmark's workloads: seeded fixtures and the CLI calls made on them.

A fixture is generated through `cubekit.fixtures`, written as JSON and parsed
back through `HHSInstance.from_dict`; the program only ever sees that JSON.
Every call goes through `cubekit.cli.main` in this process, and each call
parses its input afresh, so every call pays the cold cached distance
matrices a user pays on each invocation.

How the seed makes a fixture: fixture i of a workload always has the same
shape (tree seed i, or the fixed grid), and the run's seed draws a
permutation of its ambient vertex ids.  Tree shapes are fixed because the
time of one call moves far more between shapes than any regression bound:
on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) the quartile spread of one
call across tree seeds is about 31% of the median for `helly` at n=200 and
for the `measure-axes` calls at n=300, and 26% (n=120) to 94% (n=40) for
`promote`.  Relabelling the ambient graph leaves the quasitrees, the psi
image and hence the promoted complex unchanged, so a `promote` report is the
same at every seed (`same_report_every_seed`).  The sampled subcommands
(`helly`, `df-check`, `psi`, `pack`) draw their sample vertices by id, so
their reports change with the labelling while their cost barely does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cubekit import cli, fixtures
from cubekit.graphs import UnitGraph
from cubekit.hhs import HHSInstance
from cubekit.jsonio import canonical_dumps

LABEL_STREAM = 11


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "tree-axes" or "product-lines"
    n: int
    same_report_every_seed: bool  # True when relabelling keeps the reports
    pool: int  # distinct fixtures per run; fixture i has tree seed i
    commands: tuple[tuple[str, ...], ...]  # "{E100}" stands for 100 * E
    toy_n: int  # size used by the benchmark's own tests
    hot: str  # span predicted to take the most self time


# Sizes are chosen so that one invocation takes about 1-2 s of CPU time and
# a 28 s run holds 12 or more of them: one call moves by about 10% from the
# next on a shared host, and only the median of many calls holds still.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="promote-tree",
            kind="tree-axes",
            n=40,
            same_report_every_seed=True,
            pool=1,
            commands=(("promote",),),
            toy_n=30,
            hot="median.closure_of",
        ),
        Workload(
            name="promote-grid",
            kind="product-lines",
            n=10,
            same_report_every_seed=True,
            pool=1,
            commands=(("promote",),),
            toy_n=4,
            hot="median.closure_of",
        ),
        Workload(
            name="helly-tree",
            kind="tree-axes",
            n=150,
            same_report_every_seed=False,
            pool=2,
            commands=(("helly", "--R", "5"),),
            toy_n=40,
            hot="cubes.hyperplane_decomposition",
        ),
        Workload(
            name="measure-axes",
            kind="tree-axes",
            n=300,
            same_report_every_seed=False,
            pool=2,
            commands=(
                ("validate",),
                ("df-check", "--s", "{E100}", "--samples", "2000"),
                ("psi", "--samples", "2000"),
                ("pack", "--R", "3"),
            ),
            toy_n=40,
            hot="hhs.hhs_median",
        ),
    )
}


ALL = tuple(WORKLOADS)

# Span -> workloads whose run_s it should move; for a "setup." span, the
# workloads whose setup_s it should move.
PREDICTED = {
    "median.closure_of": ("promote-tree", "promote-grid"),
    "median.is_median_graph": ("helly-tree", "promote-grid"),
    "median.connectify_and_close_in": ("promote-tree",),
    "median.lex_least_geodesic": ("promote-tree",),
    "cubes.hyperplane_decomposition": ("helly-tree", "promote-tree"),
    "cubes.crossing_dimension": ("helly-tree", "promote-tree"),
    "cubes.helly_intersection": ("helly-tree",),
    "applications.promote_to_cube_complex": ("promote-tree", "promote-grid"),
    "applications.tree_approximate": ("helly-tree",),
    "applications.coarse_helly_experiment": ("helly-tree",),
    "applications.bounded_packing_count": ("measure-axes",),
    "embedding.build_coloured_system": ("measure-axes",),
    "embedding.psi_map": ("measure-axes",),
    "embedding.measure_embedding": ("measure-axes",),
    "embedding.quasimedian_defect": ("measure-axes",),
    "hhs.hhs_median": ("measure-axes",),
    "hhs.distance_formula_fit": ("measure-axes",),
    "hhs.find_bbf_colouring": ("measure-axes",),
    "hhs.product_region": ("helly-tree",),
    "hhs.space_hull": ("helly-tree",),
    "projection.build_quasitree": ("measure-axes",),
    "projection.verify_projection_axioms": ("measure-axes",),
    "graphs.distance_matrix": ALL,
    "jsonio.canonical_dumps": ("promote-tree",),
    "setup.hhs.validate_instance": ALL,
    "setup.graphs.distance_matrix": ALL,
}


def toy(w: Workload) -> Workload:
    return dataclasses.replace(w, n=w.toy_n, pool=min(w.pool, 2))


# ---------------------------------------------------------------------------
# fixtures


def permute_ambient(h: HHSInstance, perm: np.ndarray) -> HHSInstance:
    """The same instance with ambient vertex v renamed perm[v]."""
    inv = np.argsort(perm)
    ambient = UnitGraph(h.n, tuple((int(perm[u]), int(perm[v])) for u, v in h.ambient.edges))
    domains = tuple(
        dataclasses.replace(d, pi=tuple(d.pi[int(inv[x])] for x in range(h.n)))
        for d in h.domains
    )
    return HHSInstance(ambient=ambient, domains=domains, E=h.E)


def generate(w: Workload, seed: int, index: int) -> HHSInstance:
    """Fixture `index` of a run with this seed: shape `index`, ambient ids
    permuted by the seed.  Raises ValueError when `tree_with_axes` cannot
    place its axes; the seed is never replaced by another."""
    if w.kind == "tree-axes":
        h = fixtures.tree_with_axes(w.n, 4, index)
    else:
        h = fixtures.product_of_lines(w.n)
    rng = fixtures.rng_from_seed(seed, stream=LABEL_STREAM + index)
    return permute_ambient(h, rng.permutation(h.n))


@dataclass
class Fixture:
    index: int
    path: Path
    text: str
    E: int


def set_up(w: Workload, seed: int, index: int, work_dir: Path) -> Fixture:
    """Generate, write and parse back fixture `index`."""
    h = generate(w, seed, index)
    text = canonical_dumps(h.to_dict())
    path = work_dir / f"{w.name}-{index}.json"
    path.write_text(text, encoding="utf-8")
    back = HHSInstance.from_dict(json.loads(path.read_text(encoding="utf-8")))
    if canonical_dumps(back.to_dict()) != text:
        raise ValueError(f"fixture {index} does not round-trip through from_dict")
    return Fixture(index, path, text, back.E)


# ---------------------------------------------------------------------------
# calls and the output gate


def argv(fx: Fixture, command: tuple[str, ...]) -> list[str]:
    rest = [a.replace("{E100}", str(100 * fx.E)) for a in command[1:]]
    return [command[0], "--in", str(fx.path), *rest]


def run_cli(args: list[str]) -> tuple[int, str]:
    """Run one CLI invocation in process; return its exit code and report."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue()


def call(fx: Fixture, command: tuple[str, ...]) -> tuple[int, str]:
    """Run one subcommand on a fixture."""
    return run_cli(argv(fx, command))


# Report fields that must be true, per subcommand.
INVARIANTS = {
    "promote": ("median_closed", "isometric", "one_connected"),
    "helly": ("hull_bound_ok",),
    "validate": ("ok",),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(command: str, code: int, report: str) -> str | None:
    """Why the call failed, or None: exit code and report invariants."""
    if code != 0:
        return f"{command} exited {code}"
    try:
        data = json.loads(report)
    except ValueError:
        return f"{command} printed no JSON report"
    for key in INVARIANTS.get(command, ()):
        if data.get(key) is not True:
            return f"{command}: {key} is {data.get(key)!r}"
    return None


PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pinned_reports(w: Workload, seed: int, pins: dict) -> list[list[str]] | None:
    """The report hashes a run of `w` at `seed` must give, by fixture and
    command, or None when nothing is pinned for that seed.

    A workload whose reports do not depend on the labelling is held to its
    default-seed pins at every seed; the others are pinned at the default
    and the held-out seed."""
    if w.same_report_every_seed:
        seed = pins["default_seed"]
    return pins["reports"].get(str(seed), {}).get(w.name)


def write_pins(pins: dict) -> None:
    tmp = PINS_PATH.with_suffix(".tmp")
    tmp.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, PINS_PATH)
