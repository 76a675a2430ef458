"""Seeded fixture generators: hierarchical instances over grids, trees and
spiders, and projection systems of geodesic lines in random trees.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .graphs import UnitGraph, gate_map, grid_graph, path_graph, random_tree, spider_graph
from .hhs import (
    REL_CONTAINS,
    REL_NESTED,
    REL_ORTH,
    REL_TRANS,
    Domain,
    HHSInstance,
    SetRows,
    validate_instance,
)
from .projection import ProjectionSystem, axes_in_tree_system


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _with_measured_E(h: HHSInstance) -> HHSInstance:
    diag = validate_instance(h)
    return dataclasses.replace(h, E=int(diag.E_min))


def product_of_lines(n: int) -> HHSInstance:
    """n x n grid as the product of its two coordinate lines; E = 0."""
    ambient = grid_graph(n, n)
    line = path_graph(n)
    row, col = np.divmod(np.arange(n * n), n)
    dx = Domain(id="x", space=line, pi=SetRows(col), rel={"y": REL_ORTH}, rho={})
    dy = Domain(id="y", space=line, pi=SetRows(row), rel={"x": REL_ORTH}, rho={})
    return _with_measured_E(HHSInstance(ambient=ambient, domains=(dx, dy), E=0))


def _require_leaf_pairs(
    D: np.ndarray, leaves: list[int], count: int, what: str, min_length: int
) -> None:
    """Refuse, before any draw, a tree that cannot hold `count` distinct
    leaf-to-leaf geodesics of length >= min_length: distinct leaf pairs span
    distinct geodesics, so it needs that many leaf pairs so far apart."""
    if count and len(leaves) < 2:
        raise ValueError(f"could not place {count} {what}: the tree has {len(leaves)} leaves")
    far = int(np.triu(D[np.ix_(leaves, leaves)] >= min_length, 1).sum())
    if far < count:
        pairs = "pair" if far == 1 else "pairs"
        raise ValueError(
            f"could not place {count} {what}: the tree has {far} leaf {pairs} "
            f"at distance >= {min_length}"
        )


def _axis_projections(tree: UnitGraph, axes: list[list[int]]) -> list[np.ndarray]:
    """Per axis, the position along it of each tree vertex's gate."""
    out = []
    for axis in axes:
        position = np.zeros(tree.n, dtype=np.int64)
        position[axis] = np.arange(len(axis))
        out.append(position[gate_map(tree.distance_matrix, axis)])
    return out


def _axes_domains(tree: UnitGraph, axes: list[list[int]]) -> list[Domain]:
    k = len(axes)
    projections = _axis_projections(tree, axes)
    doms = []
    for i, axis in enumerate(axes):
        rel = {f"axis{j}": REL_TRANS for j in range(k) if j != i}
        rho = {f"axis{j}": frozenset(projections[j][axis].tolist()) for j in range(k) if j != i}
        doms.append(
            Domain(id=f"axis{i}", space=path_graph(len(axis)), pi=SetRows(projections[i]), rel=rel, rho=rho)
        )
    return doms


def spider_with_axes(legs: int, leg_length: int, include_tree_domain: bool = False) -> HHSInstance:
    """Spider tree whose axes pair up consecutive legs through the center.

    With an even number of legs the axes are pairwise transverse leaf-to-leaf
    geodesics meeting only at the center, so every measured constant is zero.
    """
    if legs < 2 or legs % 2:
        raise ValueError(f"need an even number of legs, at least 2, not {legs}")
    tree = spider_graph(legs, leg_length)
    leg = lambda i: [0] + [1 + i * leg_length + t for t in range(leg_length)]
    axes = []
    for i in range(0, legs, 2):
        left = leg(i)
        right = leg(i + 1)
        axes.append(list(reversed(left[1:]))[: leg_length] + [0] + right[1:])
    doms = _axes_domains(tree, axes)
    if include_tree_domain:
        doms = _add_tree_domain(tree, axes, doms)
    return _with_measured_E(HHSInstance(ambient=tree, domains=tuple(doms), E=0))


def _add_tree_domain(tree: UnitGraph, axes: list[list[int]], doms: list[Domain]) -> list[Domain]:
    out = []
    for i, d in enumerate(doms):
        rel = dict(d.rel)
        rel["tree"] = REL_NESTED
        rho = dict(d.rho)
        rho["tree"] = frozenset(axes[i])
        out.append(dataclasses.replace(d, rel=rel, rho=rho))
    tree_dom = Domain(
        id="tree",
        space=tree,
        pi=SetRows(np.arange(tree.n)),
        rel={f"axis{i}": REL_CONTAINS for i in range(len(axes))},
        rho={},
        rho_map={f"axis{i}": SetRows(pi) for i, pi in enumerate(_axis_projections(tree, axes))},
    )
    return out + [tree_dom]


def tree_with_axes(
    n: int,
    k_axes: int,
    seed: int,
    include_tree_domain: bool = True,
    overlap_cap: int = 2,
    min_length: int = 3,
) -> HHSInstance:
    """Random tree with k leaf-to-leaf geodesic axes of small pairwise overlap.

    The axes are pairwise transverse domains; with include_tree_domain the
    whole tree joins as a domain containing each axis (its measured constant
    then includes the axis diameters).
    """
    rng = rng_from_seed(seed)
    tree = random_tree(n, rng)
    D = tree.distance_matrix
    leaves = [v for v in range(n) if tree.degree(v) == 1]
    _require_leaf_pairs(D, leaves, k_axes, "axes", min_length)
    axes: list[list[int]] = []
    attempts = 0
    while len(axes) < k_axes and attempts < 400:
        attempts += 1
        a, b = (int(x) for x in rng.choice(leaves, size=2, replace=False))
        if D[a, b] < min_length:
            continue
        path = tree.tree_index.path(a, b)
        if any(set(path) == set(ax) for ax in axes):
            continue
        ok = True
        for ax in axes:
            for line, other in ((ax, path), (path, ax)):
                idx = sorted(set(gate_map(D[other], line).tolist()))
                if len(idx) > 1 and int(D[np.ix_(idx, idx)].max()) > overlap_cap:
                    ok = False
        if not ok:
            continue
        axes.append(path)
    if len(axes) < k_axes:
        raise ValueError(f"could not place {k_axes} axes (got {len(axes)}); vary the seed")
    doms = _axes_domains(tree, axes)
    if include_tree_domain:
        doms = _add_tree_domain(tree, axes, doms)
    return _with_measured_E(HHSInstance(ambient=tree, domains=tuple(doms), E=0))


# ---------------------------------------------------------------------------
# projection-system fixtures


def random_axes_system(n: int, k_lines: int, seed: int) -> ProjectionSystem:
    """Random tree with k random maximal geodesic lines, nearest-point projections."""
    rng = rng_from_seed(seed, stream=1)
    tree = random_tree(n, rng)
    D = tree.distance_matrix
    leaves = [v for v in range(n) if tree.degree(v) == 1]
    _require_leaf_pairs(D, leaves, k_lines, "lines", 2)
    lines: list[list[int]] = []
    attempts = 0
    while len(lines) < k_lines and attempts < 600:
        attempts += 1
        a, b = (int(x) for x in rng.choice(leaves, size=2, replace=False))
        if D[a, b] < 2:
            continue
        path = tree.tree_index.path(a, b)
        if any(set(path) == set(l) for l in lines):
            continue
        lines.append(path)
    if len(lines) < k_lines:
        raise ValueError(f"could not place {k_lines} lines; vary the seed")
    return axes_in_tree_system(tree, lines)
