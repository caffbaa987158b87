"""Uniform quadrilateral meshes of the unit square and DOF layouts.

The mesh is an n-by-n grid of axis-aligned squares of side h = 1/n.
Skeleton edges carry a fixed global orientation: horizontal edges have
normal +y, vertical edges have normal +x.  An element therefore sees its
four edges (listed bottom, right, top, left) with outward-normal signs
(-1, +1, +1, -1) relative to the global normal, which is the single sign
convention used for flux unknowns throughout the library.

A DofLayout numbers the global degrees of freedom of one function-space
component and owns the element-to-global connectivity map.  Local DOF
orderings agree with the master-element basis orderings in
:mod:`dlsfem.basis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class UnsupportedSpace(Exception):
    """Requested function-space kind is not implemented."""


#: local edge order within an element and the outward-vs-global normal sign
LOCAL_EDGES = ("bottom", "right", "top", "left")
EDGE_NORMAL_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

#: local vertex ids (ll, lr, ur, ul) at the two ends of each local edge,
#: listed in the direction of increasing global edge parameter
EDGE_VERTICES = {"bottom": (0, 1), "right": (1, 2), "top": (3, 2), "left": (0, 3)}

SPACE_KINDS = (
    "h1",          # H1-conforming, order p
    "hdiv",        # H(div)-conforming, order p
    "l2",          # L2-broken (one Y^p component)
    "trace_h1",    # skeleton trace of W^p: vertices + degree-p edge functions
    "trace_flux",  # skeleton normal trace of V^p: degree p-1 per edge, signed
    "h1_broken",   # discontinuous W^p test space
    "hdiv_broken", # discontinuous V^p test space
    "l2_broken",   # discontinuous Y^p test space
)


@dataclass
class Mesh:
    """Uniform n-by-n quadrilateral partition of (0,1)^2."""

    n: int
    h: float
    vertices: np.ndarray          # (nv, 2)
    elements: np.ndarray          # (ne, 4) vertex ids, order ll, lr, ur, ul
    element_edges: np.ndarray     # (ne, 4) edge ids, order bottom/right/top/left
    edge_orientation: np.ndarray  # (nedges,) 0 = horizontal (normal +y), 1 = vertical
    edge_midpoints: np.ndarray    # (nedges, 2)
    edge_on_boundary: np.ndarray  # (nedges,) bool
    vertex_on_boundary: np.ndarray  # (nv,) bool

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_orientation.shape[0]

    @property
    def n_interior_edges(self) -> int:
        return int(np.count_nonzero(~self.edge_on_boundary))

    def element_origins(self) -> np.ndarray:
        return self.vertices[self.elements[:, 0]]


def uniform_mesh(n: int) -> Mesh:
    """Uniform quadrilateral mesh with n subdivisions per side."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    ne = n * n
    n_h = n * (n + 1)  # horizontal edges (rows iy = 0..n of n each)
    ey, ex = np.divmod(np.arange(ne, dtype=np.int64), n)
    v0 = ey * (n + 1) + ex                       # lower-left vertex
    elements = np.column_stack([v0, v0 + 1, v0 + n + 2, v0 + n + 1])
    element_edges = np.column_stack(
        [
            ey * n + ex,                         # bottom
            n_h + ey * (n + 1) + ex + 1,         # right
            (ey + 1) * n + ex,                   # top
            n_h + ey * (n + 1) + ex,             # left
        ]
    )

    nedges = 2 * n_h
    orientation = np.zeros(nedges, dtype=np.int64)
    orientation[n_h:] = 1
    hy, hx = np.divmod(np.arange(n_h), n)        # horizontal edge iy * n + ix
    vy, vx = np.divmod(np.arange(n_h), n + 1)    # vertical edge n_h + iy * (n + 1) + ix
    midpoints = np.concatenate(
        [np.column_stack([(hx + 0.5) * h, hy * h]), np.column_stack([vx * h, (vy + 0.5) * h])]
    )
    on_boundary = np.concatenate([(hy == 0) | (hy == n), (vx == 0) | (vx == n)])

    vertex_on_boundary = (
        np.isclose(vertices[:, 0], 0.0)
        | np.isclose(vertices[:, 0], 1.0)
        | np.isclose(vertices[:, 1], 0.0)
        | np.isclose(vertices[:, 1], 1.0)
    )
    return Mesh(
        n=n,
        h=h,
        vertices=vertices,
        elements=elements,
        element_edges=element_edges,
        edge_orientation=orientation,
        edge_midpoints=midpoints,
        edge_on_boundary=on_boundary,
        vertex_on_boundary=vertex_on_boundary,
    )


@dataclass
class DofLayout:
    """Global numbering of one function-space component.

    element_dofs[e] lists the global ids of element e's local DOFs in the
    canonical local ordering of :mod:`dlsfem.basis`.
    """

    kind: str
    p: int
    n_total: int
    element_dofs: np.ndarray        # (ne, nloc) int
    boundary_dofs: np.ndarray       # sorted global ids on the domain boundary
    positions: np.ndarray           # (n_total, 2) representative coordinates
    counts: dict = field(default_factory=dict)  # per-entity DOF counts


def _edge_dofs(mesh: Mesh, per_edge: int, base: int = 0) -> np.ndarray:
    """(ne, 4 * per_edge) ids of the element edges' DOFs, edge by edge."""
    ids = base + mesh.element_edges[:, :, None] * per_edge + np.arange(per_edge)
    return ids.reshape(mesh.n_elements, 4 * per_edge)


def _boundary_edge_dofs(mesh: Mesh, per_edge: int, base: int = 0) -> np.ndarray:
    bedges = np.flatnonzero(mesh.edge_on_boundary)
    return (base + bedges[:, None] * per_edge + np.arange(per_edge)).ravel()


def _interior_dofs(mesh: Mesh, per_element: int, base: int) -> np.ndarray:
    """(ne, per_element) ids of element-interior DOFs numbered element by element."""
    return base + per_element * np.arange(mesh.n_elements)[:, None] + np.arange(per_element)


def _h1_like_layout(mesh: Mesh, p: int, with_interior: bool) -> DofLayout:
    """Shared constructor for the h1 and trace_h1 layouts."""
    n = mesh.n
    nv = (n + 1) * (n + 1)
    nedge = mesh.n_edges
    ker = p - 1
    n_int = ker * ker if with_interior else 0
    interior_base = nv + nedge * ker
    n_total = interior_base + mesh.n_elements * n_int

    dofs = np.concatenate(
        [mesh.elements, _edge_dofs(mesh, ker, nv), _interior_dofs(mesh, n_int, interior_base)],
        axis=1,
    )
    positions = np.concatenate(
        [
            mesh.vertices,
            np.repeat(mesh.edge_midpoints, ker, axis=0),
            np.repeat(mesh.element_origins() + 0.5 * mesh.h, n_int, axis=0),
        ]
    )
    boundary = np.concatenate(
        [np.flatnonzero(mesh.vertex_on_boundary), _boundary_edge_dofs(mesh, ker, nv)]
    )
    counts = {"vertex": nv, "edge": nedge * ker, "interior": mesh.n_elements * n_int}
    return DofLayout(
        kind="h1" if with_interior else "trace_h1",
        p=p,
        n_total=n_total,
        element_dofs=dofs,
        boundary_dofs=np.unique(boundary),
        positions=positions,
        counts=counts,
    )


def _hdiv_layout(mesh: Mesh, p: int) -> DofLayout:
    nedge = mesh.n_edges
    n_int = 2 * p * (p - 1)
    interior_base = nedge * p
    n_total = interior_base + mesh.n_elements * n_int

    dofs = np.concatenate(
        [_edge_dofs(mesh, p), _interior_dofs(mesh, n_int, interior_base)], axis=1
    )
    positions = np.concatenate(
        [
            np.repeat(mesh.edge_midpoints, p, axis=0),
            np.repeat(mesh.element_origins() + 0.5 * mesh.h, n_int, axis=0),
        ]
    )
    return DofLayout(
        kind="hdiv",
        p=p,
        n_total=n_total,
        element_dofs=dofs,
        boundary_dofs=np.unique(_boundary_edge_dofs(mesh, p)),
        positions=positions,
        counts={"edge": nedge * p, "interior": mesh.n_elements * n_int},
    )


def _flux_layout(mesh: Mesh, p: int) -> DofLayout:
    """Skeleton flux traces: p single-valued DOFs per edge."""
    n_total = mesh.n_edges * p
    dofs = _edge_dofs(mesh, p)
    return DofLayout(
        kind="trace_flux",
        p=p,
        n_total=n_total,
        element_dofs=dofs,
        boundary_dofs=np.unique(_boundary_edge_dofs(mesh, p)),
        positions=np.repeat(mesh.edge_midpoints, p, axis=0),
        counts={"edge": n_total},
    )


def _broken_layout(mesh: Mesh, kind: str, p: int) -> DofLayout:
    per_element = {
        "l2": p * p,
        "l2_broken": p * p,
        "h1_broken": (p + 1) * (p + 1),
        "hdiv_broken": 2 * p * (p + 1),
    }[kind]
    n_total = mesh.n_elements * per_element
    dofs = (
        np.arange(per_element, dtype=np.int64)[None, :]
        + per_element * np.arange(mesh.n_elements, dtype=np.int64)[:, None]
    )
    positions = np.repeat(mesh.element_origins() + 0.5 * mesh.h, per_element, axis=0)
    return DofLayout(
        kind=kind,
        p=p,
        n_total=n_total,
        element_dofs=dofs,
        boundary_dofs=np.zeros(0, dtype=np.int64),
        positions=positions,
        counts={"interior": n_total},
    )


def build_layout(mesh: Mesh, kind: str, p: int) -> DofLayout:
    """Construct the DOF layout and connectivity of one component."""
    if p < 1:
        raise UnsupportedSpace("order p must be >= 1")
    if kind == "h1":
        return _h1_like_layout(mesh, p, with_interior=True)
    if kind == "trace_h1":
        return _h1_like_layout(mesh, p, with_interior=False)
    if kind == "hdiv":
        return _hdiv_layout(mesh, p)
    if kind == "trace_flux":
        return _flux_layout(mesh, p)
    if kind in ("l2", "l2_broken", "h1_broken", "hdiv_broken"):
        return _broken_layout(mesh, kind, p)
    raise UnsupportedSpace(f"unknown space kind {kind!r}")
