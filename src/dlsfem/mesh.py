"""Uniform quadrilateral meshes of the unit square and DOF layouts.

The mesh is an n-by-n grid of axis-aligned squares of side h = 1/n.
Skeleton edges carry a fixed global orientation: horizontal edges have
normal +y, vertical edges have normal +x.  An element therefore sees its
four edges (listed bottom, right, top, left) with outward-normal signs
(-1, +1, +1, -1) relative to the global normal, which is the single sign
convention used for flux unknowns throughout the library.

Every space kind is fixed by the DOFs it puts on each vertex, each edge
and each element interior (:func:`entity_dofs`):

    kind          vertex  edge   interior
    h1            1       p-1    (p-1)^2      W^p, H1-conforming
    trace_h1      1       p-1    0            skeleton trace of W^p
    hdiv          0       p      2p(p-1)      V^p, H(div)-conforming
    trace_flux    0       p      0            normal trace of V^p, signed
    l2            0       0      p^2          Y^p
    h1_broken     0       0      (p+1)^2      discontinuous W^p
    hdiv_broken   0       0      2p(p+1)      discontinuous V^p
    l2_broken     0       0      p^2          discontinuous Y^p

A DofLayout numbers the global degrees of freedom of one component from
that table, vertex DOFs first, then edge DOFs edge by edge, then interior
DOFs element by element, and owns the element-to-global connectivity map.
Local DOF orderings (four vertices, four edges, interior) agree with the
master-element basis orderings in :mod:`dlsfem.basis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UnsupportedSpace(Exception):
    """Requested function-space kind is not implemented."""


#: outward-vs-global normal sign of the local edges (bottom, right, top, left)
EDGE_NORMAL_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


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

    def at_quadrature_points(self, fn, rule) -> np.ndarray:
        """fn(x, y) at every element's quadrature points, as an (ne, g^2) array.

        Point q = a g + b of element e = ey n + ex lies at (xs[ex] + h t[a],
        xs[ey] + h t[b]), xs the vertex coordinates and t the rule's 1D
        points, as in ``element_origins() + h * rule.points``.  On the
        uniform mesh these form a tensor grid, and fn is called once on its
        lines, x of shape (1, n, g, 1) and y of shape (n, 1, 1, g): the same
        sums as per point, so the same values bit for bit.  A result that
        ignores x or y, or a scalar, is broadcast; the values are read only."""
        n, g = self.n, rule.q
        lines = self.vertices[:n, 0, None] + self.h * rule.points_1d  # vertex k < n is (xs[k], 0)
        vals = fn(lines.reshape(1, n, g, 1), lines.reshape(n, 1, 1, g))
        return np.broadcast_to(vals, (n, n, g, g)).reshape(n * n, g * g)


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
    canonical local ordering of :mod:`dlsfem.basis`; its last ``n_interior``
    entries are the element's own interior DOFs.
    """

    kind: str
    p: int
    n_total: int
    element_dofs: np.ndarray        # (ne, nloc) int
    boundary_dofs: np.ndarray       # sorted global ids on the domain boundary
    positions: np.ndarray           # (n_total, 2) representative coordinates
    n_interior: int                 # interior DOFs per element


def entity_dofs(kind: str, p: int) -> tuple:
    """(per vertex, per edge, per element interior) DOF counts of a space kind,
    as tabulated in the module docstring."""
    if p < 1:
        raise UnsupportedSpace("order p must be >= 1")
    table = {
        "h1": (1, p - 1, (p - 1) ** 2),
        "trace_h1": (1, p - 1, 0),
        "hdiv": (0, p, 2 * p * (p - 1)),
        "trace_flux": (0, p, 0),
        "l2": (0, 0, p * p),
        "h1_broken": (0, 0, (p + 1) ** 2),
        "hdiv_broken": (0, 0, 2 * p * (p + 1)),
        "l2_broken": (0, 0, p * p),
    }
    if kind not in table:
        raise UnsupportedSpace(f"unknown space kind {kind!r}")
    return table[kind]


def local_dim(kind: str, p: int) -> int:
    """Local DOFs of one element: four vertices, four edges, its interior."""
    per_vertex, per_edge, per_interior = entity_dofs(kind, p)
    return 4 * (per_vertex + per_edge) + per_interior


def build_layout(mesh: Mesh, kind: str, p: int) -> DofLayout:
    """Construct the DOF layout and connectivity of one component."""
    per_vertex, per_edge, per_interior = entity_dofs(kind, p)
    ne = mesh.n_elements
    edge_base = mesh.vertices.shape[0] * per_vertex
    interior_base = edge_base + mesh.n_edges * per_edge

    def entity_ids(entities, per_entity, base):
        return base + entities[..., None] * per_entity + np.arange(per_entity)

    element_dofs = np.concatenate(
        [
            entity_ids(mesh.elements, per_vertex, 0).reshape(ne, -1),
            entity_ids(mesh.element_edges, per_edge, edge_base).reshape(ne, -1),
            entity_ids(np.arange(ne), per_interior, interior_base),
        ],
        axis=1,
    )
    boundary = np.concatenate(
        [
            entity_ids(np.flatnonzero(mesh.vertex_on_boundary), per_vertex, 0).ravel(),
            entity_ids(np.flatnonzero(mesh.edge_on_boundary), per_edge, edge_base).ravel(),
        ]
    )
    positions = np.concatenate(
        [
            np.repeat(mesh.vertices, per_vertex, axis=0),
            np.repeat(mesh.edge_midpoints, per_edge, axis=0),
            np.repeat(mesh.element_origins() + 0.5 * mesh.h, per_interior, axis=0),
        ]
    )
    return DofLayout(
        kind=kind,
        p=p,
        n_total=interior_base + ne * per_interior,
        element_dofs=element_dofs,
        boundary_dofs=np.unique(boundary),
        positions=positions,
        n_interior=per_interior,
    )
