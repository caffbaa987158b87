"""Master-square shape functions, trace bases, and tensor quadrature.

The compatible polynomial family on the master square (0,1)^2 is

    W^p = Q^{p,p}           dim (p+1)^2    (H1-type)
    V^p = Q^{p,p-1} x Q^{p-1,p}  dim 2p(p+1)  (H(div)-type)
    Y^p = Q^{p-1,p-1}       dim p^2        (L2-type)

built from two 1D families: shifted Legendre polynomials orthonormal on
(0,1), and the hierarchical H1 family (two vertex hats plus integrated
Legendre kernels).  The kernel derivatives equal orthonormal Legendre
polynomials, so div V^p lands exactly in span Y^p and the Y^p tensor basis
is L2-orthonormal on the master square.  Both properties are load-bearing:
the first gives the exact-sequence structure, the second produces diagonal
L2 Gram matrices on uniform meshes.

Local orderings here are canonical for the whole library and match the
connectivity maps in :mod:`dlsfem.mesh`:

    W^p:  4 vertices (ll,lr,ur,ul), edge kernels (bottom,right,top,left,
          k = 2..p each), interior (j-major).
    V^p:  edge DOFs (bottom,right,top,left, k = 0..p-1 each), then interior
          x-family, then interior y-family.
    Y^p:  tensor index b*p + a for P_a(xi) P_b(eta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


class UnsupportedOrder(Exception):
    """Polynomial order below 1 was requested."""


# ---------------------------------------------------------------------------
# 1D building blocks on (0, 1)
# ---------------------------------------------------------------------------

def legendre_shifted(kmax: int, t: np.ndarray):
    """Orthonormal shifted Legendre values and derivatives.

    Returns (vals, dvals), both of shape (kmax+1, len(t)), where
    vals[k] = sqrt(2k+1) * P_k(2t - 1) satisfies
    int_0^1 vals[j] vals[k] dt = delta_jk.
    """
    t = np.asarray(t, dtype=np.float64)
    u = 2.0 * t - 1.0
    npts = t.shape[0]
    p = np.empty((kmax + 1, npts))
    dp = np.empty((kmax + 1, npts))
    p[0] = 1.0
    dp[0] = 0.0
    if kmax >= 1:
        p[1] = u
        dp[1] = 1.0
    for k in range(1, kmax):
        p[k + 1] = ((2 * k + 1) * u * p[k] - k * p[k - 1]) / (k + 1)
        dp[k + 1] = dp[k - 1] + (2 * k + 1) * p[k]
    scale = np.sqrt(2.0 * np.arange(kmax + 1) + 1.0)[:, None]
    return scale * p, 2.0 * scale * dp


def h1_hierarchical(p: int, t: np.ndarray):
    """1D hierarchical H1 basis: hats (1-t, t) plus kernels phi_k, k=2..p.

    phi_k vanishes at both endpoints and phi_k' equals the orthonormal
    shifted Legendre polynomial of degree k-1.
    """
    if p < 1:
        raise UnsupportedOrder("p must be >= 1")
    t = np.asarray(t, dtype=np.float64)
    u = 2.0 * t - 1.0
    npts = t.shape[0]
    vals = np.empty((p + 1, npts))
    dvals = np.empty((p + 1, npts))
    vals[0] = 1.0 - t
    vals[1] = t
    dvals[0] = -1.0
    dvals[1] = 1.0
    if p >= 2:
        leg = np.empty((p + 1, npts))
        leg[0] = 1.0
        leg[1] = u
        for k in range(1, p):
            leg[k + 1] = ((2 * k + 1) * u * leg[k] - k * leg[k - 1]) / (k + 1)
        ln, _ = legendre_shifted(p - 1, t)
        for k in range(2, p + 1):
            vals[k] = (leg[k] - leg[k - 2]) / (2.0 * np.sqrt(2.0 * k - 1.0))
            dvals[k] = ln[k - 1]
    return vals, dvals


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass
class QuadratureRule:
    """Tensor Gauss-Legendre rule on (0,1)^2 with its 1D edge rule."""

    q: int
    points: np.ndarray    # (q*q, 2)
    weights: np.ndarray   # (q*q,)
    points_1d: np.ndarray  # (q,)
    weights_1d: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def gauss_rule(q: int) -> QuadratureRule:
    """q-point-per-direction tensor Gauss-Legendre rule, exact to 2q-1."""
    if q < 1:
        raise ValueError("q must be >= 1")
    x, w = leggauss(q)
    t = 0.5 * (x + 1.0)
    w1 = 0.5 * w
    gx, gy = np.meshgrid(t, t, indexing="ij")
    wx, wy = np.meshgrid(w1, w1, indexing="ij")
    return QuadratureRule(
        q=q,
        points=np.column_stack([gx.ravel(), gy.ravel()]),
        weights=(wx * wy).ravel(),
        points_1d=t,
        weights_1d=w1,
    )


# ---------------------------------------------------------------------------
# Master-element value tables
# ---------------------------------------------------------------------------

def _w_index_pairs(p: int):
    """(i, j) tensor exponents of W^p in canonical local order."""
    pairs = [(0, 0), (1, 0), (1, 1), (0, 1)]
    pairs += [(k, 0) for k in range(2, p + 1)]   # bottom
    pairs += [(1, k) for k in range(2, p + 1)]   # right
    pairs += [(k, 1) for k in range(2, p + 1)]   # top
    pairs += [(0, k) for k in range(2, p + 1)]   # left
    pairs += [(i, j) for j in range(2, p + 1) for i in range(2, p + 1)]
    return pairs


def w_table(p: int, points: np.ndarray):
    """Values and gradients of the W^p basis at master points.

    Returns (vals, grads) with shapes (dim, npts) and (dim, 2, npts).
    """
    if p < 1:
        raise UnsupportedOrder("p must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    fx, dfx = h1_hierarchical(p, points[:, 0])
    fy, dfy = h1_hierarchical(p, points[:, 1])
    pairs = _w_index_pairs(p)
    vals = np.empty((len(pairs), points.shape[0]))
    grads = np.empty((len(pairs), 2, points.shape[0]))
    for d, (i, j) in enumerate(pairs):
        vals[d] = fx[i] * fy[j]
        grads[d, 0] = dfx[i] * fy[j]
        grads[d, 1] = fx[i] * dfy[j]
    return vals, grads


def _v_index_list(p: int):
    """(family, a, b) triples of V^p in canonical local order.

    family 0 is the x-component family phi_a(xi) P_b(eta) e_x,
    family 1 is the y-component family P_a(xi) phi_b(eta) e_y.
    """
    idx = [(1, k, 0) for k in range(p)]            # bottom
    idx += [(0, 1, k) for k in range(p)]           # right
    idx += [(1, k, 1) for k in range(p)]           # top
    idx += [(0, 0, k) for k in range(p)]           # left
    idx += [(0, a, b) for a in range(2, p + 1) for b in range(p)]
    idx += [(1, a, b) for b in range(2, p + 1) for a in range(p)]
    return idx


def v_table(p: int, points: np.ndarray):
    """Values and divergences of the V^p basis at master points.

    Returns (vals, divs) with shapes (dim, 2, npts) and (dim, npts).
    """
    if p < 1:
        raise UnsupportedOrder("p must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    hx, dhx = h1_hierarchical(p, points[:, 0])
    hy, dhy = h1_hierarchical(p, points[:, 1])
    lx, _ = legendre_shifted(p - 1, points[:, 0])
    ly, _ = legendre_shifted(p - 1, points[:, 1])
    idx = _v_index_list(p)
    vals = np.zeros((len(idx), 2, points.shape[0]))
    divs = np.empty((len(idx), points.shape[0]))
    for d, (family, a, b) in enumerate(idx):
        if family == 0:
            vals[d, 0] = hx[a] * ly[b]
            divs[d] = dhx[a] * ly[b]
        else:
            vals[d, 1] = lx[a] * hy[b]
            divs[d] = lx[a] * dhy[b]
    return vals, divs


def y_table(p: int, points: np.ndarray) -> np.ndarray:
    """Values of the L2-orthonormal Y^p tensor basis, shape (p*p, npts)."""
    if p < 1:
        raise UnsupportedOrder("p must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    lx, _ = legendre_shifted(p - 1, points[:, 0])
    ly, _ = legendre_shifted(p - 1, points[:, 1])
    vals = np.empty((p * p, points.shape[0]))
    for b in range(p):
        for a in range(p):
            vals[b * p + a] = lx[a] * ly[b]
    return vals


# ---------------------------------------------------------------------------
# Edge geometry and trace tables
# ---------------------------------------------------------------------------

def edge_points(local_edge: int, t: np.ndarray) -> np.ndarray:
    """Master coordinates of edge points, parameterized along +x or +y."""
    t = np.asarray(t, dtype=np.float64)
    zero = np.zeros_like(t)
    one = np.ones_like(t)
    if local_edge == 0:   # bottom
        return np.column_stack([t, zero])
    if local_edge == 1:   # right
        return np.column_stack([one, t])
    if local_edge == 2:   # top
        return np.column_stack([t, one])
    if local_edge == 3:   # left
        return np.column_stack([zero, t])
    raise ValueError("local edge must be 0..3")


#: outward unit normals of the four local edges
EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


def trace_h1_edge_tables(p: int, t: np.ndarray):
    """Per-edge values of the skeleton H1-trace basis.

    The local component ordering is 4 vertices (ll,lr,ur,ul) followed by
    4*(p-1) edge kernels grouped bottom/right/top/left.  Returns a list of
    four (nloc, nq) arrays, one per local edge.
    """
    if p < 1:
        raise UnsupportedOrder("p must be >= 1")
    t = np.asarray(t, dtype=np.float64)
    ker = p - 1
    nloc = 4 + 4 * ker
    hats, _ = h1_hierarchical(max(p, 1), t)
    tables = []
    # vertex ids at (start, end) of each edge in global-parameter direction
    edge_verts = [(0, 1), (1, 2), (3, 2), (0, 3)]
    for le in range(4):
        tab = np.zeros((nloc, t.shape[0]))
        v0, v1 = edge_verts[le]
        tab[v0] = hats[0]
        tab[v1] = hats[1]
        for k in range(ker):
            tab[4 + le * ker + k] = hats[2 + k]
        tables.append(tab)
    return tables


def trace_flux_edge_tables(p: int, t: np.ndarray):
    """Per-edge values of the skeleton flux-trace basis (degree p-1).

    The flux unknown represents sigma . n_global on each edge; the
    outward-normal sign of the adjacent element is applied by the caller.
    """
    if p < 1:
        raise UnsupportedOrder("p must be >= 1")
    t = np.asarray(t, dtype=np.float64)
    leg, _ = legendre_shifted(p - 1, t)
    nloc = 4 * p
    tables = []
    for le in range(4):
        tab = np.zeros((nloc, t.shape[0]))
        tab[le * p : (le + 1) * p] = leg
        tables.append(tab)
    return tables
