"""Polynomial bases on triangles and edges, quadrature, the global dof
layout of the weak finite element space, and the local L2 projections.

Element bases are scaled monomials centered at the triangle centroid;
edge bases are monomials in the arclength coordinate centered at the edge
midpoint and scaled by the edge length.  Modal bases match the weak
Galerkin degrees of freedom and keep local Gram matrices uniformly
conditioned under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SUPPORTED_DEGREES",
    "dim_pk",
    "tri_exponents",
    "ElementBasis",
    "EdgeBasis",
    "element_basis",
    "edge_basis",
    "gradient_coefficient_maps",
    "QuadratureRule",
    "quadrature_for_degree",
    "tri_quad",
    "edge_quad",
    "gram",
    "sample",
    "DofMap",
    "WeakFunction",
    "l2_project_element",
    "l2_project_edge",
    "l2_project_weak",
    "l2_project_vector",
]

SUPPORTED_DEGREES = (1, 2, 3)


def dim_pk(k):
    """Dimension of P_k on a triangle."""
    return (k + 1) * (k + 2) // 2


@lru_cache(maxsize=None)
def tri_exponents(k):
    """Monomial exponent pairs (p, q) with p+q <= k, graded by degree."""
    return tuple((d - q, q) for d in range(k + 1) for q in range(d + 1))


class ElementBasis:
    """Monomials ((x-xc)/s)^p ((y-yc)/s)^q, p+q <= k, centered at the
    triangle centroid xc and scaled by the diameter s; eval and grad take
    the scaled coordinates ((x-xc)/s, (y-yc)/s) of the points."""

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.exponents = np.array(tri_exponents(degree))
        self.dim = len(self.exponents)

    def eval(self, scaled):
        """Basis values at the scaled points (p - center) / scale, shape
        (npts, dim) for scaled (npts, 2); leading axes carry through:
        (T, npts, 2) gives (T, npts, dim)."""
        # each power once per point, then one product per basis function.
        # Z^0 = 1 and Z^1 = Z are exact; the higher powers are numpy's
        # power ufunc, as Z**P computes them (its AVX-512 kernel where the
        # CPU has one, else libm's pow), in one call on both coordinates
        # with a full-size exponent array: numpy squares where an exponent
        # 2 is broadcast (or the call has one element), and a square
        # differs from pow in the last bit
        XY = _coordinates(scaled)
        powers = np.repeat(np.arange(2.0, self.degree + 1), XY.size).reshape((-1,) + XY.shape)
        xs, ys = zip((1.0, 1.0), XY, *(XY**powers))
        out = np.empty(XY.shape[1:] + (self.dim,))
        for m, (p, q) in enumerate(self.exponents):
            np.multiply(xs[p], ys[q], out=out[..., m])
        return out

    def grad(self, scaled, scale):
        """Basis gradients at the scaled points, shape (npts, dim, 2); scale
        broadcasts against scaled[..., 0], as (T, 1) against (T, npts)."""
        X, Y = _coordinates(scaled)
        out = np.zeros(X.shape + (self.dim, 2))
        for m, (p, q) in enumerate(self.exponents):
            if p:
                out[..., m, 0] = (p / scale) * X ** (p - 1) * Y**q
            if q:
                out[..., m, 1] = (q / scale) * X**p * Y ** (q - 1)
        return out


def _coordinates(scaled):
    """The contiguous coordinate pair (2, ...) of points (..., 2)."""
    return np.moveaxis(np.atleast_2d(scaled), -1, 0).copy()


class EdgeBasis:
    """Monomials t^m in the arclength coordinate t = (p - mid) . tau / len,
    which runs over [-1/2, 1/2] along the edge."""

    def __init__(self, degree):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.dim = degree + 1

    def eval(self, tcoords):
        t = np.atleast_1d(np.asarray(tcoords, dtype=float))
        return t[:, None] ** np.arange(self.dim)[None, :]


@lru_cache(maxsize=None)
def element_basis(k):
    return ElementBasis(k)


@lru_cache(maxsize=None)
def edge_basis(k):
    return EdgeBasis(k)


@lru_cache(maxsize=None)
def _grad_map_pattern(k):
    index = {exp: m for m, exp in enumerate(tri_exponents(k - 1))}
    dx = np.zeros((dim_pk(k - 1), dim_pk(k)))
    dy = np.zeros_like(dx)
    for col, (p, q) in enumerate(tri_exponents(k)):
        if p:
            dx[index[(p - 1, q)], col] = p
        if q:
            dy[index[(p, q - 1)], col] = q
    dx.setflags(write=False)
    dy.setflags(write=False)
    return dx, dy


def gradient_coefficient_maps(k, scale):
    """Matrices (Dx, Dy) sending P_k coefficients to the P_{k-1}
    coefficients of the partial derivatives, for one basis scale."""
    dx, dy = _grad_map_pattern(k)
    return dx / scale, dy / scale


@dataclass(frozen=True)
class QuadratureRule:
    """Reference rules: a collapsed Gauss product on the unit triangle
    (positive weights summing to 1/2) and Gauss on [-1/2, 1/2]
    (weights summing to 1)."""

    tri_points: np.ndarray     # (nq, 2) reference coordinates
    tri_weights: np.ndarray    # (nq,)
    tri_degree: int            # exact for total degree <= tri_degree
    edge_points: np.ndarray    # (mq,) in [-1/2, 1/2]
    edge_weights: np.ndarray   # (mq,)
    edge_degree: int


def _gauss01(m):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def quadrature_for_degree(k):
    """Rule pair for degree-k spaces: triangle exact to 2k+6, edge exact
    to 2k+7, covering every polynomial integrand of the local forms with
    headroom for smooth data terms."""
    tri_degree = 2 * k + 6
    edge_degree = 2 * k + 7
    # collapsed coordinates absorb one extra degree from the Jacobian
    m = (tri_degree + 3) // 2
    u, wu = _gauss01(m)
    v, wv = _gauss01(m)
    xi = np.outer(u, 1.0 - v).ravel()
    eta = np.tile(v, m)
    wts = (np.outer(wu, wv * (1.0 - v))).ravel()
    me = (edge_degree + 2) // 2
    xe, we = np.polynomial.legendre.leggauss(me)
    rule = QuadratureRule(
        tri_points=np.column_stack([xi, eta]),
        tri_weights=wts,
        tri_degree=tri_degree,
        edge_points=0.5 * xe,
        edge_weights=0.5 * we,
        edge_degree=edge_degree,
    )
    for arr in (rule.tri_points, rule.tri_weights, rule.edge_points, rule.edge_weights):
        arr.setflags(write=False)
    return rule


def tri_quad(mesh, t, rule):
    """Physical quadrature points and weights on triangle t; an index
    array t adds its shape as leading axes: (..., nq, 2) and (..., nq)."""
    a, b, c = (mesh.vertices[mesh.triangles[t, i]][..., None, :] for i in range(3))
    ref = rule.tri_points
    pts = a + ref[:, 0, None] * (b - a) + ref[:, 1, None] * (c - a)
    wts = rule.tri_weights * (2.0 * mesh.tri_areas[t])[..., None]
    return pts, wts


def edge_quad(mesh, e, rule):
    """Physical points, ds-weights and edge-basis coordinates on edge e,
    in the global edge orientation; an index array e adds leading axes."""
    lo, hi = mesh.edges[e, 0], mesh.edges[e, 1]
    direction = (mesh.vertices[hi] - mesh.vertices[lo])[..., None, :]
    pts = mesh.edge_midpoints[e][..., None, :] + rule.edge_points[:, None] * direction
    wts = rule.edge_weights * mesh.edge_lengths[e][..., None]
    return pts, wts, rule.edge_points


def gram(vals, wts):
    """Weighted Gram matrices vals^T diag(wts) vals, batched over the
    leading axes of vals (..., npts, dim) and wts (..., npts)."""
    return vals.swapaxes(-1, -2) @ (wts[..., None] * vals)


class DofMap:
    """Global dof layout: per-triangle interior blocks first, then
    per-edge blocks.  The same layout serves the primal field and the
    multiplier field; only the fixed edge dofs differ:
    primal edge dofs are fixed on Gamma_d, multiplier edge dofs on the
    complement of Gamma_n.  Interior dofs are never fixed."""

    def __init__(self, mesh, k):
        # the one degree gate: 2.0 and True compare equal to degrees but are not
        integral = isinstance(k, (int, np.integer)) and not isinstance(k, bool)
        if not integral or k not in SUPPORTED_DEGREES:
            raise ValueError(f"degree k={k} not supported; expected one of {SUPPORTED_DEGREES}")
        self.mesh = mesh
        self.k = k
        self.interior_dim = dim_pk(k)
        self.edge_dim = k + 1
        self.n_interior = mesh.n_triangles * self.interior_dim
        self.n_dofs = self.n_interior + mesh.n_edges * self.edge_dim

        cell = np.concatenate([
            self.interior_block(np.arange(mesh.n_triangles)),
            self.edge_block(mesh.tri_edges).reshape(mesh.n_triangles, -1),
        ], axis=1)
        cell.setflags(write=False)
        self.cell_dof_array = cell

    def interior_block(self, t):
        """Dofs of the interior block of triangle t; (..., dim) for an index array."""
        return np.asarray(t)[..., None] * self.interior_dim + np.arange(self.interior_dim)

    def edge_block(self, e):
        """Dofs of the block of edge e; (..., k+1) for an index array."""
        return self.n_interior + np.asarray(e)[..., None] * self.edge_dim + np.arange(self.edge_dim)

    def fixed_masks(self, config):
        """Read-only dof masks (u_fixed, lam_fixed) of a boundary
        configuration."""
        masks = []
        for edge_flags in (config.in_gamma_d, self.mesh.is_boundary_edge & ~config.in_gamma_n):
            mask = np.zeros(self.n_dofs, dtype=bool)
            mask[self.n_interior:] = np.repeat(edge_flags, self.edge_dim)
            mask.setflags(write=False)
            masks.append(mask)
        return tuple(masks)


class WeakFunction:
    """Coefficient vector of one weak field v = {v_0, v_b}: an interior
    polynomial per triangle plus an independent polynomial per edge."""

    def __init__(self, mesh, k, coeffs=None, dofmap=None):
        self.mesh = mesh
        self.k = k
        self.dofmap = dofmap if dofmap is not None else DofMap(mesh, k)
        if coeffs is None:
            coeffs = np.zeros(self.dofmap.n_dofs)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dofmap.n_dofs,):
            raise ValueError(
                f"coefficient vector has length {coeffs.shape}, expected ({self.dofmap.n_dofs},)"
            )
        self.coeffs = coeffs

    def interior_coeffs(self, t):
        return self.coeffs[self.dofmap.interior_block(t)]

    def edge_coeffs(self, e):
        return self.coeffs[self.dofmap.edge_block(e)]

    def local_coeffs(self, t):
        """Local dof vector [interior | edge0 | edge1 | edge2] of triangle t."""
        return self.coeffs[self.dofmap.cell_dof_array[t]]

    def copy(self):
        return WeakFunction(self.mesh, self.k, self.coeffs.copy(), dofmap=self.dofmap)

    def _compatible(self, other):
        if self.mesh is not other.mesh or self.k != other.k:
            raise ValueError("incompatible weak function layouts")

    def __add__(self, other):
        self._compatible(other)
        return WeakFunction(self.mesh, self.k, self.coeffs + other.coeffs, dofmap=self.dofmap)

    def __sub__(self, other):
        self._compatible(other)
        return WeakFunction(self.mesh, self.k, self.coeffs - other.coeffs, dofmap=self.dofmap)

    def __mul__(self, scalar):
        return WeakFunction(self.mesh, self.k, self.coeffs * float(scalar), dofmap=self.dofmap)

    __rmul__ = __mul__


def sample(f, pts):
    """Scalar data f(x, y) at pts (..., 2), shape (...): one call of f on
    the flattened coordinates, a constant result broadcast."""
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    vals = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
    return vals.reshape(pts.shape[:-1])


def _project(vals, wts, fvals, mass=None):
    """L2 projection coefficients, batched over leading axes: basis values
    (..., npts, dim), weights and data values (..., npts); mass, when
    given, is their Gram matrix gram(vals, wts)."""
    rhs = vals.swapaxes(-1, -2) @ (wts * fvals)[..., None]
    return np.linalg.solve(gram(vals, wts) if mass is None else mass, rhs)[..., 0]


def l2_project_element(f, ops, t):
    """Coefficients of the L2 projection of f onto P_k of triangle t, on
    the quadrature, basis table and mass matrices of the level context
    ops; an index array or slice t gives (..., dim) with one call of f on
    all points."""
    g = ops.input_groups[t]
    return _project(ops.group_vk[g], ops.tri_wts[t], sample(f, ops.tri_pts[t]),
                    ops.group_mass_k[g])


def l2_project_edge(f, ops, e):
    """Coefficients of the L2 projection of f onto P_k of edge e, on the
    edge rule (ops.edge_pts, ops.edge_wts) and edge basis ops.beta of the
    level context ops; an index array or slice e gives (..., k+1) with one
    call of f on all points."""
    return _project(ops.beta, ops.edge_wts[e], sample(f, ops.edge_pts[e]))


def l2_project_weak(u, ops):
    """Projection of u into the weak space of the level context ops:
    l2_project_element in every interior block and l2_project_edge in
    every edge block, on the context's dof map."""
    n_int = ops.dofmap.n_interior
    wf = WeakFunction(ops.mesh, ops.k, dofmap=ops.dofmap)
    wf.coeffs[:n_int] = l2_project_element(u, ops, slice(None)).ravel()
    wf.coeffs[n_int:] = l2_project_edge(u, ops, slice(None)).ravel()
    return wf


def l2_project_vector(q, ops):
    """Componentwise L2 projection of a vector field onto piecewise
    [P_{k-1}]^2 of the level context ops; q(x, y) returns the component
    pair.  Shape (T, 2, dim)."""
    x, y = ops.tri_pts[..., 0].ravel(), ops.tri_pts[..., 1].ravel()
    shape = ops.tri_wts.shape
    comps = np.stack([np.broadcast_to(np.asarray(c, dtype=float), x.shape).reshape(shape)
                      for c in q(x, y)], axis=1)
    g = ops.input_groups
    return _project(ops.group_vr[g, None], ops.tri_wts[:, None], comps, ops.group_mass_r[g, None])
