"""Assembly and direct solution of the coupled primal-dual system.

The discrete problem couples the primal field u_h (edge dofs fixed to the
projected Dirichlet data on Gamma_d) with a multiplier field lam_h (edge
dofs fixed to zero on the complement of Gamma_n):

    s(u_h, v) - b(v, lam_h) = 0                          for all test v,
    s(lam_h, w) + b(u_h, w) = (f, w_0) + <g2, w_b>_Gamma_n  for all test w.

After eliminating the fixed dofs and negating the first block row, the
free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] is symmetric indefinite.
solve condenses each triangle's interior dofs out (in an orthonormal
interior basis), factors the Schur matrix on the free edge dofs and
recovers the interiors.  The dense local algebra of that condensation is
done once per congruence class of the level's context (ops.classes: two
on the uniform mesh under a constant coefficient, else one per
triangle), and each triangle reads its class's tables.  The Schur matrix is
assembled straight in the mesh's nested-dissection order
(Mesh.nested_dissection), the u and lam dofs of one edge adjacent, and
factored in that order in symmetric mode.  The kernel is decided first,
from polynomial candidates (_Condensation.kernel_dims): a primal one
raises SingularSystemError; along one multiplier (gauge) direction the
Schur LU solves the compatible data (I - v v^T) rhs, v its own null
direction, and projects v out; two or more send the solve to the natural
free-dof matrix and a bordered one, with SuperLU's defaults.  That
natural matrix (SaddleSystem.matrix) is assembled only where it is read
(that path and the matrix export): solve checks its residual, and takes
the 1-norm that scales it, from the per-triangle local matrices, so the
check also tests the class tables on every level.  condition_estimate
reads the same norm and the inverse of solve's LU.  The
level's LocalOperators is the one source of mesh, degree, dof layout and
local matrices: assemble takes it, and the assembled system keeps it as
ops for solve to read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import WeakFunction, edge_basis, l2_project_edge, sample, tri_exponents
from .weakops import LocalOperators

__all__ = [
    "SingularSystemError",
    "SaddleSystem",
    "assemble",
    "solve",
    "condition_estimate",
    "matrix_to_coordinate_text",
]

# relative residual bound accepted from the direct solver
_RESIDUAL_TOL = 1e-9
# a singular value of kernel_dims's stacked matrix at or below
# _KERNEL_CUTOFF ||Schur||_1 counts as a kernel direction.  Measured
# (sigma / ||Schur||_1): kernel directions at most 2.3e-16 over the catalog
# at n <= 8 and 2.9e-16 on t3, k=3, n=32 (3.3e-16 at n=64), the others at
# least 1.4e-5 there (t1, k=3, n=1) and 2.0e-5 on t1, k=3, n=32 (5.9e-6 at
# n=64).  One regular system closes in on the cutoff: on t3's sides
# a = exp(y) gives div(a grad x) = 0, so the continuous multiplier problem
# has the kernel x, which the discrete one approaches as h^(k+1): at k=3
# the ratio reads 1.3e-8, 8.3e-10, 5.3e-11 and 3.3e-12 at n = 8, 16, 32,
# 64, and would count as a kernel from about n=128 on
_KERNEL_CUTOFF = 1e-12
# largest system whose inverse condition_estimate forms exactly
_DENSE_COND_LIMIT = 800
# SuperLU options for a matrix numbered in the mesh's nested-dissection
# order (Mesh.nested_dissection): no column permutation, and pivots taken on
# the diagonal, in symmetric mode, while they pass a 0.1 threshold
_ORDERED_LU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.1,
                   options=dict(SymmetricMode=True))


class SingularSystemError(RuntimeError):
    """The discrete system is singular: the ill-posedness diagnostic
    raised when the factorization hits a zero pivot or the solution is
    not a valid one."""


@dataclass
class SaddleSystem:
    """Assembled free-dof system, ordered primal block then multiplier
    block, plus the lift data needed to reconstruct full fields.  Mesh,
    degree and dof layout are those of ops.  The free-dof matrix itself is
    built from the local matrices on first read of matrix."""

    rhs: np.ndarray
    ops: LocalOperators              # the level's context, whose local matrices solve condenses
    u_free: np.ndarray               # free dofs of u and of lam in the layout ops.dofmap
    lam_free: np.ndarray
    u_fixed_values: np.ndarray       # full-length vector, zero on free dofs
    positions: tuple                 # free-dof positions (T, nloc) of u and lam, -1 where fixed

    @property
    def n_free(self):
        return len(self.u_free) + len(self.lam_free)

    @cached_property
    def matrix(self):
        """The free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] in CSC, the
        format the sparse LU takes, assembled straight from the stacked
        local matrices and kept once built."""
        return _sparse_sum(_blocks(self.ops, self.positions), (self.n_free, self.n_free))


def _blocks(ops, positions):
    """The free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] as blocks of
    stacked local matrices: (row positions, column positions, values),
    positions the (T, nloc) positions of the local u and lam dofs."""
    pu, pl = positions
    stab, diff = ops.stabilizers, ops.diffusion_forms
    return ((pu, pu, -stab), (pu, pl, diff), (pl, pu, diff), (pl, pl, stab))


def _positions(ops, dofs, offset=0):
    """Position (T, nloc) of every local dof in a block that numbers dofs
    from offset on, -1 outside it."""
    pos = np.full(ops.dofmap.n_dofs, -1, dtype=np.int32)
    pos[dofs] = offset + np.arange(len(dofs))
    return pos[ops.cell_dofs]


def _nested_numbering(system):
    """The free edge unknowns numbered in the mesh's nested-dissection
    order, each edge's free u dofs followed by its free lam dofs.  Returns
    the natural free-dof index of each numbered unknown, in order, and the
    int32 positions (T, 2 nloc_edge) of each triangle's local edge dofs, u
    then lam, -1 where fixed."""
    ops, nf = system.ops, len(system.u_free)
    dofmap = ops.dofmap
    n_int, edim = dofmap.n_interior, dofmap.edge_dim
    # an edge's u slots start where the edges before it end; its lam slots follow
    rank = np.empty(ops.mesh.n_edges, dtype=np.int64)
    rank[ops.mesh.nested_dissection] = np.arange(len(rank))
    u_slot = ((2 * edim * rank)[:, None] + np.arange(edim)).ravel()
    slots = (u_slot, u_slot + edim)
    # interior dofs are never fixed and lead each field's free dofs
    dofs = (system.u_free[n_int:] - n_int, system.lam_free[n_int:] - n_int)
    taken = np.zeros(2 * len(u_slot), dtype=bool)
    for slot, free in zip(slots, dofs):
        taken[slot[free]] = True
    place = (np.cumsum(taken) - 1).astype(np.int32)
    numbered = np.empty(len(dofs[0]) + len(dofs[1]), dtype=np.int64)
    positions = []
    for slot, free, offset in zip(slots, dofs, (n_int, nf + n_int)):
        pos = np.full(len(u_slot), -1, dtype=np.int32)
        pos[free] = place[slot[free]]
        numbered[pos[free]] = offset + np.arange(len(free))
        positions.append(pos[ops.cell_dofs[:, dofmap.interior_dim:] - n_int])
    return numbered, np.concatenate(positions, axis=1)


def _scatter(pos, vals, n):
    """Length-n vector of the sums of vals at positions pos; values at a
    -1 position are dropped."""
    keep = pos >= 0
    return np.bincount(pos[keep], weights=vals[keep], minlength=n)


def _sparse_sum(blocks, shape):
    """Sum of stacked local matrices as a CSC matrix, each block a triple
    of row positions (T, m), column positions (T, m') and values
    (T, m, m'); entries at a -1 position are dropped.  The result is
    scipy's COO to CSC conversion bit for bit: row indices sorted within
    each column, duplicates summed, explicit zeros kept, so SuperLU sees
    the same matrix.  A global entry sums at most two local ones (an
    edge has at most two triangles), so it does not depend on the order of
    the sum."""
    parts = []
    for rows, cols, vals in blocks:
        # the mask by broadcasting the small per-triangle masks: cheaper
        # than comparing the repeated index arrays
        keep = ((rows >= 0)[:, :, None] & (cols >= 0)[:, None, :]).ravel()
        parts.append((np.repeat(rows, cols.shape[1], axis=1).ravel()[keep],
                      np.tile(cols, (1, rows.shape[1])).ravel()[keep], vals.ravel()[keep]))
    r, c, v = (np.concatenate(part) if len(part) > 1 else part[0] for part in zip(*parts))
    # one conversion of the transpose to CSR, read as CSC
    return sp.csr_matrix((v, (c, r)), shape=shape[::-1]).T


def assemble(config, case, ops):
    """Assemble the saddle-point system for one manufactured case.

    The right-hand side collects (f, w_0) over elements and <g2, w_b> over
    the Gamma_n edges; the projected Dirichlet data Q_b g1 is eliminated
    into the right-hand side.  Mesh, degree, dof layout, quadrature and
    local matrices come from ops, the level's context; a config of another
    mesh object, or a case whose coefficient is not ops.a, raises
    ValueError.
    """
    mesh = ops.mesh
    ops.check_config(config)
    if case.a is not ops.a:
        raise ValueError("discretization context built for another coefficient than the case's")
    if config.gamma_n_edges.size and case.grad_u is None:
        raise ValueError("case provides no flux data g2 but Gamma_n is nonempty")

    dofmap = ops.dofmap
    n_dofs = dofmap.n_dofs
    rhs_full = np.zeros(n_dofs)
    # matrix-vector products per triangle and edge, as a loop would form them
    load = ops.vk.swapaxes(1, 2) @ (ops.tri_wts * sample(case.f, ops.tri_pts))[..., None]
    rhs_full[: dofmap.n_interior] = load.ravel()
    gn = config.gamma_n_edges
    if gn.size:
        pts, wts = ops.edge_rule(gn)
        # the one adjacent triangle of a boundary edge gives its outward normal
        slot = mesh.edge_slots[gn, 0]
        normals = np.repeat(ops.normals.reshape(-1, 2)[slot], wts.shape[1], axis=0)
        g2 = case.g2(pts[..., 0].ravel(), pts[..., 1].ravel(), normals)
        rhs_full[dofmap.edge_block(gn)] = (ops.beta.T @ (wts * g2.reshape(wts.shape))[..., None])[..., 0]

    gd = config.gamma_d_edges
    u_fixed_values = np.zeros(n_dofs)
    if gd.size:
        u_fixed_values[dofmap.edge_block(gd)] = l2_project_edge(case.g1, ops, gd)

    u_fixed, lam_fixed = dofmap.fixed_masks(config)
    uf, lf, up = np.flatnonzero(~u_fixed), np.flatnonzero(~lam_fixed), np.flatnonzero(u_fixed)
    pu, pl, pp = _positions(ops, uf), _positions(ops, lf, len(uf)), _positions(ops, up)
    # the lift columns [[S_fp], [K_gp]] (p: fixed primal dofs) in CSR, so
    # that the product sums each row in ascending column order: the rhs
    # feeds the t3-t5 k=3 levels, whose reference values store roundoff
    lift_cols = _sparse_sum([(pu, pp, ops.stabilizers), (pl, pp, ops.diffusion_forms)],
                            (len(uf) + len(lf), len(up))).tocsr()
    lifted = lift_cols @ u_fixed_values[up]
    rhs = np.concatenate([lifted[: len(uf)], rhs_full[lf] - lifted[len(uf):]])
    return SaddleSystem(rhs=rhs, ops=ops, u_free=uf, lam_free=lf,
                        u_fixed_values=u_fixed_values, positions=(pu, pl))


def _factor(matrix, **options):
    """Sparse LU with the SuperLU options given (its defaults without any)."""
    try:
        return spla.splu(matrix, **options)
    except RuntimeError as exc:
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc


def _one_norm(matrix):
    """Largest absolute column sum, reduced over each CSC column's stored
    entries; the inf-norm up to roundoff for these symmetric matrices.  An
    empty column reads the next column's first entry (or the appended 0),
    never more than the largest sum."""
    matrix = matrix.tocsc()
    return np.add.reduceat(np.append(np.abs(matrix.data), 0.0), matrix.indptr[:-1]).max()


def _local_product(system, x):
    """A x for a free-dof vector x without the matrix A: each triangle's
    local matrices applied to its part of x, summed into the free dofs."""
    out = np.zeros(system.n_free)
    for rows, cols, vals in _blocks(system.ops, system.positions):
        local = vals @ np.where(cols >= 0, x[cols], 0.0)[..., None]
        out += _scatter(rows, local[..., 0], system.n_free)
    return out


def _local_column_sums(system):
    """Absolute column sums of the free-dof matrix, the largest of which is
    its 1-norm, from the local matrices.  A global entry sums two local
    ones only where its row and column both lie in the block of one
    interior edge, which its two triangles hold at the same local dofs;
    there the sum of the local absolute values is corrected by
    |s1 + s2| - |s1| - |s2|."""
    mesh, dofmap = system.ops.mesh, system.ops.dofmap
    dim, edim = dofmap.interior_dim, dofmap.edge_dim
    slots = mesh.edge_slots[~mesh.is_boundary_edge]
    tris = (slots // 3)[..., None, None]
    local = dim + (slots % 3)[..., None] * edim + np.arange(edim)   # (E, side, edim)
    # per field (u, lam): positions of the local dofs and of side 0's edge block
    pos = system.positions
    edge_pos = [p[tris[:, 0, :, 0], local[:, 0]] for p in pos]
    free, edge_free = ([(p >= 0).astype(float)[..., None, :] for p in ps] for ps in (pos, edge_pos))
    sums = np.zeros(system.n_free)
    # one pass per local matrix rather than per block of _blocks: S fills the
    # (u, u) block, negated, and the (lam, lam) block; B the other two
    for vals, blocks in ((system.ops.stabilizers, ((0, 0), (1, 1))),
                         (system.ops.diffusion_forms, ((0, 1), (1, 0)))):
        s1, s2 = vals[tris, local[..., None], local[..., None, :]].swapaxes(0, 1)
        excess = np.abs(s1 + s2) - np.abs(s1) - np.abs(s2)
        absolute = np.abs(vals)
        for row, col in blocks:
            sums += _scatter(pos[col], (free[row] @ absolute)[..., 0, :], system.n_free)
            sums += _scatter(edge_pos[col], (edge_free[row] @ excess)[..., 0, :], system.n_free)
    return sums


def _project_out(vec, unit):
    """vec with its component along the unit vector removed."""
    return vec - (vec @ unit) * unit


def _null_direction(lu):
    """Unit vector of one inverse-iteration step on lu from the constant
    vector: on a singular LU, the LU's own null direction, which a
    projected solve on it must project along."""
    n = lu.shape[0]
    probe = lu.solve(np.full(n, 1.0 / np.sqrt(n)))
    return probe / np.linalg.norm(probe)


class _Condensation:
    """Static condensation of a system onto its free edge dofs.  Interior
    dofs couple only within their triangle, so each triangle's coupled
    local matrix [[-S, B], [B, S]], split into interior (I) and edge (E)
    dofs, gives the local Schur block M_EE - M_EI M_II^-1 M_IE; matrix sums
    them over the free edge dofs, numbered in nested-dissection order.  The
    interior block is eliminated in an orthonormal interior basis R = L^-T,
    L L^T = mass_k / area (block-diagonal over u_0 and lam_0): at k = 1, 2,
    3 it takes the local block's condition number from 37, 2.5e4 and 3.9e6
    to 2.1, 6.1 and 16.

    The dense algebra is done once per congruence class (ops.classes), on
    the local matrices of the class's representative: the tables basis R,
    inverse M_II^-1 (orthonormal coordinates) and coupling C =
    M_II^-1 M_IE hold one row per class, and each triangle reads the row of
    its class.  With one class per triangle this is the triangle-by-triangle
    condensation, and the Schur matrix is the same bit for bit."""

    def __init__(self, system):
        ops, nf = system.ops, len(system.u_free)
        dofmap, mesh = ops.dofmap, ops.mesh
        self.ops = ops
        self.free = np.concatenate([system.u_free, system.lam_free])
        dim, n_tri = dofmap.interior_dim, mesh.n_triangles
        interior, edge = slice(None, dim), slice(dim, None)
        self.members = ops.class_members
        reps = self.members[:, 0]

        def coupled(rows, cols):
            # the rows x cols block of [[-S, B], [B, S]] of each representative,
            # fields stacked u then lam
            stab = ops.stabilizers[:, rows, cols][reps]
            diff = ops.diffusion_forms[:, rows, cols][reps]
            return np.block([[-stab, diff], [diff, stab]])

        chol = np.linalg.cholesky(ops.mass_k[reps] / mesh.tri_areas[reps, None, None])
        self.basis = np.zeros((len(reps), 2 * dim, 2 * dim))
        self.basis[:, :dim, :dim] = self.basis[:, dim:, dim:] = np.linalg.inv(chol).swapaxes(1, 2)
        basis_t = self.basis.swapaxes(1, 2)
        # the interior block and the interior rows, in the orthonormal basis
        inner = basis_t @ coupled(interior, interior) @ self.basis
        self.inverse = np.linalg.inv(inner)
        coupling = basis_t @ coupled(interior, edge)
        # C = M_II^-1 M_IE, so the local Schur block is M_EE - M_IE^T C
        self.coupling = np.linalg.solve(inner, coupling)
        schur = coupled(edge, edge) - coupling.swapaxes(1, 2) @ self.coupling
        # free-dof positions of the unknowns of matrix, the free edge dofs
        self.numbered, self.edge_pos = _nested_numbering(system)
        self.primal = self.numbered < nf
        n_edge = len(self.numbered)
        self.matrix = _sparse_sum([(self.edge_pos, self.edge_pos, schur[ops.classes])],
                                  (n_edge, n_edge))
        # free-dof positions: every interior dof is free and leads its block
        cells = dofmap.interior_block(np.arange(n_tri))
        self.interior = np.concatenate([cells, nf + cells], axis=1)

    def _by_class(self, rows, tables):
        """Each triangle's row vector rows[t] times its class's matrix,
        tables (C, m, m'): the rows (T, m'), one product batched over the
        classes."""
        out = np.empty((len(rows), tables.shape[-1]))
        out[self.members] = rows[self.members] @ tables
        return out

    def solve(self, lu, rhs):
        """Free-dof solution of A x = rhs, lu factoring the Schur matrix:
        condense rhs, solve for the edge dofs, recover the interiors."""
        y = self._by_class(rhs[self.interior], self.basis)
        shift = self._by_class(y, self.coupling)
        edge_rhs = rhs[self.numbered] - _scatter(self.edge_pos, shift, len(self.numbered))
        return self.expand(lu.solve(edge_rhs), self._by_class(y, self.inverse.swapaxes(1, 2)))

    def expand(self, x_edge, z=0.0):
        """Free-dof vector with edge part x_edge and each triangle's
        interior from its local equations, M_II^-1 (b_I - M_IE x_E), given
        M_II^-1 b_I in orthonormal coordinates as z (0: no interior data)."""
        local = np.where(self.edge_pos >= 0, x_edge[self.edge_pos], 0.0)
        interior = z - self._by_class(local, self.coupling.swapaxes(1, 2))
        x = np.empty(len(self.numbered) + self.interior.size)
        x[self.numbered] = x_edge
        x[self.interior] = self._by_class(interior, self.basis.swapaxes(1, 2))
        return x

    def kernel_dims(self):
        """Dimensions (primal, multiplier) of the kernel of matrix.  A
        kernel vector (u, lam) has S u = S lam = 0, so (u, 0) and (0, lam)
        are kernel vectors too, on this catalog each Q_h p for a p of
        degree <= k.  Per field, the monomials' Q_b p, orthonormalized over
        all edge dofs, give X on its free edge unknowns (0 on the other
        field's) and X_fixed on its fixed edge dofs; counted are the
        singular values of [matrix X; X_fixed] at or below
        _KERNEL_CUTOFF ||matrix||_1."""
        ops = self.ops
        mesh, k, n_int = ops.mesh, ops.k, ops.dofmap.n_interior
        # a monomial restricted to an edge lies in P_k: interpolating it at
        # k + 1 points of the edge coordinate gives Q_b p exactly
        t = np.linspace(-0.5, 0.5, k + 1)
        ends = mesh.vertices[mesh.edges]
        pts = mesh.edge_midpoints[:, None] + t[:, None] * (ends[:, 1] - ends[:, 0])[:, None]
        # the monomials from products of the coordinates, not pow: only the
        # counts below are read, and they keep their 100x margins
        powers = [np.ones_like(pts), pts]
        for _ in range(k - 1):
            powers.append(powers[-1] * pts)
        values = np.stack([powers[i][..., 0] * powers[j][..., 1] for i, j in tri_exponents(k)],
                          axis=-1)
        cand = np.linalg.qr((np.linalg.inv(edge_basis(k).eval(t)) @ values)
                            .reshape(-1, values.shape[-1]))[0]
        dofs = self.free[self.numbered] - n_int
        cutoff = _KERNEL_CUTOFF * _one_norm(self.matrix)
        fields = (self.primal, ~self.primal)
        # both fields' candidate columns side by side, in one sparse product
        x = np.zeros((len(dofs), 2, cand.shape[1]))
        for i, field in enumerate(fields):
            x[field, i] = cand[dofs[field]]
        product = (self.matrix @ x.reshape(len(dofs), -1)).reshape(x.shape)
        dims = []
        for i, field in enumerate(fields):
            fixed = np.ones(len(cand), dtype=bool)
            fixed[dofs[field]] = False
            sv = np.linalg.svd(np.vstack([product[:, i], cand[fixed]]), compute_uv=False)
            dims.append(int(np.count_nonzero(sv <= cutoff)))
        return tuple(dims)


def _schur_inverse(reduced, gauge_dim):
    """The inverse that the LU of reduced's Schur matrix with _ORDERED_LU
    applies to a free-dof vector, as a function, and the gauge kernel
    vector v (None without one), for a gauge kernel of dimension gauge_dim,
    0 or 1: b -> A^-1 b, or b -> P A^-1 P b with P = I - v v^T."""
    lu = _factor(reduced.matrix, **_ORDERED_LU)
    if not gauge_dim:
        return lambda b: reduced.solve(lu, b), None
    # the full kernel vector, unit in the original coordinates, so the
    # representative is the full path's: v.x = 0
    null_dir = reduced.expand(_null_direction(lu))
    null_dir /= np.linalg.norm(null_dir)
    return (lambda b: _project_out(reduced.solve(lu, _project_out(b, null_dir)), null_dir),
            null_dir)


def _solve_full(matrix, rhs, gauge_dim):
    """Solution and gauge kernel vector (None without one) from an LU of
    the full free-dof matrix with SuperLU's defaults, for a gauge kernel
    of dimension gauge_dim: the path of two or more directions, and the
    tests' reference for the condensed one."""
    lu = _factor(matrix)
    if not gauge_dim:
        return lu.solve(rhs), None
    null_dir = _null_direction(lu)
    if gauge_dim == 1:
        # the symmetric matrix's range is orthogonal to the kernel, so the
        # projected rhs is compatible data that the singular LU solves;
        # projecting the result gives the minimal representative across
        # the multiplier gauge
        return _project_out(lu.solve(_project_out(rhs, null_dir)), null_dir), null_dir
    # two or more (t3-t5 at k=3): border the LU's null direction, which
    # regularizes the factorization along it and pins its component to
    # zero; the others are left to roundoff
    del lu  # one factorization alive at a time
    n = matrix.shape[0]
    col = sp.csc_matrix(null_dir.reshape(n, 1))
    bordered = sp.bmat([[matrix, col], [col.T, None]], format="csc")
    return _factor(bordered).solve(np.append(rhs, 0.0))[:n], null_dir


def solve(system):
    """Factorize and solve; returns the primal and multiplier fields with
    the fixed boundary values merged back in.  The kernel dimensions
    (_Condensation.kernel_dims) come before any factorization: a primal
    kernel raises SingularSystemError; up to one gauge direction factors
    the Schur matrix; two or more (t3-t5 at k = 3) free the condensation
    unfactored and factor the natural free-dof matrix, which only this
    path builds.  The residual check applies the local matrices."""
    ops, nf = system.ops, len(system.u_free)
    reduced = _Condensation(system)
    primal_dim, gauge_dim = reduced.kernel_dims()
    if primal_dim:
        raise SingularSystemError("singular system: the primal field is not unique")
    if gauge_dim > 1:
        del reduced  # its arrays go before the full matrix is built
        x, null_dir = _solve_full(system.matrix, system.rhs, gauge_dim)
    else:
        inverse, null_dir = _schur_inverse(reduced, gauge_dim)
        x = inverse(system.rhs)
        del inverse  # its LU goes before the residual check
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("direct solver produced a non-finite solution")

    residual_vec = _local_product(system, x) - system.rhs
    if null_dir is not None:
        # the component along the kernel image is a data-compatibility
        # defect (quadrature-level), not a solver error
        residual_vec = _project_out(residual_vec, null_dir)
    residual = np.linalg.norm(residual_vec)
    norm = _local_column_sums(system).max()
    scale = np.linalg.norm(system.rhs) + norm * np.linalg.norm(x)
    if residual > _RESIDUAL_TOL * max(scale, 1e-300):
        raise SingularSystemError(
            f"solver residual {residual:.2e} exceeds {_RESIDUAL_TOL:.0e} * {scale:.2e}"
        )

    u_coeffs = system.u_fixed_values.copy()
    u_coeffs[system.u_free] = x[:nf]
    lam_coeffs = np.zeros(ops.dofmap.n_dofs)
    lam_coeffs[system.lam_free] = x[nf:]
    return (
        WeakFunction(ops.mesh, ops.k, u_coeffs, dofmap=ops.dofmap),
        WeakFunction(ops.mesh, ops.k, lam_coeffs, dofmap=ops.dofmap),
    )


def condition_estimate(system):
    """Estimate of the 1-norm condition number ||A||_1 ||A^-1||_1 of the
    free-dof matrix A, from the LU that solve factors.

    The kernel dimensions are solve's (_Condensation.kernel_dims), read
    before anything is factored.  A primal kernel, or a gauge kernel of
    two or more directions (t3-t5 at k = 3), gives +inf at once, and so
    does a failed factorization.  ||A||_1 is the exact norm that scales
    solve's residual check.  A^-1 is the inverse that solve applies
    (_schur_inverse); along one gauge direction v it is P A^-1 P with
    P = I - v v^T, so the estimate is that of the system solve solves, on
    the complement of v.  Up to _DENSE_COND_LIMIT free dofs the inverse is
    applied to every unit vector, above it the Higham-Tisseur 1-norm
    estimator applies it, from a fixed random state on every call."""
    reduced = _Condensation(system)
    primal_dim, gauge_dim = reduced.kernel_dims()
    if primal_dim or gauge_dim > 1:
        return math.inf
    try:
        inverse = _schur_inverse(reduced, gauge_dim)[0]
    except SingularSystemError:
        return math.inf
    n = system.n_free
    # A is symmetric, and so is the inverse; matmat hands matvec columns
    op = spla.LinearOperator((n, n), matvec=lambda b: inverse(b.ravel()),
                             rmatvec=lambda b: inverse(b.ravel()), dtype=float)
    if n <= _DENSE_COND_LIMIT:
        inv_norm = np.linalg.norm(op @ np.eye(n), 1)
    else:
        # the estimator draws its start vectors from numpy's global
        # generator: draw them from a fixed state and restore the caller's
        state = np.random.get_state()
        np.random.seed(0)
        try:
            inv_norm = spla.onenormest(op)
        finally:
            np.random.set_state(state)
    return float(_local_column_sums(system).max() * inv_norm)


def matrix_to_coordinate_text(matrix):
    """Coordinate text export: 'row col value' per entry, 0-based, sorted
    by row then column."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}"
        for i in order
    ]
    return "\n".join(lines) + ("\n" if lines else "")
