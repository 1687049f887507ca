"""Assembly and direct solution of the coupled primal-dual system.

The discrete problem couples the primal field u_h (edge dofs fixed to the
projected Dirichlet data on Gamma_d) with a multiplier field lam_h (edge
dofs fixed to zero on the complement of Gamma_n):

    s(u_h, v) - b(v, lam_h) = 0                          for all test v,
    s(lam_h, w) + b(u_h, w) = (f, w_0) + <g2, w_b>_Gamma_n  for all test w.

After eliminating the fixed dofs and negating the first block row, the
free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] is symmetric indefinite.
At k = 1 it is factorized directly.  At k >= 2 each triangle's interior
dofs are condensed out (in an orthonormal interior basis) and the Schur
matrix on the free edge dofs is factorized; the interiors are recovered
triangle by triangle.  When the multiplier has a one-dimensional gauge
kernel v, the same factorization solves the compatible data
(I - v v^T) rhs and the kernel component is projected out of the result;
only a second kernel direction sends the solve to the full matrix and a
bordered one.  The free-dof matrix is assembled only where it is factored
or read (k = 1, that fallback, condition_estimate and the matrix export):
solve checks its residual, and takes the 1-norm that scales it, from the
local matrices triangle by triangle.  The level's LocalOperators is the
one source of mesh, degree, dof layout and local matrices: assemble takes
it, and the assembled system keeps it as ops for solve to read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import WeakFunction, l2_project_edge, sample
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
# relative residual ||A v||_2 / ||A||_1 of the normalized inverse-iteration
# probe v at or below which v is taken as a kernel vector; A is the matrix
# solve factors first, the Schur matrix at k >= 2.  Measured over the
# catalog for n <= 16 (n <= 32 at k=1) and t1/t3 at k=2, 3, n=32: gauge
# systems reach at most 2.9e-16 (t3-t5, k=1, n=32; 2.4e-16 at k=3, n=32),
# regular ones 2.8e-12 (t1, k=3, n=32; the full matrix reads 6.8e-13), so
# the cutoff keeps 35x and 280x.  The regular side still falls about 75x
# per doubling at k=3: t1 at k=3, n=64 would read about 4e-14.  The second,
# projected probe on t3-t5 reads at most 4.6e-16 where the kernel is
# two-dimensional (k=3, n=32) and at least 7.6e-11 where it is not (k=2,
# n=32; 1.4e-8 at n=16)
_KERNEL_TOL = 1e-14
# largest system whose inverse condition_estimate forms exactly
_DENSE_COND_LIMIT = 800
# SuperLU options for k=1: minimum degree on A+A^T in symmetric mode, an
# ordering for a symmetric matrix such as this one.  k >= 2 keeps SuperLU's
# defaults (COLAMD, partial pivoting).  LU entries and factor time of t6,
# one thread, best of three (one run where the symmetric ordering collapses):
#   k, n | symmetric, threshold 0.1 | defaults             | verdict
#   1, 32 | 1.66M, 0.15 s           | 8.06M, 0.60 s        | symmetric wins
#   2, 16 | 22.1M, 8.4 s            | 4.38M, 0.30 s        | symmetric collapses
#   3, 16 | 85.4M, 69 s             | 9.56M, 0.70 s        | symmetric collapses
# The interior diagonal pivots pass the 0.1 threshold at k=1 only: the
# local interior block's condition number is 37, 2.5e4 and 3.9e6 at k=1, 2,
# 3.  Lower thresholds do not rescue k >= 2: 0.01 still takes 87.1M, 68 s at
# k=3, and at k=2 it is fast (0.83M, 0.05 s) but moves t1/t2 l2_e0 at n=8
# from 7.5e-12 to 2.5e-10
_SYMMETRIC_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
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
        return _coo(_blocks(self), (self.n_free, self.n_free)).tocsc()


def _blocks(system):
    """The free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] as blocks of
    stacked local matrices: (row positions, column positions, values)."""
    pu, pl = system.positions
    stab, diff = system.ops.stabilizers, system.ops.diffusion_forms
    return ((pu, pu, -stab), (pu, pl, diff), (pl, pu, diff), (pl, pl, stab))


def _positions(ops, dofs, offset=0):
    """Position (T, nloc) of every local dof in a block that numbers dofs
    from offset on, -1 outside it."""
    pos = np.full(ops.dofmap.n_dofs, -1, dtype=np.int32)
    pos[dofs] = offset + np.arange(len(dofs))
    return pos[ops.cell_dofs]


def _scatter(pos, vals, n):
    """Length-n vector of the sums of vals at positions pos; values at a
    -1 position are dropped."""
    keep = pos >= 0
    return np.bincount(pos[keep], weights=vals[keep], minlength=n)


def _coo(blocks, shape):
    """Sum of stacked local matrices, each block a triple of row positions
    (T, m), column positions (T, m') and values (T, m, m'); entries at a -1
    position are dropped.  A global entry sums at most two local ones (an
    edge has at most two triangles), so it does not depend on the order of
    the sum."""
    triplets = [[], [], []]
    for rows, cols, vals in blocks:
        r = np.repeat(rows, cols.shape[1], axis=1).ravel()
        c = np.tile(cols, (1, rows.shape[1])).ravel()
        keep = (r >= 0) & (c >= 0)
        for out, part in zip(triplets, (r, c, vals.ravel())):
            out.append(part[keep])
    r, c, v = (np.concatenate(parts) for parts in triplets)
    return sp.coo_matrix((v, (r, c)), shape=shape)


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
    if config.mesh is not mesh:
        raise ValueError("boundary configuration belongs to another mesh than the context")
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
        # the one adjacent triangle of a boundary edge gives its outward normal
        slot = mesh.edge_slots[gn, 0]
        pts = ops.edge_pts.reshape(-1, *ops.edge_pts.shape[2:])[slot]
        wts = ops.edge_wts.reshape(-1, ops.edge_wts.shape[-1])[slot]
        normals = np.repeat(ops.normals.reshape(-1, 2)[slot], wts.shape[1], axis=0)
        g2 = case.g2(pts[..., 0].ravel(), pts[..., 1].ravel(), normals)
        rhs_full[dofmap.edge_block(gn)] = (ops.beta.T @ (wts * g2.reshape(wts.shape))[..., None])[..., 0]

    gd = config.gamma_d_edges
    u_fixed_values = np.zeros(n_dofs)
    if gd.size:
        u_fixed_values[dofmap.edge_block(gd)] = l2_project_edge(case.g1, mesh, gd, ops.k)

    u_fixed, lam_fixed = dofmap.fixed_masks(config)
    uf, lf, up = np.flatnonzero(~u_fixed), np.flatnonzero(~lam_fixed), np.flatnonzero(u_fixed)
    pu, pl, pp = _positions(ops, uf), _positions(ops, lf, len(uf)), _positions(ops, up)
    # the lift columns [[S_fp], [K_gp]] (p: fixed primal dofs)
    lift_cols = _coo([(pu, pp, ops.stabilizers), (pl, pp, ops.diffusion_forms)],
                     (len(uf) + len(lf), len(up))).tocsr()
    lifted = lift_cols @ u_fixed_values[up]
    rhs = np.concatenate([lifted[: len(uf)], rhs_full[lf] - lifted[len(uf):]])
    return SaddleSystem(rhs=rhs, ops=ops, u_free=uf, lam_free=lf,
                        u_fixed_values=u_fixed_values, positions=(pu, pl))


def _factor(matrix, k):
    """Sparse LU of a free-dof matrix of degree k; an unknown degree (None)
    takes SuperLU's defaults, as k >= 2 does."""
    try:
        return spla.splu(matrix, **(_SYMMETRIC_LU if k == 1 else {}))
    except RuntimeError as exc:
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc


def _one_norm(matrix):
    """Largest absolute column sum, reduced per CSC column; the inf-norm up
    to roundoff for these symmetric matrices."""
    return abs(matrix).sum(axis=0).max()


def _local_product(system, x):
    """A x for a free-dof vector x without the matrix A: each triangle's
    local matrices applied to its part of x, summed into the free dofs."""
    out = np.zeros(system.n_free)
    for rows, cols, vals in _blocks(system):
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


def _gauge_kernel(lu, matrix, n_primal, norm, found=None):
    """Kernel test shared by solve and condition_estimate (norm: the 1-norm
    of matrix): None for a regular matrix, else the unit kernel vector of a
    pure multiplier gauge.  Given found, a unit kernel vector already
    known, the test looks for a second kernel direction orthogonal to it.
    Raises SingularSystemError when the factorization is unusable or the
    kernel reaches the first n_primal (primal) dofs."""
    # an exact kernel dominates one inverse-iteration step, whose residual
    # then falls to roundoff.  A kernel confined to the multiplier block is
    # a pure gauge: the primal field stays unique.  In the catalog only
    # t3-t5 have one, lam = x (zero on the left side, the one side outside
    # Gamma_n, and flux-free on top, the one side outside Gamma_d), and at
    # k=3 a second one, lam = x (y-1)^2 - x^3/3
    n = lu.shape[0]
    start = np.full(n, 1.0 / np.sqrt(n))
    if found is None:
        probe = lu.solve(start)
    else:
        probe = _project_out(lu.solve(_project_out(start, found)), found)
    size = np.linalg.norm(probe)
    if not np.isfinite(size) or size == 0.0:
        raise SingularSystemError("singular system: factorization is unusable")
    null_dir = probe / size
    residual = np.linalg.norm(matrix @ null_dir) / norm
    if residual > _KERNEL_TOL:
        return None
    if np.linalg.norm(null_dir[:n_primal]) > 1e-6:
        raise SingularSystemError("singular system: the primal field is not "
                                  f"unique (kernel probe residual {residual:.2e})")
    return null_dir


class _Condensation:
    """Static condensation of a system onto its free edge dofs.  Interior
    dofs couple only within their triangle, so each triangle's coupled
    local matrix [[-S, B], [B, S]], split into interior (I) and edge (E)
    dofs, gives the local Schur block M_EE - M_EI M_II^-1 M_IE; matrix sums
    them over the free edge dofs, primal ones first.  The interior block is
    eliminated in an orthonormal interior basis R = L^-T, L L^T = mass_k /
    area (block-diagonal over u_0 and lam_0): at k = 2, 3 it takes the
    local block's condition number from 2.5e4 and 3.9e6 to 6.1 and 16."""

    def __init__(self, system):
        ops, nf = system.ops, len(system.u_free)
        dofmap, mesh = ops.dofmap, ops.mesh
        n_int, dim = dofmap.n_interior, dofmap.interior_dim
        n_tri = mesh.n_triangles
        interior, edge = slice(None, dim), slice(dim, None)

        def coupled(rows, cols):
            # the rows x cols block of [[-S, B], [B, S]], fields stacked u then lam
            stab, diff = ops.stabilizers[:, rows, cols], ops.diffusion_forms[:, rows, cols]
            return np.block([[-stab, diff], [diff, stab]])

        chol = np.linalg.cholesky(ops.mass_k / mesh.tri_areas[:, None, None])
        self.basis = np.zeros((n_tri, 2 * dim, 2 * dim))
        self.basis[:, :dim, :dim] = self.basis[:, dim:, dim:] = np.linalg.inv(chol).swapaxes(1, 2)
        basis_t = self.basis.swapaxes(1, 2)
        # the interior block and the interior rows, in the orthonormal basis
        self.inner = basis_t @ coupled(interior, interior) @ self.basis
        coupling = basis_t @ coupled(interior, edge)
        # C = M_II^-1 M_IE, so the local Schur block is M_EE - M_IE^T C
        self.coupling = np.linalg.solve(self.inner, coupling)
        schur = coupled(edge, edge) - coupling.swapaxes(1, 2) @ self.coupling
        self.edge_pos = np.concatenate([
            _positions(ops, system.u_free[n_int:])[:, dim:],
            _positions(ops, system.lam_free[n_int:], nf - n_int)[:, dim:]], axis=1)
        self.n_primal = nf - n_int
        n_edge = system.n_free - 2 * n_int
        self.matrix = _coo([(self.edge_pos, self.edge_pos, schur)], (n_edge, n_edge)).tocsc()
        # free-dof positions: every interior dof is free and leads its block
        cells = dofmap.interior_block(np.arange(n_tri))
        self.interior = np.concatenate([cells, nf + cells], axis=1)
        self.edges = np.r_[n_int:nf, nf + n_int:system.n_free]

    def solve(self, lu, rhs):
        """Free-dof solution of A x = rhs, lu factoring the Schur matrix:
        condense rhs, solve for the edge dofs, recover the interiors."""
        y = np.einsum("tji,tj->ti", self.basis, rhs[self.interior])
        shift = np.einsum("tji,tj->ti", self.coupling, y)
        edge_rhs = rhs[self.edges] - _scatter(self.edge_pos, shift, len(self.edges))
        return self.expand(lu.solve(edge_rhs), np.linalg.solve(self.inner, y[..., None])[..., 0])

    def expand(self, x_edge, z=0.0):
        """Free-dof vector with edge part x_edge and each triangle's
        interior from its local equations, M_II^-1 (b_I - M_IE x_E), given
        M_II^-1 b_I in orthonormal coordinates as z (0: no interior data)."""
        local = np.where(self.edge_pos >= 0, x_edge[self.edge_pos], 0.0)
        interior = z - np.einsum("tij,tj->ti", self.coupling, local)
        x = np.empty(len(self.edges) + self.interior.size)
        x[self.edges] = x_edge
        x[self.interior] = np.einsum("tij,tj->ti", self.basis, interior)
        return x


def _solve_full(matrix, rhs, k, n_primal, norm):
    """Solution and gauge kernel vector (None without one) from an LU of the
    full free-dof matrix: the path at k = 1 and of a two-dimensional gauge
    kernel, and the reference for the condensed one."""
    lu = _factor(matrix, k)
    null_dir = _gauge_kernel(lu, matrix, n_primal, norm)
    if null_dir is None:
        x = lu.solve(rhs)
    elif _gauge_kernel(lu, matrix, n_primal, norm, found=null_dir) is None:
        # one gauge direction: the symmetric matrix's range is orthogonal
        # to it, so the projected rhs is compatible data that the singular
        # LU solves; projecting the result gives the minimal representative
        # across the multiplier gauge
        x = _project_out(lu.solve(_project_out(rhs, null_dir)), null_dir)
    else:
        # a second kernel direction (t3-t5 at k=3): border the one found,
        # which regularizes the factorization along it and pins its
        # component to zero; the other is left to roundoff
        del lu  # one factorization alive at a time
        n = matrix.shape[0]
        col = sp.csc_matrix(null_dir.reshape(n, 1))
        bordered = sp.bmat([[matrix, col], [col.T, None]], format="csc")
        x = _factor(bordered, k).solve(np.append(rhs, 0.0))[:n]
    return x, null_dir


def _solve_condensed(system):
    """Solution and gauge kernel vector as _solve_full gives them, from an
    LU of the Schur matrix on the free edge dofs; None when the Schur
    matrix has a second gauge direction, which the full path handles."""
    cond = _Condensation(system)
    schur, n_primal = cond.matrix, cond.n_primal
    norm = _one_norm(schur)
    lu = _factor(schur, system.ops.k)
    edge_dir = _gauge_kernel(lu, schur, n_primal, norm)
    if edge_dir is None:
        return cond.solve(lu, system.rhs), None
    if _gauge_kernel(lu, schur, n_primal, norm, found=edge_dir) is not None:
        return None
    # the full kernel vector, unit in the original coordinates, so the
    # representative is the full path's: v.x = 0
    null_dir = cond.expand(edge_dir)
    null_dir /= np.linalg.norm(null_dir)
    return _project_out(cond.solve(lu, _project_out(system.rhs, null_dir)), null_dir), null_dir


def solve(system):
    """Factorize and solve; returns the primal and multiplier fields with
    the fixed boundary values merged back in.  At k >= 2 the interior dofs
    are condensed out and the edge-dof Schur matrix is factored; k = 1, and
    a two-dimensional gauge kernel (t3-t5 at k = 3), factor the full
    free-dof matrix, which only these paths build.  The residual check
    applies the local matrices."""
    ops = system.ops
    norm = _local_column_sums(system).max()
    nf = len(system.u_free)
    # the condensed path returns None, freeing its LU, before the full one starts
    solution = _solve_condensed(system) if ops.k >= 2 else None
    if solution is None:
        solution = _solve_full(system.matrix, system.rhs, ops.k, nf, norm)
    x, null_dir = solution
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("direct solver produced a non-finite solution")

    residual_vec = _local_product(system, x) - system.rhs
    if null_dir is not None:
        # the component along the kernel image is a data-compatibility
        # defect (quadrature-level), not a solver error
        residual_vec = _project_out(residual_vec, null_dir)
    residual = np.linalg.norm(residual_vec)
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
    """Estimate of the 1-norm condition number of the free-dof matrix.

    A pure multiplier gauge (see solve) is factored out: the estimate is
    then that of the matrix with the dof of largest kernel component
    removed (row and column), i.e. of the system on the gauge quotient.
    +inf when the factorization fails or the primal field is not unique,
    and also on t3-t5 at k=3, whose primal field is unique: the quotient
    keeps the second kernel direction, so its kernel test raises.  A
    stand-in with only a matrix counts as all primal and of unknown
    degree.  Small
    matrices are inverted exactly from the LU factors, the rest go
    through the Higham-Tisseur 1-norm estimator."""
    matrix = system.matrix.tocsc()
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    norm = _one_norm(matrix)
    k = system.ops.k if hasattr(system, "ops") else None
    try:
        lu = _factor(matrix, k)
        null_dir = _gauge_kernel(lu, matrix, len(getattr(system, "u_free", range(n))), norm)
        if null_dir is not None:
            del lu  # one factorization alive at a time
            keep = np.delete(np.arange(n), np.argmax(np.abs(null_dir)))
            matrix = matrix[keep][:, keep]
            n -= 1
            norm = _one_norm(matrix)
            lu = _factor(matrix, k)
            # the quotient is all primal here: a second kernel raises
            _gauge_kernel(lu, matrix, n, norm)
    except (RuntimeError, SingularSystemError):
        return math.inf
    if n <= _DENSE_COND_LIMIT:
        inv_norm = np.linalg.norm(lu.solve(np.eye(n)), 1)
    else:
        inv_norm = spla.onenormest(spla.LinearOperator(
            (n, n), matvec=lu.solve, rmatvec=lambda b: lu.solve(b, trans="T")))
    return float(norm * inv_norm)


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
