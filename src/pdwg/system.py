"""Assembly and direct solution of the coupled primal-dual system.

The discrete problem couples the primal field u_h (edge dofs fixed to the
projected Dirichlet data on Gamma_d) with a multiplier field lam_h (edge
dofs fixed to zero on the complement of Gamma_n):

    s(u_h, v) - b(v, lam_h) = 0                          for all test v,
    s(lam_h, w) + b(u_h, w) = (f, w_0) + <g2, w_b>_Gamma_n  for all test w.

After eliminating the fixed dofs and negating the first block row, the
free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] is symmetric indefinite
and is factorized directly.  When the multiplier has a one-dimensional
gauge kernel v, the same factorization solves the compatible data
(I - v v^T) rhs and the kernel component is projected out of the result;
only a second kernel direction sends the solve to a bordered matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import DofMap, WeakFunction, l2_project_edge, sample
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
# probe v at or below which v is taken as a kernel vector.  Measured over
# the catalog for n <= 16 (n <= 32 at k=1) and t1/t3 at k=3, n=32: gauge
# systems reach at most 2.9e-16 (t3-t5, k=1, n=32), regular ones 6.8e-13
# (t1, k=3, n=32), so the cutoff keeps 35x and 70x.  The regular side falls
# 50-70x per doubling at k=3: beyond n=32 it needs better-conditioned local
# bases.  The second, projected probe on t3-t5 reads at most 1.1e-16 where
# the kernel is two-dimensional (k=3) and at least 6.1e-10 where it is not
# (k=2, n=16), falling about 18x per doubling
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
    block, plus the lift data needed to reconstruct full fields."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    mesh: object
    config: object
    k: int
    dofmap: DofMap                   # the level's layout; u_free/lam_free carry the split
    u_free: np.ndarray
    lam_free: np.ndarray
    u_fixed_values: np.ndarray       # full-length vector, zero on free dofs
    primal_rows_negated: bool = field(default=True)

    @property
    def n_free(self):
        return self.matrix.shape[0]


def _free_blocks(ops, u_fixed, lam_fixed):
    """The free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] and the lift
    columns [[S_fp], [K_gp]] (p: fixed primal dofs), both assembled straight
    from the stacked local matrices.  A global entry sums at most two local
    ones (an edge has at most two triangles), so it does not depend on the
    order of the sum."""
    uf, lf, up = np.flatnonzero(~u_fixed), np.flatnonzero(~lam_fixed), np.flatnonzero(u_fixed)
    nloc = ops.cell_dofs.shape[1]

    def entries(dofs, offset=0):
        # row and column position of every local matrix entry in the block
        # of dofs, -1 outside it
        pos = np.full(ops.dofmap.n_dofs, -1, dtype=np.int32)
        pos[dofs] = offset + np.arange(len(dofs))
        local = pos[ops.cell_dofs]
        return np.repeat(local, nloc, axis=1).ravel(), np.tile(local, (1, nloc)).ravel()

    def coo(blocks, shape):
        triplets = [[], [], []]
        for block in blocks:
            keep = (block[0] >= 0) & (block[1] >= 0)
            for out, part in zip(triplets, block):
                out.append(part[keep])
        r, c, v = (np.concatenate(parts) for parts in triplets)
        return sp.coo_matrix((v, (r, c)), shape=shape)

    (ru, cu), (rl, cl), (_, cp) = entries(uf), entries(lf, len(uf)), entries(up)
    stab, diff = ops.stabilizers.ravel(), ops.diffusion_forms.ravel()
    n_free = len(uf) + len(lf)
    # CSC is the format the sparse LU takes, so solve needs no second copy
    matrix = coo([(ru, cu, -stab), (ru, cl, diff), (cl, ru, diff), (rl, cl, stab)],
                 (n_free, n_free)).tocsc()
    lift_cols = coo([(ru, cp, stab), (rl, cp, diff)], (n_free, len(up))).tocsr()
    return matrix, lift_cols, uf, lf, up


def assemble(mesh, config, case, k=1, ops=None):
    """Assemble the saddle-point system for one manufactured case.

    The right-hand side collects (f, w_0) over elements and <g2, w_b> over
    the Gamma_n edges; the projected Dirichlet data Q_b g1 is eliminated
    into the right-hand side.  Dof layout, quadrature and local matrices
    come from ops, the context of (mesh, k, case.a), built here when not
    given; a context of another level raises ValueError.
    """
    if config.mesh is not mesh:
        raise ValueError("boundary configuration belongs to a different mesh")
    ops = LocalOperators.of(ops, mesh, k, case.a)
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
        u_fixed_values[dofmap.edge_block(gd)] = l2_project_edge(case.g1, mesh, gd, k, ops.rule)

    matrix, lift_cols, uf, lf, up = _free_blocks(ops, *dofmap.fixed_masks(config))
    lifted = lift_cols @ u_fixed_values[up]
    rhs = np.concatenate([lifted[: len(uf)], rhs_full[lf] - lifted[len(uf):]])
    return SaddleSystem(
        matrix=matrix,
        rhs=rhs,
        mesh=mesh,
        config=config,
        k=k,
        dofmap=dofmap,
        u_free=uf,
        lam_free=lf,
        u_fixed_values=u_fixed_values,
    )


def _factor(matrix, k):
    """Sparse LU of a free-dof matrix of degree k; an unknown degree (None)
    takes SuperLU's defaults, as k >= 2 does."""
    return spla.splu(matrix, **(_SYMMETRIC_LU if k == 1 else {}))


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


def solve(system):
    """Factorize and solve; returns the primal and multiplier fields with
    the fixed boundary values merged back in."""
    matrix = system.matrix.tocsc()
    # 1-norm (largest absolute column sum, reduced per CSC column), which is
    # the inf-norm up to roundoff as the matrix is symmetric
    norm = abs(matrix).sum(axis=0).max()
    try:
        lu = _factor(matrix, system.k)
    except RuntimeError as exc:
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc
    nf = len(system.u_free)
    null_dir = _gauge_kernel(lu, matrix, nf, norm)
    if null_dir is None:
        x = lu.solve(system.rhs)
    elif _gauge_kernel(lu, matrix, nf, norm, found=null_dir) is None:
        # one gauge direction: the symmetric matrix's range is orthogonal
        # to it, so the projected rhs is compatible data that the singular
        # LU solves; projecting the result gives the minimal representative
        # across the multiplier gauge
        x = _project_out(lu.solve(_project_out(system.rhs, null_dir)), null_dir)
    else:
        # a second kernel direction (t3-t5 at k=3): border the one found,
        # which regularizes the factorization along it and pins its
        # component to zero; the other is left to roundoff
        del lu  # one factorization alive at a time
        n = matrix.shape[0]
        col = sp.csc_matrix(null_dir.reshape(n, 1))
        bordered = sp.bmat([[matrix, col], [col.T, None]], format="csc")
        try:
            x = _factor(bordered, system.k).solve(np.append(system.rhs, 0.0))[:n]
        except RuntimeError as exc:
            raise SingularSystemError(f"singular system: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("direct solver produced a non-finite solution")

    residual_vec = matrix @ x - system.rhs
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
    lam_coeffs = np.zeros(system.dofmap.n_dofs)
    lam_coeffs[system.lam_free] = x[nf:]
    return (
        WeakFunction(system.mesh, system.k, u_coeffs, dofmap=system.dofmap),
        WeakFunction(system.mesh, system.k, lam_coeffs, dofmap=system.dofmap),
    )


def condition_estimate(system):
    """Estimate of the 1-norm condition number of the free-dof matrix.

    A pure multiplier gauge (see solve) is factored out: the estimate is
    then that of the matrix with the dof of largest kernel component
    removed (row and column), i.e. of the system on the gauge quotient.
    +inf when the factorization fails or the primal field is not unique,
    and also on t3-t5 at k=3, whose primal field is unique: the quotient
    keeps the second kernel direction, so its kernel test raises.  A
    system without a u_free block split counts as all primal.  Small
    matrices are inverted exactly from the LU factors, the rest go
    through the Higham-Tisseur 1-norm estimator."""
    matrix = system.matrix.tocsc()
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    norm = abs(matrix).sum(axis=0).max()
    k = getattr(system, "k", None)
    try:
        lu = _factor(matrix, k)
        null_dir = _gauge_kernel(lu, matrix, len(getattr(system, "u_free", range(n))), norm)
        if null_dir is not None:
            del lu  # one factorization alive at a time
            keep = np.delete(np.arange(n), np.argmax(np.abs(null_dir)))
            matrix = matrix[keep][:, keep]
            n -= 1
            norm = abs(matrix).sum(axis=0).max()
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
