"""Assembly and direct solution of the coupled primal-dual system.

The discrete problem couples the primal field u_h (edge dofs fixed to the
projected Dirichlet data on Gamma_d) with a multiplier field lam_h (edge
dofs fixed to zero on the complement of Gamma_n):

    s(u_h, v) - b(v, lam_h) = 0                          for all test v,
    s(lam_h, w) + b(u_h, w) = (f, w_0) + <g2, w_b>_Gamma_n  for all test w.

After eliminating the fixed dofs and negating the first block row, the
free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] is symmetric indefinite.
Each triangle adds to it one local matrix [[-S, B], [B, S]], u local dofs
first, written only by _coupled: the free-dof matrix, the Dirichlet lift,
solve's residual check and the condensation all read that table.  solve
condenses each triangle's interior dofs out, once per congruence class of
the level's context (_Condensation), and factors the Schur matrix on the
free edge dofs, assembled straight in the mesh's nested-dissection order
(Mesh.nested_dissection, unpaired unknowns last), in that order and in
symmetric mode.  solve and condition_estimate share two steps.  The kernel
step (_decide_kernel) decides the kernel from polynomial candidates
(_Condensation.kernel_dims) before anything is factored: a primal one
raises SingularSystemError, and two or more multiplier (gauge) directions
drop the condensation.  _inverse then factors once per path and returns
the inverse for any number of right-hand sides: along one gauge direction
the Schur LU solves the compatible data (I - v v^T) rhs, v its own null
direction, and projects v out; two or more factor the natural free-dof
matrix, which only that branch builds, for its null direction, then the
bordered matrix, with SuperLU's defaults.  solve checks its residual, and
takes the 1-norm that scales it, from the local matrices, which also tests
the class tables on every level; condition_estimate reads the same norm.
The level's LocalOperators is the one source of mesh, degree, dof layout
and local matrices: assemble takes it, and the assembled system keeps it
as ops for solve to read.

Two forms here hold bits that only the t3-t5 k=3 levels read: the load's
matrix-vector products per triangle and edge in assemble, and _bordered's
layout, that of sp.bmat.  Those levels' stored reference values hold the
roundoff of the gauge direction that the bordered LU leaves free; every
other level's reference check absorbs a change of summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import WeakFunction, element_basis, gram, l2_project_edge, sample
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
# the diagonal, in symmetric mode, while they pass a 0.1 threshold.  Most
# fail it and take a row of the same edge, which has the same pattern; the
# unpaired unknowns are numbered last (_nested_numbering), as otherwise more
# pivots leave the edge and fill (t1, k=3, n=16: 561 rows, 30 when last)
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
    positions: np.ndarray            # free-dof positions (T, 2 nloc), u then lam, -1 where fixed

    @property
    def n_free(self):
        return len(self.u_free) + len(self.lam_free)

    @cached_property
    def matrix(self):
        """The free-dof matrix [[-S_ff, K_fg], [K_fg^T, S_gg]] in CSC, the
        format the sparse LU takes, kept once built (_free_matrix)."""
        return _free_matrix(self)


def _coupled(stab, diff):
    """The saddle system's local matrices [[-S, B], [B, S]] (..., 2 m, 2 m)
    of stacked stabilizers S and diffusion forms B (..., m, m): the u
    local dofs first, then the lam ones.  The one place that orders the two
    fields' blocks and negates S."""
    m = stab.shape[-1]
    out = np.empty(stab.shape[:-2] + (2 * m, 2 * m))
    np.negative(stab, out=out[..., :m, :m])
    out[..., :m, m:] = out[..., m:, :m] = diff
    out[..., m:, m:] = stab
    return out


def _free_matrix(system):
    """The free-dof matrix of system in CSC, assembled straight from the
    stacked local matrices."""
    pos, ops = system.positions, system.ops
    local = _coupled(ops.group_stabilizers, ops.group_diffusion_forms)[ops.input_groups]
    return _sparse_sum(pos, pos, local, (system.n_free, system.n_free))


def _positions(ops, dofs, offset=0):
    """Position (T, nloc) of every local dof in a block that numbers dofs
    from offset on, -1 outside it."""
    pos = np.full(ops.dofmap.n_dofs, -1, dtype=np.int32)
    pos[dofs] = offset + np.arange(len(dofs))
    return pos[ops.cell_dofs]


def _nested_numbering(system):
    """The natural free-dof index of each free edge unknown, in the order
    of the Schur matrix: the unpaired ones (the other field fixed) last,
    each part sorted by the nested-dissection rank of the edge
    (Mesh.nested_dissection), then by field (u before lam), then by slot."""
    ops, nf = system.ops, len(system.u_free)
    n_int, edim = ops.dofmap.n_interior, ops.dofmap.edge_dim
    rank = np.empty(ops.mesh.n_edges, dtype=np.int64)
    rank[ops.mesh.nested_dissection] = np.arange(len(rank))
    free = np.concatenate([system.u_free, system.lam_free])
    # interior dofs are never fixed and lead each field's free dofs
    natural = np.concatenate([np.arange(n_int, nf), np.arange(nf + n_int, len(free))])
    dof = free[natural] - n_int
    unpaired = np.bincount(dof)[dof] < 2
    edge, slot = np.divmod(dof, edim)
    key = (2 * rank[edge] + (natural >= nf)) * edim + slot
    return natural[np.argsort(key + unpaired * 2 * len(rank) * edim)]


def _scatter(pos, vals, n):
    """Length-n vector of the sums of vals (..., *pos.shape) at positions
    pos, one per leading index of vals; values at a -1 position are
    dropped."""
    keep = pos >= 0
    vals = vals[..., keep]
    count = math.prod(vals.shape[:-1])
    index = pos[keep] + n * np.arange(count)[:, None]
    return np.bincount(index.ravel(), weights=vals.ravel(),
                       minlength=n * count).reshape(vals.shape[:-1] + (n,))


def _sparse_sum(rows, cols, vals, shape):
    """Sum of stacked local matrices as a CSC matrix, given row positions
    (T, m), column positions (T, m') and values (T, m, m'); entries at a -1
    position are dropped.  The result is scipy's COO to CSC conversion bit
    for bit: row indices sorted within each column, duplicates summed,
    explicit zeros kept, so SuperLU sees the same matrix.  A global entry
    sums at most two local ones (an edge has at most two triangles), so it
    does not depend on the order of the sum."""
    # the mask by broadcasting the small per-triangle masks: cheaper than
    # comparing the repeated index arrays
    keep = ((rows >= 0)[:, :, None] & (cols >= 0)[:, None, :]).ravel()
    r = np.repeat(rows, cols.shape[1], axis=1).ravel()[keep]
    c = np.tile(cols, (1, rows.shape[1])).ravel()[keep]
    return sp.csc_matrix((vals.ravel()[keep], (r, c)), shape=shape)


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
    load = (ops.group_vk[ops.input_groups].swapaxes(1, 2)
            @ (ops.tri_wts * sample(case.f, ops.tri_pts))[..., None])
    rhs_full[: dofmap.n_interior] = load.ravel()
    gn = config.gamma_n_edges
    if gn.size:
        pts, wts = ops.edge_pts[gn], ops.edge_wts[gn]
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
    pos = np.concatenate([_positions(ops, uf), _positions(ops, lf, len(uf))], axis=1)
    pp = _positions(ops, up)
    # the lift columns [[-S_fp], [K_gp]] (p: fixed primal dofs), the u
    # columns of the local matrices.  Only the triangles that hold a fixed u
    # dof have a column there.  Subtracted from (0, data), the lift negates
    # the u rows back
    t = np.flatnonzero((pp >= 0).any(axis=1))
    g = ops.input_groups[t]
    local = _coupled(ops.group_stabilizers[g], ops.group_diffusion_forms[g])
    lift_cols = _sparse_sum(pos[t], pp[t], local[..., :pp.shape[1]], (len(uf) + len(lf), len(up)))
    rhs = np.append(np.zeros(len(uf)), rhs_full[lf]) - lift_cols @ u_fixed_values[up]
    return SaddleSystem(rhs=rhs, ops=ops, u_free=uf, lam_free=lf,
                        u_fixed_values=u_fixed_values, positions=pos)


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
    local matrix applied to its part of x, summed into the free dofs.  The
    local matrices are gathered 128 triangles at a time: a gather of all of
    them is a large fresh allocation, which page-faults on every level
    (measured: 143 more minor faults per t6, k=1, n=32 level)."""
    pos, ops = system.positions, system.ops
    tables = _coupled(ops.group_stabilizers, ops.group_diffusion_forms)
    local = np.where(pos >= 0, x[pos], 0.0)
    for start in range(0, len(local), 128):
        part = slice(start, start + 128)
        local[part] = (tables[ops.input_groups[part]] @ local[part, :, None])[..., 0]
    return _scatter(pos, local, system.n_free)


def _local_column_sums(system):
    """Absolute column sums of the free-dof matrix, the largest of which is
    its 1-norm, from the local matrices.  The column sums of each group's
    absolute local matrix are taken once; only a triangle that holds a
    fixed dof sums its free rows alone.  A global entry sums two local ones
    only where its row and column both lie in the block of one interior
    edge, which its two triangles hold at the same local dofs; there the
    sum of the local absolute values is corrected by |c1 + c2| - |c1| - |c2|."""
    ops, pos = system.ops, system.positions
    mesh, dofmap, groups = ops.mesh, ops.dofmap, ops.input_groups
    coupled = _coupled(ops.group_stabilizers, ops.group_diffusion_forms)
    absolute = np.abs(coupled)
    column = absolute.sum(axis=1)[groups]
    fixed = np.flatnonzero((pos < 0).any(axis=1))
    column[fixed] = ((pos[fixed] >= 0).astype(float)[:, None, :] @ absolute[groups[fixed]])[:, 0]
    # the local dofs of each side's edge block, both fields, and those
    # blocks of an interior edge's two triangles
    edges = np.arange(coupled.shape[-1]).reshape(2, -1)[:, dofmap.interior_dim:]
    sides = edges.reshape(2, 3, -1).swapaxes(0, 1).reshape(3, -1)      # (side, 2 edim)
    tris, side = np.divmod(mesh.edge_slots[~mesh.is_boundary_edge], 3)  # (E, 2)
    blocks = coupled[:, sides[:, :, None], sides[:, None, :]]
    c1, c2 = blocks[groups[tris], side].swapaxes(0, 1)
    edge_pos = pos[tris[:, :1], sides[side[:, 0]]]
    edge_sums = ((edge_pos >= 0).astype(float)[:, None, :]
                 @ (np.abs(c1 + c2) - np.abs(c1) - np.abs(c2)))[:, 0]
    return _scatter(pos, column, system.n_free) + _scatter(edge_pos, edge_sums, system.n_free)


def _project_out(vec, unit):
    """vec (n,), or each column of vec (n, r), with its component along
    the unit vector removed; vec itself where unit is None."""
    if unit is None:
        return vec
    return vec - np.multiply.outer(unit, unit @ vec)


def _null_direction(lu):
    """Unit vector of one inverse-iteration step on lu from the constant
    vector: on a singular LU, the LU's own null direction, which a
    projected solve on it must project along."""
    n = lu.shape[0]
    probe = lu.solve(np.full(n, 1.0 / np.sqrt(n)))
    return probe / np.linalg.norm(probe)


class _Condensation:
    """Static condensation of a system onto its free edge dofs.  Interior
    dofs couple only within their triangle, so each triangle's local
    matrix M = [[-S, B], [B, S]] (_coupled), split into interior (I) and
    edge (E) dofs, gives the local Schur block M_EE - M_EI M_II^-1 M_IE,
    the blocks taken by index from M; matrix sums
    them over the free edge dofs, numbered in nested-dissection order.

    The dense algebra is done once per congruence class (ops.classes), on
    the local matrices of the class's representative, and each triangle
    reads the tables of its class: the two class maps coupling C =
    M_II^-1 M_IE and inverse M_II^-1, in the original coordinates, which
    solve and expand apply.  With one class per triangle this is the
    triangle-by-triangle condensation, and the Schur matrix is the same
    bit for bit.  The Schur block itself is formed in an orthonormal
    interior basis R = L^-T, L L^T = mass_k / area (block-diagonal over
    u_0 and lam_0), which at k = 1, 2, 3 takes the interior block's
    condition number from 37, 2.5e4 and 3.9e6 to 2.1, 6.1 and 16; the maps
    are formed from that basis's inverse only afterwards.  A Schur block
    formed as M_EE - M_EI M_II^-1 M_IE from the map instead raises the
    roundoff of the polynomial-exact t1, k=3, n=8 from 7.8e-10 to 8.8e-7
    in the l2 error, 60 times the benchmark's tolerance for that level."""

    def __init__(self, system):
        ops, nf = system.ops, len(system.u_free)
        dim, mesh = ops.dofmap.interior_dim, ops.mesh
        self.ops = ops
        self.free = np.concatenate([system.u_free, system.lam_free])
        self.members = ops.class_members
        reps = self.members[:, 0]
        rep_groups = ops.input_groups[reps]
        local = _coupled(ops.group_stabilizers[rep_groups], ops.group_diffusion_forms[rep_groups])
        # the local dofs of both fields' interiors (I) and edges (E)
        fields = np.arange(local.shape[-1]).reshape(2, -1)
        interior, edge = fields[:, :dim].ravel(), fields[:, dim:].ravel()
        chol = np.linalg.cholesky(ops.group_mass_k[rep_groups] / mesh.tri_areas[reps, None, None])
        basis = np.zeros((len(reps), 2 * dim, 2 * dim))
        basis[:, :dim, :dim] = basis[:, dim:, dim:] = np.linalg.inv(chol).swapaxes(1, 2)
        # the interior block and the interior rows, in the orthonormal basis
        inner = basis.swapaxes(1, 2) @ local[:, interior[:, None], interior] @ basis
        rows = basis.swapaxes(1, 2) @ local[:, interior[:, None], edge]
        coupling = np.linalg.solve(inner, rows)
        schur = local[:, edge[:, None], edge] - rows.swapaxes(1, 2) @ coupling
        # the maps back in the original coordinates
        self.coupling = basis @ coupling
        self.inverse = basis @ np.linalg.inv(inner) @ basis.swapaxes(1, 2)
        # free-dof positions of the unknowns of matrix, the free edge dofs,
        # and each triangle's local dofs among them (-1 where fixed), read
        # off the free-dof positions through the inverse of that order
        self.numbered = _nested_numbering(system)
        self.primal = self.numbered < nf
        n_edge = len(self.numbered)
        # one spare last entry, -1, which the position -1 of a fixed dof reads
        place = np.full(system.n_free + 1, -1, dtype=np.int32)
        place[self.numbered] = np.arange(n_edge)
        self.interior = system.positions[:, interior]
        self.edge_pos = place[system.positions[:, edge]]
        self.matrix = _sparse_sum(self.edge_pos, self.edge_pos, schur[ops.classes],
                                  (n_edge, n_edge))

    def _by_class(self, rows, tables):
        """Each triangle's row vector rows[..., t, :] times its class's
        matrix, tables (C, m, m'): the rows (..., T, m'), one product per
        class and leading index."""
        out = np.empty(rows.shape[:-1] + tables.shape[-1:])
        out[..., self.members, :] = rows[..., self.members, :] @ tables
        return out

    def solve(self, lu, rhs):
        """Free-dof solution of A x = rhs for rhs (n,) or a block (n, r), lu
        factoring the Schur matrix: condense rhs, solve for the edge dofs,
        recover the interiors."""
        b = rhs.T  # one row per right-hand side
        b_int = b[..., self.interior]
        shift = self._by_class(b_int, self.coupling)
        edge_rhs = b[..., self.numbered] - _scatter(self.edge_pos, shift, len(self.numbered))
        return self.expand(lu.solve(edge_rhs.T), self._by_class(b_int, self.inverse.swapaxes(1, 2)))

    def expand(self, x_edge, z=0.0):
        """Free-dof vector (or block, for x_edge (n_edge, r)) with edge part
        x_edge and each triangle's interior from its local equations,
        M_II^-1 b_I - C x_E, given M_II^-1 b_I as z (0: no interior data)."""
        x_edge = x_edge.T
        local = np.where(self.edge_pos >= 0, x_edge[..., self.edge_pos], 0.0)
        x = np.empty(x_edge.shape[:-1] + (len(self.numbered) + self.interior.size,))
        x[..., self.numbered] = x_edge
        x[..., self.interior] = z - self._by_class(local, self.coupling.swapaxes(1, 2))
        return x.T

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
        n_int, w0 = ops.dofmap.n_interior, ops.rule.edge_weights
        # Q_b p from the values of p at each edge's points (ops.edge_pts):
        # every edge's Gram matrix is its length times the reference one,
        # so one matrix projects them all, exactly for p of degree <= k
        project = np.linalg.solve(gram(ops.beta, w0), ops.beta.T * w0)
        monomials = element_basis(ops.k).eval(ops.edge_pts)
        cand = np.linalg.qr((project @ monomials).reshape(-1, monomials.shape[-1]))[0]
        dofs = self.free[self.numbered] - n_int
        n = len(dofs)
        cutoff = _KERNEL_CUTOFF * _one_norm(self.matrix)
        # both fields' candidate columns side by side, in one sparse product
        x = np.zeros((n, 2, cand.shape[1]))
        fixed = np.ones((2, len(cand)), dtype=bool)
        for i, field in enumerate((self.primal, ~self.primal)):
            x[field, i] = cand[dofs[field]]
            fixed[i, dofs[field]] = False
        # both fields' [matrix X; X_fixed] in one batched SVD, the shorter
        # padded with zero rows, which leave the singular values as they are
        n_fixed = fixed.sum(axis=1)
        stacked = np.zeros((2, n + n_fixed.max(), cand.shape[1]))
        stacked[:, :n] = (self.matrix @ x.reshape(n, -1)).reshape(x.shape).swapaxes(0, 1)
        for i in range(2):
            stacked[i, n:n + n_fixed[i]] = cand[fixed[i]]
        sv = np.linalg.svd(stacked, compute_uv=False)
        return tuple(int(d) for d in np.count_nonzero(sv <= cutoff, axis=1))


def _bordered(matrix, col):
    """The CSC matrix [[matrix, c], [c^T, 0]] of a CSC matrix with sorted
    indices and a dense column c, as sp.bmat builds it from c's sparse
    column: every stored entry of matrix kept, the exact zeros of c not
    stored.  Row n ends each of the first n columns; column n holds c.
    sp.bmat itself gives the same bits but a higher peak memory."""
    n = len(col)
    has = col != 0
    rows = np.flatnonzero(has).astype(matrix.indices.dtype)
    ends = matrix.indptr[1:][has]
    indptr = matrix.indptr + np.append(0, np.cumsum(has)).astype(matrix.indptr.dtype)
    return sp.csc_matrix((np.concatenate([np.insert(matrix.data, ends, col[has]), col[has]]),
                          np.concatenate([np.insert(matrix.indices, ends, n), rows]),
                          np.append(indptr, indptr[-1] + len(rows))), shape=(n + 1, n + 1))


def _decide_kernel(system):
    """The kernel step, before anything is factored: the condensation of
    system and its gauge kernel's dimension (_Condensation.kernel_dims).
    A primal kernel raises SingularSystemError.  Two or more gauge
    directions (t3-t5 at k = 3) drop the condensation, which their path
    never factors, and give None in its place."""
    reduced = _Condensation(system)
    primal_dim, gauge_dim = reduced.kernel_dims()
    if primal_dim:
        raise SingularSystemError("singular system: the primal field is not unique")
    return (reduced if gauge_dim < 2 else None), gauge_dim


def _inverse(system, reduced, gauge_dim):
    """(apply, v): apply solves A x = b for the free-dof matrix A and b
    (n,) or a block (n, r), one column of x per column of b, and v is the
    gauge kernel vector (None without one), given _decide_kernel's
    condensation and gauge dimension.  All factoring happens here, once for
    any number of right-hand sides.  Up to one gauge direction the Schur
    matrix is factored with _ORDERED_LU, and x is A^-1 b, or P A^-1 P b
    with P = I - v v^T.  Two or more (t3-t5 at k = 3) factor the natural
    free-dof matrix, which only this branch builds, for its null direction
    v, then the bordered [[A, v], [v^T, 0]], with SuperLU's defaults."""
    if gauge_dim > 1:
        # bordering with the LU's null direction regularizes the
        # factorization along it and pins its component to zero; the other
        # directions are left to roundoff.  One factorization alive at a
        # time, and the natural matrix goes before the bordered LU
        matrix = _free_matrix(system)
        null_dir = _null_direction(_factor(matrix))
        bordered = _bordered(matrix, null_dir)
        del matrix
        lu = _factor(bordered)
        return (lambda b: lu.solve(np.r_[b, np.zeros_like(b[:1])])[:len(null_dir)]), null_dir
    lu = _factor(reduced.matrix, **_ORDERED_LU)
    null_dir = None
    if gauge_dim:
        # the symmetric matrix's range is orthogonal to the kernel, so the
        # projected rhs is compatible data that the singular LU solves;
        # projecting the result gives the minimal representative across the
        # gauge.  v is the full kernel vector, unit in the original
        # coordinates, so that representative has v.x = 0
        null_dir = reduced.expand(_null_direction(lu))
        null_dir /= np.linalg.norm(null_dir)
    return (lambda b: _project_out(reduced.solve(lu, _project_out(b, null_dir)), null_dir),
            null_dir)


def solve(system):
    """Solve on the kernel step's path with _inverse's one factorization;
    returns the primal and multiplier fields with the fixed boundary values
    merged back in.  The residual check applies the local matrices."""
    ops, nf = system.ops, len(system.u_free)
    reduced, gauge_dim = _decide_kernel(system)
    inverse, null_dir = _inverse(system, reduced, gauge_dim)
    x = inverse(system.rhs)
    # the LU goes before the residual check, the condensation on return:
    # freed earlier, its pages go back to the system, and the next level
    # faults them in again (measured: +5% on a t3, k=2, n=16 level)
    del inverse
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("direct solver produced a non-finite solution")

    # the component along the kernel image is a data-compatibility defect
    # (quadrature-level), not a solver error
    residual = np.linalg.norm(_project_out(_local_product(system, x) - system.rhs, null_dir))
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

    The kernel step is solve's (_decide_kernel).  A primal kernel, or a
    gauge kernel of two or more directions (t3-t5 at k = 3), gives +inf
    right after it, with nothing factored, and so does a failed
    factorization.  ||A||_1 is the exact norm that scales solve's residual
    check.  A^-1 is the inverse that solve applies (_inverse); along one
    gauge direction v it is P A^-1 P with P = I - v v^T, so the estimate
    is that of the system solve solves, on the complement of v.  Up to
    _DENSE_COND_LIMIT free dofs the inverse is applied to the identity in
    one call, above it the Higham-Tisseur 1-norm estimator applies it to
    its blocks, from a fixed random state on every call."""
    try:
        reduced, gauge_dim = _decide_kernel(system)
        if gauge_dim > 1:
            return math.inf
        apply = _inverse(system, reduced, gauge_dim)[0]
    except SingularSystemError:
        return math.inf
    n = system.n_free
    if n <= _DENSE_COND_LIMIT:
        inv_norm = np.linalg.norm(apply(np.eye(n)), 1)
    else:
        # A is symmetric, and so is the inverse
        op = spla.LinearOperator((n, n), matvec=apply, rmatvec=apply, matmat=apply,
                                 rmatmat=apply, dtype=float)
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
