"""A fixed piece of work, independent of pdwg, that gauges how fast the
machine runs at the moment it is timed.

On a shared VM the same code runs at speeds up to about 1.8x apart, and a
slow or fast spell can last from seconds to minutes, longer than a
benchmark run.  The benchmark therefore times this yardstick right before
and right after every study and scales the study's timings by
``REFERENCE_S / (mean of those two yardstick times)``: the result reads as
seconds on a machine that runs the yardstick in ``REFERENCE_S``.

The work mixes what pdwg spends its time on: a Python loop over small
elements that calls small numpy kernels (einsum, dense solves, products),
and a sparse LU factorization with a solve.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# about the fastest the yardstick ran (1st percentile of 1825 timings) on
# the machine of the README's baseline: a 2-vCPU Xeon VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1
REFERENCE_S = 0.04

_N_ELEMENTS = 1500
_GRID = 75


def _inputs():
    rng = np.random.default_rng(0)
    basis = rng.standard_normal((_N_ELEMENTS, 12, 6))
    weights = rng.uniform(0.5, 1.0, (_N_ELEMENTS, 12))
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
    laplacian = (sp.kron(sp.eye(_GRID), line) + sp.kron(line, sp.eye(_GRID))).tocsc()
    return basis, weights, laplacian, np.ones(_GRID * _GRID)


_BASIS, _WEIGHTS, _LAPLACIAN, _RHS = _inputs()


def _work():
    """The work itself; returns the largest residual, which must be tiny."""
    worst = 0.0
    for b, w in zip(_BASIS, _WEIGHTS):
        mass = np.einsum("n,ni,nj->ij", w, b, b) + np.eye(6)
        rhs = b.T @ w
        x = np.linalg.solve(mass, rhs)
        worst = max(worst, float(np.abs(mass @ x - rhs).max()))
    x = spla.splu(_LAPLACIAN).solve(_RHS)
    worst = max(worst, float(np.abs(_LAPLACIAN @ x - _RHS).max()))
    return worst


def time_once():
    """Wall time of one run of the yardstick, in seconds."""
    start = time.perf_counter()
    residual = _work()
    elapsed = time.perf_counter() - start
    if not residual < 1e-8:
        raise RuntimeError(f"yardstick residual {residual!r}: numpy or scipy is broken")
    return elapsed


def scale(seconds, yardstick_s):
    """``seconds`` measured while the yardstick took ``yardstick_s``, as
    seconds at the reference speed."""
    return seconds * REFERENCE_S / yardstick_s
