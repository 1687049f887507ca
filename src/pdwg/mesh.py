"""Uniform triangulations of the unit square with their edge tables and
boundary classification.

Edges carry one fixed global orientation: the tangent runs from the lower
vertex index to the higher one, and the unit normal is that tangent rotated
by -90 degrees.  Per-triangle outward normals are recovered through the
sign table ``tri_edge_signs``, which keeps jump terms across edges
well-defined and reproducible.
"""

from __future__ import annotations

import collections
import math
from functools import cached_property

import numpy as np

__all__ = [
    "SIDES",
    "SIDE_NORMALS",
    "Mesh",
    "BoundaryConfig",
    "build_uniform_mesh",
    "classify_boundary",
    "dump_mesh",
]

SIDES = ("bottom", "right", "top", "left")

# outward unit normals of the unit square, by side
SIDE_NORMALS = {
    "bottom": np.array([0.0, -1.0]),
    "right": np.array([1.0, 0.0]),
    "top": np.array([0.0, 1.0]),
    "left": np.array([-1.0, 0.0]),
}

_SIDE_TOL = 1e-12
# the sides of SIDES, in order, as the lines x[_SIDE_AXES] == _SIDE_VALUES
_SIDE_AXES, _SIDE_VALUES = np.array([1, 0, 1, 0]), np.array([0.0, 1.0, 1.0, 0.0])


class Mesh:
    """Immutable triangle mesh with its edge table: the edges, the triangles
    on each edge and the edges of each triangle.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, counter-clockwise vertex triples
    edges : (E, 2) int array, each row a sorted vertex pair (lo, hi)
    edge_slots : (E, 2) int array, first and last (triangle, local edge)
        slot 3 t + loc of each edge, flat indices into (T, 3) tables; the
        same slot twice on boundary edges.  Edges are numbered in order of
        first appearance, so the first slots increase.
    tri_edges : (T, 3) int array, edge index of local edge (v_i, v_{i+1})
    tri_edge_signs : (T, 3) int array, +1 where the global edge normal
        already points out of the triangle, -1 otherwise
    h_tri : (T,) triangle diameters (longest edge)
    h : max diameter over the partition
    tri_classes : (T,) int array, congruence class of each triangle,
        numbered from 0, every class holding the same number of triangles
        with the same tri_edge_signs.  The triangles of one class are
        translates of each other, so their local matrices under a constant
        coefficient agree up to roundoff.  The classes are given by the
        caller and not measured: one class per triangle unless the keyword
        classes gives them, and two on build_uniform_mesh (triangle t in
        class t % 2).
    macro_elements : (M, p) int array, the triangles of each macro-element,
        the groups that the solver's second elimination stage works on:
        one triangle each unless the keyword macro_elements gives them; on
        build_uniform_mesh the 8 triangles of each 2 x 2 box of squares
        for even n, the 2 of each square for odd n
    macro_edges : (M, q) int array, the edges of each macro-element, its
        macro_inner inner ones (each the edge of two of its triangles)
        first, each part in order of first appearance
    macro_layout : (p, 3) int array, the column of macro_edges that holds
        local edge l of the j-th triangle, the same for every
        macro-element
    macro_classes : (M,) int array, congruence class of each
        macro-element: those whose j-th triangles share a class for every
        j, numbered from 0 and equally many in each
    nested_dissection : (E,) int array, the edges in nested-dissection
        order; computed on first read
    """

    def __init__(self, vertices, triangles, *, classes=None, macro_elements=None):
        vertices = np.array(vertices, dtype=float)
        triangles = np.array(triangles, dtype=int)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an array of 2D points")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be vertex index triples")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError(f"vertex indices must lie in [0, {len(vertices)})")
        self.vertices = vertices
        self.triangles = triangles

        v = vertices
        d1 = v[triangles[:, 1]] - v[triangles[:, 0]]
        d2 = v[triangles[:, 2]] - v[triangles[:, 0]]
        cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(cross <= 0.0):
            raise ValueError("triangles must be counter-clockwise with positive area")
        self.tri_areas = 0.5 * cross
        self.tri_centroids = v[triangles].sum(axis=1) / 3

        # local edge l runs from v_l to v_{l+1}; number the sorted vertex
        # pairs in order of first appearance over the slots 3 t + l
        heads = triangles[:, [1, 2, 0]]
        lo = np.minimum(triangles, heads).ravel()
        hi = np.maximum(triangles, heads).ravel()
        # sorted by vertex pair, the slots of one edge are adjacent
        key = lo * len(v) + hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        same = key[1:] == key[:-1]
        if np.any(same[1:] & same[:-1]):
            raise ValueError("non-manifold mesh: an edge with more than 2 triangles")
        # the other slot of each slot's edge, the slot itself on the boundary
        slot = np.arange(len(key))
        partner = slot.copy()
        partner[order[1:][same]] = order[:-1][same]
        partner[order[:-1][same]] = order[1:][same]
        # an edge takes its number at its first slot
        first = np.minimum(slot, partner)
        opens = first == slot
        tri_edges = (np.cumsum(opens) - 1)[first].reshape(triangles.shape)
        starts = slot[opens]
        self.edges = np.column_stack([lo[starts], hi[starts]])
        self.edge_slots = np.column_stack([starts, partner[starts]])
        self.tri_edges = tri_edges
        # a counter-clockwise triangle has its outward normal on the tangent's
        # right, so the global normal points out exactly where v_l < v_{l+1}
        self.tri_edge_signs = np.where(triangles < heads, 1, -1)

        tangents = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.edge_lengths = np.hypot(tangents[:, 0], tangents[:, 1])
        self.edge_normals = (
            np.column_stack([tangents[:, 1], -tangents[:, 0]])
            / self.edge_lengths[:, None]
        )
        self.edge_midpoints = 0.5 * (v[self.edges[:, 0]] + v[self.edges[:, 1]])

        self.h_tri = self.edge_lengths[tri_edges].max(axis=1)
        self.h = float(self.h_tri.max())

        self.is_boundary_edge = self.edge_slots[:, 0] == self.edge_slots[:, 1]
        self.boundary_edges = np.nonzero(self.is_boundary_edge)[0]
        self.tri_classes = _congruence_classes(self, classes)
        (self.macro_elements, self.macro_edges, self.macro_layout,
         self.macro_inner) = _macro_layout(self, macro_elements)
        self.macro_classes = _macro_classes(self)

        for arr in (self.vertices, self.triangles, self.edges, self.edge_slots, self.tri_edges,
                    self.tri_edge_signs, self.edge_lengths, self.edge_normals,
                    self.edge_midpoints, self.tri_areas, self.tri_centroids,
                    self.h_tri, self.is_boundary_edge, self.boundary_edges, self.tri_classes,
                    self.macro_elements, self.macro_edges, self.macro_layout,
                    self.macro_classes):
            arr.setflags(write=False)

    @cached_property
    def nested_dissection(self):
        """Nested-dissection order (E,) of the mesh's edges, each placed at
        its midpoint.  A box is bisected at a vertex grid line of its
        longer side (the x side on a tie): the one nearest the middle among
        the lines that bound macro-elements, those that no macro-element's
        inner edge lies on, or among all lines where none of those crosses
        the box.  The edges exactly on that line form the separator,
        ordered after both halves, and a box crossed by no grid line keeps
        its edges in index order.

        A box's cut on one axis depends only on its extent along that axis,
        so each edge's path through the boxes merges its paths through the
        bisections of the two axes, the wider step first."""
        digits, widths = [], []
        inner = self.macro_edges[:, :self.macro_inner].ravel()
        for axis in (0, 1):
            coords = np.sort(self.vertices[:, axis])
            line = coords[np.append(True, coords[1:] != coords[:-1])]
            # half-line index of each midpoint: 2 i on grid line i, 2 i - 1 between lines i - 1 and i
            c = self.edge_midpoints[:, axis]
            half = np.searchsorted(line, c) + np.searchsorted(line, c, "right") - 1
            bounding = np.ones(len(line), dtype=bool)
            on_line = half[inner][half[inner] % 2 == 0]
            bounding[on_line // 2] = False
            d, w = _bisection_paths(line.tolist(), bounding.tolist())
            digits.append(d[half])
            widths.append(w[half])
        # the merged path takes the wider step first, the x one on a tie
        merge = np.argsort(-np.concatenate(widths, axis=1), axis=1, kind="stable")
        path = np.take_along_axis(np.concatenate(digits, axis=1), merge, axis=1)
        order = np.lexsort((np.arange(self.n_edges),) + tuple(path.T[::-1]))
        order.setflags(write=False)
        return order

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)


def _congruence_classes(mesh, classes):
    """The (T,) class index, one class per triangle when classes is None;
    ValueError unless the classes are numbered from 0, equally sized and
    of equal edge signs."""
    if classes is None:
        return np.arange(mesh.n_triangles)
    classes = np.array(classes, dtype=int)
    if classes.shape != (mesh.n_triangles,) or classes.min() < 0:
        raise ValueError("classes must give each triangle a class index from 0 on")
    counts = np.bincount(classes)
    if np.any(counts != counts[0]):
        raise ValueError("every class index from 0 on must hold equally many triangles")
    first = np.argsort(classes, kind="stable")[::counts[0]]
    if np.any(mesh.tri_edge_signs != mesh.tri_edge_signs[first][classes]):
        raise ValueError("the triangles of one class must have the same edge signs")
    return classes


def _macro_layout(mesh, macros):
    """(macro_elements, macro_edges, macro_layout, macro_inner) of the
    grouping macros (M, p), one triangle each for None (Mesh's attributes of
    those names).  ValueError unless macros splits the triangles into
    groups of one size and every group has the layout of the first."""
    if macros is None:
        macros = np.arange(mesh.n_triangles)[:, None]
    macros = np.array(macros, dtype=int)
    if macros.ndim != 2 or not np.array_equal(np.sort(macros, axis=None),
                                              np.arange(mesh.n_triangles)):
        raise ValueError("macro_elements must split the triangles into groups of one size")
    tri_edges = mesh.tri_edges[macros].reshape(len(macros), -1)
    # the first macro-element's edges, the inner ones (those of two of its
    # triangles) first, each part in order of first appearance
    head = tri_edges[0].tolist()
    counts = collections.Counter(head)
    order = sorted(counts, key=lambda e: counts[e] == 1)
    column = {e: i for i, e in enumerate(order)}
    layout = np.array([column[e] for e in head])
    edges = tri_edges[:, [head.index(e) for e in order]]
    distinct = np.all(np.diff(np.sort(edges, axis=1), axis=1) != 0)
    if not distinct or not np.array_equal(edges[:, layout], tri_edges):
        raise ValueError("every macro-element must meet its edges as the first one does")
    return macros, edges, layout.reshape(-1, 3), sum(c > 1 for c in counts.values())


def _macro_classes(mesh):
    """The (M,) class index of each macro-element, from the classes of its
    triangles, numbered in their lexicographic order; ValueError unless
    every class holds equally many."""
    rows = mesh.tri_classes[mesh.macro_elements]
    order = np.lexsort(rows.T[::-1])
    classes = np.empty(len(rows), dtype=int)
    classes[order] = np.cumsum(np.append(0, np.any(rows[order[1:]] != rows[order[:-1]], axis=1)))
    counts = np.bincount(classes)
    if np.any(counts != counts[0]):
        raise ValueError("every macro-element class must hold equally many macro-elements")
    return classes


def _bisection_paths(coords, bounding):
    """Recursive bisection of the sorted grid lines coords of one axis, each
    interval cut at the inner line nearest its middle (the lower one on a
    tie) among the lines flagged in bounding, or among all inner lines
    where it flags none, until no inner line is left.  Per half-line index
    h (2 i on line i, 2 i - 1 between lines i - 1 and i) and per depth,
    arrays (H, D) of the step digit, 0 to the lower half, 1 to the upper
    one and 2 on the cut, and of the width of the interval cut there, -inf
    where the path of h has ended, on a cut or in an uncut interval."""
    last = len(coords) - 1
    n_half = 2 * last + 1
    digits, widths = [], []
    stack = [(0, 0, last)]
    while stack:
        depth, lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        if depth == len(digits):
            digits.append([0] * n_half)
            widths.append([-math.inf] * n_half)
        middle = 0.5 * (coords[lo] + coords[hi])
        inside = range(lo + 1, hi)
        cut = min([i for i in inside if bounding[i]] or inside,
                  key=lambda i: (abs(coords[i] - middle), i))
        # the interval holds its inner half-lines, and the outermost grid lines
        start, stop = 2 * lo + (lo > 0), 2 * hi + (hi == last)
        widths[depth][start:stop] = [coords[hi] - coords[lo]] * (stop - start)
        digits[depth][2 * cut: stop] = [2] + [1] * (stop - 2 * cut - 1)
        stack += [(depth + 1, lo, cut), (depth + 1, cut, hi)]
    return (np.array(digits, dtype=np.int8).reshape(-1, n_half).T,
            np.array(widths).reshape(-1, n_half).T)


class BoundaryConfig:
    """Independent membership flags of each boundary edge in Gamma_d and
    Gamma_n.  Both flags may be set on the same edge (the Cauchy case)."""

    def __init__(self, mesh, in_gamma_d, in_gamma_n):
        in_gamma_d = np.array(in_gamma_d, dtype=bool)
        in_gamma_n = np.array(in_gamma_n, dtype=bool)
        if in_gamma_d.shape != (mesh.n_edges,) or in_gamma_n.shape != (mesh.n_edges,):
            raise ValueError("flags must be given for every edge")
        interior = ~mesh.is_boundary_edge
        if np.any(in_gamma_d & interior) or np.any(in_gamma_n & interior):
            raise ValueError("boundary flags set on an interior edge")
        self.mesh = mesh
        self.in_gamma_d = in_gamma_d
        self.in_gamma_n = in_gamma_n
        in_gamma_d.setflags(write=False)
        in_gamma_n.setflags(write=False)

    @property
    def gamma_d_edges(self):
        return np.nonzero(self.in_gamma_d)[0]

    @property
    def gamma_n_edges(self):
        return np.nonzero(self.in_gamma_n)[0]


def build_uniform_mesh(n):
    """Uniform triangulation of (0,1)^2 with 2*n^2 triangles.

    Each of the n x n sub-squares is split along the negative-slope
    diagonal (top-left to bottom-right corner).  The lower-left triangles
    (even index) are translates of one another, and so are the upper-right
    ones (odd index): they form the mesh's two congruence classes.  The
    macro-elements are the 8 triangles of each 2 x 2 box of sub-squares
    for even n, and the 2 of each sub-square for odd n; either way they are
    translates of one another, in one class.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("refinement level n must be a positive integer")
    coords = np.linspace(0.0, 1.0, n + 1)
    # row-major in j (y), then i (x)
    vertices = np.column_stack([np.tile(coords, n + 1), np.repeat(coords, n + 1)])

    j, i = divmod(np.arange(n * n), n)          # sub-squares, row-major in j
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    # two triangles per sub-square, split along the diagonal v01 -- v10
    triangles = np.stack([v00, v10, v01, v10, v01 + 1, v01], axis=1).reshape(-1, 3)
    if n % 2:
        squares = np.arange(n * n)[:, None]
    else:
        # the four sub-squares of each box, boxes row-major
        j, i = divmod(np.arange(n * n // 4), n // 2)
        squares = 2 * (j * n + i)[:, None] + [0, 1, n, n + 1]
    macros = (2 * squares[..., None] + [0, 1]).reshape(len(squares), -1)
    mesh = Mesh(vertices, triangles, classes=np.arange(2 * n * n) % 2, macro_elements=macros)
    assert abs(mesh.tri_areas.sum() - 1.0) < 1e-12
    return mesh


def _side_indices(mesh, edges):
    """Index into SIDES of the first side each of the boundary edges lies on."""
    pts = mesh.vertices[mesh.edges[edges]]                    # (m, 2, 2)
    on = np.all(np.abs(pts[:, :, _SIDE_AXES] - _SIDE_VALUES) < _SIDE_TOL, axis=1)
    off = ~on.any(axis=1)
    if np.any(off):
        raise ValueError(f"boundary edge {edges[off][0]} does not lie on an "
                         "axis-aligned side of the unit square")
    return on.argmax(axis=1)


def classify_boundary(mesh, dirichlet_sides, neumann_sides):
    """Flag every boundary edge lying on a named side of the square.

    dirichlet_sides / neumann_sides are iterables over
    {'bottom', 'right', 'top', 'left'}; they may overlap (Cauchy data).
    """
    d_sides = frozenset(dirichlet_sides)
    n_sides = frozenset(neumann_sides)
    for side in d_sides | n_sides:
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}; expected one of {SIDES}")
    if not d_sides and not n_sides:
        raise ValueError("no boundary data anywhere: Gamma_d and Gamma_n both empty")
    named = np.array([[side in group for side in SIDES] for group in (d_sides, n_sides)])
    flags = np.zeros((2, mesh.n_edges), dtype=bool)
    flags[:, mesh.boundary_edges] = named[:, _side_indices(mesh, mesh.boundary_edges)]
    return BoundaryConfig(mesh, *flags)


def dump_mesh(mesh, config=None):
    """Plain-text dump: vertices (x y), triangles (i j k), edges
    (i j boundary_flag gd_flag gn_flag).  Used by golden-file tests."""
    lines = [f"vertices {mesh.n_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"triangles {mesh.n_triangles}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    lines.append(f"edges {mesh.n_edges}")
    for e in range(mesh.n_edges):
        i, j = mesh.edges[e]
        b = int(mesh.is_boundary_edge[e])
        gd = int(config.in_gamma_d[e]) if config is not None else 0
        gn = int(config.in_gamma_n[e]) if config is not None else 0
        lines.append(f"{i} {j} {b} {gd} {gn}")
    return "\n".join(lines) + "\n"
