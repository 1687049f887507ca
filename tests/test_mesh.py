import math

import numpy as np
import pytest

from pdwg.mesh import (
    BoundaryConfig,
    Mesh,
    build_uniform_mesh,
    classify_boundary,
    dump_mesh,
)
from test_weakops import jittered_mesh


def test_smallest_mesh_counts_by_hand():
    mesh = build_uniform_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert mesh.n_edges == 5
    assert mesh.h == pytest.approx(math.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_combinatorial_count_formulas(n):
    mesh = build_uniform_mesh(n)
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_triangles == 2 * n**2
    assert mesh.n_edges == 3 * n**2 + 2 * n
    # Euler relation for the simply connected square
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1
    assert mesh.h == pytest.approx(math.sqrt(2.0) / n, rel=1e-14)


def test_exhaustive_adjacency_enumeration_n4():
    # independent oracle: rebuild the edge adjacency from scratch by brute force
    mesh = build_uniform_mesh(4)
    expected = {}
    for t, tri in enumerate(mesh.triangles):
        for loc in range(3):
            key = tuple(sorted((tri[loc], tri[(loc + 1) % 3])))
            expected.setdefault(key, []).append(t)
    assert len(expected) == 56
    for e in range(mesh.n_edges):
        key = tuple(mesh.edges[e])
        assert np.unique(mesh.edge_slots[e] // 3).tolist() == sorted(expected[key])
    n_boundary = sum(1 for adj in expected.values() if len(adj) == 1)
    assert n_boundary == len(mesh.boundary_edges) == 16


def test_finest_study_level_triangle_count():
    mesh = build_uniform_mesh(32)
    assert mesh.n_triangles == 2048


def test_areas_positive_and_sum_to_one():
    mesh = build_uniform_mesh(5)
    assert np.all(mesh.tri_areas > 0)
    assert abs(mesh.tri_areas.sum() - 1.0) < 1e-12


def test_adjacency_symmetry():
    mesh = build_uniform_mesh(4)
    for t in range(mesh.n_triangles):
        for e in mesh.tri_edges[t]:
            assert t in mesh.edge_slots[e] // 3
    for e in range(mesh.n_edges):
        for t in mesh.edge_slots[e] // 3:
            assert e in mesh.tri_edges[t]


def test_outward_normal_consistency():
    mesh = build_uniform_mesh(3)
    for t in range(mesh.n_triangles):
        centroid = mesh.tri_centroids[t]
        for loc in range(3):
            e = mesh.tri_edges[t, loc]
            n_out = mesh.tri_edge_signs[t, loc] * mesh.edge_normals[e]
            assert n_out @ (mesh.edge_midpoints[e] - centroid) > 0


def test_doubling_quadruples_triangle_count():
    for n in (1, 2, 4, 8):
        assert build_uniform_mesh(2 * n).n_triangles == 4 * build_uniform_mesh(n).n_triangles


def test_edge_normal_orientation_convention():
    # tangent lo->hi rotated by -90 degrees, unit length
    mesh = build_uniform_mesh(2)
    for e in range(mesh.n_edges):
        lo, hi = mesh.edges[e]
        assert lo < hi
        tangent = mesh.vertices[hi] - mesh.vertices[lo]
        tangent /= np.linalg.norm(tangent)
        expected = np.array([tangent[1], -tangent[0]])
        assert np.allclose(mesh.edge_normals[e], expected, atol=1e-15)
        assert abs(np.linalg.norm(mesh.edge_normals[e]) - 1.0) < 1e-14


@pytest.mark.parametrize("n", [1, 4, 64])
def test_uniform_mesh_classes_are_index_translates(n):
    # build_uniform_mesh names two congruence classes by construction,
    # triangle t in class t % 2, with triangles 0 and 1 as representatives:
    # each member is its representative with one index offset added to all
    # three vertices, has the representative's edge signs, and (on the
    # uniform grid) its edge vectors up to roundoff
    mesh = build_uniform_mesh(n)
    classes = mesh.tri_classes
    assert np.array_equal(classes, np.arange(mesh.n_triangles) % 2)
    offset = mesh.triangles - mesh.triangles[classes]
    assert np.all(offset == offset[:, :1])
    assert np.array_equal(mesh.tri_edge_signs, mesh.tri_edge_signs[classes])
    edges = mesh.vertices[np.roll(mesh.triangles, -1, axis=1)] - mesh.vertices[mesh.triangles]
    assert np.allclose(edges, edges[classes], rtol=0.0, atol=1e-15)


def test_general_mesh_has_one_class_per_triangle():
    base = build_uniform_mesh(4)
    for mesh in (Mesh(base.vertices, base.triangles), jittered_mesh()):
        assert np.array_equal(mesh.tri_classes, np.arange(mesh.n_triangles))


@pytest.mark.parametrize("classes,match", [
    ([0], "class index"),
    ([-1, 0], "class index"),
    ([1, 1], "equally many"),
    ([0, 2], "equally many"),
    ([0, 0], "edge signs"),
])
def test_malformed_classes_rejected(classes, match):
    # on the n=1 mesh the two triangles have different edge signs, so they
    # cannot share a class
    base = build_uniform_mesh(1)
    with pytest.raises(ValueError, match=match):
        Mesh(base.vertices, base.triangles, classes=classes)


def test_zero_refinement_rejected():
    with pytest.raises(ValueError):
        build_uniform_mesh(0)


def test_clockwise_triangle_rejected():
    with pytest.raises(ValueError):
        Mesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])


@pytest.mark.parametrize("bad", [-1, 3])
def test_vertex_index_out_of_range_rejected(bad):
    # -1 would wrap to the last vertex, 3 == V would index past the end
    with pytest.raises(ValueError, match="vertex indices"):
        Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, bad)])


@pytest.mark.parametrize("vertices,triangles,match", [
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)], "2D points"),
    ([(0, 0), (1, 0), (0, 1)], [(0, 1)], "index triples"),
])
def test_malformed_mesh_arrays_rejected(vertices, triangles, match):
    with pytest.raises(ValueError, match=match):
        Mesh(vertices, triangles)


def test_non_manifold_edge_rejected():
    # three triangles on the edge (0,0)-(1,0): two above it, one below
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, 2), (0.5, -1)]
    with pytest.raises(ValueError, match="non-manifold"):
        Mesh(verts, [(0, 1, 2), (0, 1, 3), (1, 0, 4)])


# the mesh weight of an edge in the residual norms is the max diameter of
# the triangles of its first and last slot: h_tri[edge_slots // 3].max(axis=1)


def test_edge_weight_uniform_mesh():
    mesh = build_uniform_mesh(4)
    weight = mesh.h_tri[mesh.edge_slots // 3].max(axis=1)
    assert np.allclose(weight, math.sqrt(2.0) / 4, rtol=1e-14, atol=0.0)


def test_edge_weight_single_triangle_boundary():
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert np.all(mesh.h_tri[mesh.edge_slots // 3].max(axis=1) == mesh.h_tri[0])


def test_edge_weight_max_rule_two_triangles():
    # hand-built pair with diameters 1.0 and 0.5 sharing the edge (0,0)-(0.5,0)
    verts = [(0.0, 0.0), (0.5, 0.0), (0.5, math.sqrt(0.75)), (0.25, -0.2)]
    mesh = Mesh(verts, [(0, 1, 2), (0, 3, 1)])
    assert mesh.h_tri[0] == pytest.approx(1.0, abs=1e-15)
    assert mesh.h_tri[1] == pytest.approx(0.5, abs=1e-15)
    shared = np.flatnonzero(~mesh.is_boundary_edge)
    assert len(shared) == 1
    assert mesh.h_tri[mesh.edge_slots[shared[0]] // 3].max() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_edge_slots_are_the_first_and_last_slot_of_each_edge(n):
    mesh = build_uniform_mesh(n)
    flat = mesh.tri_edges.ravel()
    for e in range(mesh.n_edges):
        slots = np.flatnonzero(flat == e)
        assert tuple(mesh.edge_slots[e]) == (slots[0], slots[-1])
    assert mesh.edge_slots.dtype.kind == "i" and not mesh.edge_slots.flags.writeable
    # edges numbered in order of first appearance: the dof layout depends on it
    assert np.all(np.diff(mesh.edge_slots[:, 0]) > 0)


def test_classify_cauchy_bottom():
    mesh = build_uniform_mesh(4)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    bottom = mesh.is_boundary_edge & (mesh.edge_midpoints[:, 1] == 0.0)
    assert np.count_nonzero(bottom) == 4
    assert np.array_equal(config.in_gamma_d, bottom)
    assert np.array_equal(config.in_gamma_n, bottom)
    # the right, top and left sides, where lambda is fixed
    assert np.count_nonzero(mesh.is_boundary_edge & ~config.in_gamma_n) == 12
    interior = ~mesh.is_boundary_edge
    assert not np.any(config.in_gamma_d[interior])
    assert not np.any(config.in_gamma_n[interior])


def test_classify_disjoint_mixed_problem():
    mesh = build_uniform_mesh(4)
    config = classify_boundary(mesh, {"bottom", "left"}, {"right", "top"})
    assert not np.any(config.in_gamma_d & config.in_gamma_n)
    assert len(config.gamma_d_edges) == 8
    assert len(config.gamma_n_edges) == 8
    bottom_or_left = np.any(mesh.edge_midpoints == 0.0, axis=1)
    assert np.array_equal(mesh.is_boundary_edge & ~config.in_gamma_n, bottom_or_left)
    assert np.array_equal(config.in_gamma_d, bottom_or_left)


def test_classify_pure_dirichlet():
    mesh = build_uniform_mesh(2)
    config = classify_boundary(mesh, {"bottom", "right", "top", "left"}, set())
    assert len(config.gamma_d_edges) == len(mesh.boundary_edges)
    assert np.array_equal(mesh.is_boundary_edge & ~config.in_gamma_n, mesh.is_boundary_edge)
    assert len(config.gamma_n_edges) == 0


def test_classify_rejects_no_data():
    mesh = build_uniform_mesh(2)
    with pytest.raises(ValueError):
        classify_boundary(mesh, set(), set())


def test_classify_rejects_unknown_side():
    mesh = build_uniform_mesh(2)
    with pytest.raises(ValueError):
        classify_boundary(mesh, {"north"}, set())


def test_edge_off_the_square_rejected():
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    with pytest.raises(ValueError, match="does not lie on"):
        classify_boundary(mesh, {"bottom"}, {"left"})


def test_boundary_config_rejects_interior_flags():
    mesh = build_uniform_mesh(2)
    bad = np.zeros(mesh.n_edges, dtype=bool)
    interior = np.nonzero(~mesh.is_boundary_edge)[0]
    bad[interior[0]] = True
    with pytest.raises(ValueError):
        BoundaryConfig(mesh, bad, np.zeros(mesh.n_edges, dtype=bool))
    with pytest.raises(ValueError, match="every edge"):
        BoundaryConfig(mesh, bad[1:], np.zeros(mesh.n_edges, dtype=bool))


GOLDEN_N1_DUMP = (
    "vertices 4\n0 0\n1 0\n0 1\n1 1\n"
    "triangles 2\n0 1 2\n1 3 2\n"
    "edges 5\n0 1 1 1 1\n1 2 0 0 0\n0 2 1 0 0\n1 3 1 0 0\n2 3 1 0 0\n"
)


def test_dump_golden_file_n1():
    mesh = build_uniform_mesh(1)
    config = classify_boundary(mesh, {"bottom"}, {"bottom"})
    assert dump_mesh(mesh, config) == GOLDEN_N1_DUMP


def test_dump_without_config_zeroes_flags():
    mesh = build_uniform_mesh(1)
    text = dump_mesh(mesh)
    for line in text.splitlines()[-5:]:
        assert line.split()[3:] == ["0", "0"]


def ordering_mesh(kind):
    """build_uniform_mesh(kind) for an int kind; the jittered mesh, or the
    n=8 mesh graded towards the origin (every coordinate squared)."""
    if kind == "jittered":
        return jittered_mesh()
    if kind == "graded":
        base = build_uniform_mesh(8)
        return Mesh(base.vertices ** 2, base.triangles)
    return build_uniform_mesh(kind)


def bisection_reference(mesh):
    """Nested-dissection order of the edges by direct recursion over the
    boxes, from the definition in Mesh.nested_dissection."""
    nodes = mesh.edge_midpoints
    lines = [np.unique(mesh.vertices[:, axis]) for axis in (0, 1)]

    def order(idx, lo, hi):
        crossed = [h - l >= 2 for l, h in zip(lo, hi)]
        if not any(crossed):
            return list(idx)
        widths = [line[h] - line[l] for line, l, h in zip(lines, lo, hi)]
        axis = int(crossed[1] and (not crossed[0] or widths[1] > widths[0]))
        line, l, h = lines[axis], lo[axis], hi[axis]
        middle = (line[l] + line[h]) / 2
        cut = min(range(l + 1, h), key=lambda i: (abs(line[i] - middle), i))
        c = nodes[idx, axis]
        first_hi, second_lo = list(hi), list(lo)
        first_hi[axis] = second_lo[axis] = cut
        return (order(idx[c < line[cut]], lo, first_hi) + order(idx[c > line[cut]], second_lo, hi)
                + list(idx[c == line[cut]]))

    return order(np.arange(len(nodes)), [0, 0], [len(line) - 1 for line in lines])


@pytest.mark.parametrize("kind", [1, 3, 8, "jittered", "graded"])
def test_nested_dissection_orders_every_node_once(kind):
    # the order is a permutation of the edges, computed once per mesh, and
    # the one a direct recursion over the boxes gives
    mesh = ordering_mesh(kind)
    order = mesh.nested_dissection
    assert np.array_equal(np.sort(order), np.arange(mesh.n_edges))
    assert mesh.nested_dissection is order and not order.flags.writeable
    assert np.array_equal(order, bisection_reference(mesh))
