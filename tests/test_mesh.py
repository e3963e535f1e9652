import numpy as np
import pytest

import solvbie as sv
from solvbie.errors import GeometryError, ParseError, TopologyError
from conftest import scaled_surface
from solvbie.mesh import _derive_panels, build_surface, gauss_probe

TET_VERTS = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])
# Outward-wound regular-corner tetrahedron.
TET_FACES = np.array([
    [0, 2, 1],
    [0, 1, 3],
    [0, 3, 2],
    [1, 2, 3],
])


def test_tetrahedron_basic_quantities():
    s = build_surface(TET_VERTS, TET_FACES)
    assert s.num_panels == 4
    # Three right-triangle faces of area 1/2 plus the slanted face sqrt(3)/2.
    assert np.sum(s.areas) == pytest.approx(1.5 + np.sqrt(3) / 2, rel=1e-14)
    assert np.allclose(np.linalg.norm(s.normals, axis=1), 1.0, atol=1e-14)


def test_tetrahedron_orientation_autofix():
    flipped = TET_FACES[:, [0, 2, 1]]
    s = build_surface(TET_VERTS, flipped)
    interior = np.array([0.2, 0.2, 0.2])
    assert gauss_probe(s, interior) < -0.5
    # Normals point away from the interior point.
    assert np.all(np.sum(s.normals * (s.centroids - interior), axis=1) > 0)


def test_inward_icosphere_negates_normals():
    # Reversing the winding negates each cross product exactly.
    ico = sv.icosphere(5.0, 2)
    inward = ico.triangles[:, [0, 2, 1]]
    _, normals, areas = _derive_panels(ico.vertices, inward)
    s = build_surface(ico.vertices, inward)
    np.testing.assert_array_equal(s.triangles, ico.triangles)
    np.testing.assert_array_equal(s.normals, -normals)
    np.testing.assert_array_equal(s.areas, areas)


def test_contains_tetrahedron():
    s = build_surface(TET_VERTS, TET_FACES)
    assert gauss_probe(s, [0.2, 0.2, 0.2]) < -0.5
    assert not gauss_probe(s, [2.0, 2.0, 2.0]) < -0.5


def test_off_negative_face_index_rejected(tmp_path):
    surf = sv.icosphere(5.0, 1)
    path = tmp_path / "neg.off"
    sv.write_off(surf, path)
    # Remap vertex 3 to -1, which numpy would read as the last vertex.
    text = path.read_text().splitlines()
    nv = surf.vertices.shape[0]
    faces = [" ".join("-1" if tok == "3" and i > 0 else tok
                      for i, tok in enumerate(line.split()))
             for line in text[2 + nv:]]
    path.write_text("\n".join(text[:2 + nv] + faces) + "\n")
    with pytest.raises(ParseError):
        sv.load_off(path)


def test_off_face_index_past_last_vertex_rejected(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text("OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 4\n")
    with pytest.raises(ParseError):
        sv.load_off(path)


def test_msms_zero_face_index_rejected(tmp_path):
    vert = tmp_path / "t.vert"
    face = tmp_path / "t.face"
    vert.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    face.write_text("1 3 2\n1 2 0\n1 0 3\n2 3 0\n")  # 1-indexed: 0 is invalid
    with pytest.raises(ParseError):
        sv.load_msms(vert, face)


def test_open_surface_rejected():
    with pytest.raises(TopologyError):
        build_surface(TET_VERTS, TET_FACES[:3])


def test_inconsistent_winding_rejected():
    faces = TET_FACES.copy()
    faces[3] = faces[3, ::-1]
    with pytest.raises(TopologyError):
        build_surface(TET_VERTS, faces)


@pytest.mark.parametrize("verts, faces, message", [
    (TET_VERTS, TET_FACES[:3],
     "edge (1, 2) shared by 1 triangles; surface is open or non-manifold"),
    (TET_VERTS, np.vstack([TET_FACES[:3], TET_FACES[3, ::-1]]),
     "edge (1, 2) traversed twice in the same direction"),
    # A fin: a fifth triangle on the tetrahedron's edge (0, 1).
    (np.vstack([TET_VERTS, [[0.5, -1.0, 0.5]]]), np.vstack([TET_FACES, [[0, 1, 4]]]),
     "edge (0, 1) shared by 3 triangles; surface is open or non-manifold"),
    # Two disjoint tetrahedra: closed, but the mesh centroid lies outside both.
    (np.vstack([TET_VERTS, TET_VERTS + 10.0]), np.vstack([TET_FACES, TET_FACES + 4]),
     "cannot establish outward orientation (Gauss probe 0.000 at mesh centroid)"),
])
def test_topology_error_names_first_bad_edge(verts, faces, message):
    with pytest.raises(TopologyError) as exc:
        build_surface(verts, faces)
    assert str(exc.value) == message


def test_degenerate_triangle_rejected():
    # Collinear vertices: both faces have zero area, edges still pair up.
    slab_verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    with pytest.raises(GeometryError):
        build_surface(slab_verts, [[0, 1, 2], [0, 2, 1]])


def test_icosphere_counts():
    for s, n in ((0, 20), (1, 80), (2, 320)):
        assert sv.icosphere(1.0, s).num_panels == n


def test_icosphere_area_and_radius():
    surf = sv.icosphere(5.0, 3)
    exact = 4.0 * np.pi * 25.0
    # Inscribed faceted area is slightly below the sphere area.
    assert np.sum(surf.areas) < exact
    assert np.sum(surf.areas) == pytest.approx(exact, rel=0.01)
    radii = np.linalg.norm(surf.vertices, axis=1)
    assert np.max(np.abs(radii - 5.0)) < 1e-12


def test_icosphere_outward_normals():
    surf = sv.icosphere(2.0, 2)
    assert np.all(np.sum(surf.normals * surf.centroids, axis=1) > 0)
    # One-point quadrature overshoots slightly at this resolution.
    assert gauss_probe(surf, [0, 0, 0]) == pytest.approx(-1.0, abs=0.02)


def test_scaled_copy():
    surf = sv.icosphere(1.0, 2)
    big = scaled_surface(surf, 3.0)
    assert np.sum(big.areas) == pytest.approx(9.0 * np.sum(surf.areas), rel=1e-13)
    np.testing.assert_allclose(big.normals, surf.normals, atol=1e-13)


def test_panel_arrays_read_only():
    surf = sv.icosphere(1.0, 1)
    with pytest.raises(ValueError):
        surf.areas[0] = 0.0


def test_off_roundtrip(tmp_path):
    surf = build_surface(TET_VERTS, TET_FACES)
    path = tmp_path / "tet.off"
    sv.write_off(surf, path)
    back = sv.load_off(path)
    np.testing.assert_array_equal(back.triangles, surf.triangles)
    np.testing.assert_allclose(back.vertices, surf.vertices, rtol=1e-15)


def test_off_with_comments_and_header(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(
        "OFF  # comment\n4 4 6\n"
        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    )
    assert sv.load_off(path).num_panels == 4


@pytest.mark.parametrize("color", [" 255 0 0", " 0.5 0.25 1.0 0.75"], ids=["integer", "float"])
def test_off_face_colors_are_ignored(color):
    plain = "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
    lines = plain.splitlines()
    colored = "\n".join(lines[:6] + [line + color for line in lines[6:]]) + "\n"
    want, got = (sv.load_off("tet.off", read=lambda path: text) for text in (plain, colored))
    for name in ("vertices", "triangles", "centroids", "normals", "areas"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_off_rejects_quads(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(ParseError):
        sv.load_off(path)


def test_off_names_first_non_triangle(tmp_path):
    path = tmp_path / "mixed.off"
    path.write_text("OFF\n5 3 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 1\n"
                    "3 0 1 4\n4 0 1 2 3\n3 1 2 4\n")
    with pytest.raises(ParseError) as exc:
        sv.load_off(path)
    assert str(exc.value) == f"{path}: face 1 has 4 vertices; only triangles supported"


@pytest.mark.parametrize("counts", ["4 -1 0", "-1 4 0"])
def test_off_negative_count_rejected(tmp_path, counts):
    path = tmp_path / "neg.off"
    path.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n")
    with pytest.raises(ParseError, match="negative count -1"):
        sv.load_off(path)


def test_off_empty_file(tmp_path):
    path = tmp_path / "empty.off"
    path.write_text("")
    with pytest.raises(ParseError):
        sv.load_off(path)


def test_msms_pair_with_headers(tmp_path):
    vert = tmp_path / "tet.vert"
    face = tmp_path / "tet.face"
    vert.write_text(
        "# MSMS solvent excluded surface\n# probe 1.5\n"
        "4 1 1.5 0\n"
        "0.0 0.0 0.0 0 0 0\n1.0 0.0 0.0 0 0 0\n"
        "0.0 1.0 0.0 0 0 0\n0.0 0.0 1.0 0 0 0\n"
    )
    face.write_text(
        "# MSMS faces\n# probe 1.5\n"
        "4 1 1.5 0\n"
        "1 3 2 0 0\n1 2 4 0 0\n1 4 3 0 0\n2 3 4 0 0\n"
    )
    s = sv.load_msms(vert, face)
    assert s.num_panels == 4
    assert gauss_probe(s, [0.2, 0.2, 0.2]) < -0.5


def test_msms_without_counts_line(tmp_path):
    vert = tmp_path / "t.vert"
    face = tmp_path / "t.face"
    vert.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    face.write_text("1 3 2\n1 2 4\n1 4 3\n2 3 4\n")
    assert sv.load_msms(vert, face).num_panels == 4


def test_msms_bad_field(tmp_path):
    vert = tmp_path / "t.vert"
    face = tmp_path / "t.face"
    vert.write_text("0 0 zero\n1 0 0\n0 1 0\n0 0 1\n")
    face.write_text("1 3 2\n1 2 4\n1 4 3\n2 3 4\n")
    with pytest.raises(ParseError):
        sv.load_msms(vert, face)


def test_load_mesh_dispatch(tmp_path):
    surf = build_surface(TET_VERTS, TET_FACES)
    path = tmp_path / "tet.off"
    sv.write_off(surf, path)
    assert sv.load_mesh(path, fmt="off").num_panels == 4
    with pytest.raises(ParseError):
        sv.load_mesh(path, fmt="msms")
    with pytest.raises(ParseError):
        sv.load_mesh(path, fmt="stl")
