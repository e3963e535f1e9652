"""Triangulated closed surfaces: loaders, derived panel data, sanity checks.

Supports ASCII OFF files and MSMS .vert/.face pairs.  Panel normals point
outward (from the cavity into the solvent); orientation is fixed at load
time using the discrete Gauss solid-angle identity, which evaluates to -1
at any interior probe for outward normals.  A surface is immutable, so what
depends on its geometry alone, the dense D* of the BEM solve, is built once
and kept on it.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParseError, TopologyError, read_text

#: Triangles with area below this (Angstrom^2) are rejected as degenerate.
MIN_TRIANGLE_AREA = 1e-12


@dataclass(frozen=True)
class PanelSurface:
    """A closed, outward-oriented triangulated surface with per-panel data."""

    vertices: np.ndarray   # (V, 3)
    triangles: np.ndarray  # (T, 3) int
    centroids: np.ndarray  # (T, 3)
    normals: np.ndarray    # (T, 3) unit outward
    areas: np.ndarray      # (T,)

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.centroids, self.normals, self.areas):
            arr.setflags(write=False)

    @functools.cached_property
    def dstar(self) -> np.ndarray:
        """Dense D* of this surface, read-only: ``bem.assemble_dstar`` on first use, then kept.

        It takes 8 T^2 bytes (13 MB at 1280 panels, 210 MB at 5120) for as
        long as the surface lives; every exact solve on the surface reuses it.
        """
        from . import bem  # bem imports this module; the lookup is at call time
        dstar = bem.assemble_dstar(self)
        dstar.setflags(write=False)
        return dstar

    @property
    def num_panels(self) -> int:
        return int(self.triangles.shape[0])


def _derive_panels(vertices: np.ndarray, triangles: np.ndarray):
    v0 = vertices[triangles[:, 0]]
    v1 = vertices[triangles[:, 1]]
    v2 = vertices[triangles[:, 2]]
    cross = np.cross(v1 - v0, v2 - v0)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    bad = np.nonzero(areas < MIN_TRIANGLE_AREA)[0]
    if bad.size:
        raise GeometryError(f"degenerate triangle {int(bad[0])} (area {areas[bad[0]]:g})")
    normals = cross / (2.0 * areas[:, None])
    centroids = (v0 + v1 + v2) / 3.0
    return centroids, normals, areas


def _check_closed(triangles: np.ndarray):
    """Every edge must appear exactly twice, once in each direction.

    The edge reported is the first offending one in order of first
    occurrence (triangle by triangle, edges ab, bc, ca).
    """
    u = triangles.ravel()
    v = triangles[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo.astype(np.int64) * (int(hi.max(initial=0)) + 1) + hi
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    forward = np.bincount(inverse, weights=u < v, minlength=counts.size)
    bad = np.nonzero((counts != 2) | (forward != 1))[0]
    if bad.size:
        k = bad[np.argmin(first[bad])]
        e = first[k]
        if counts[k] != 2:
            raise TopologyError(
                f"edge ({lo[e]}, {hi[e]}) shared by {counts[k]} triangles; "
                "surface is open or non-manifold"
            )
        raise TopologyError(f"edge ({lo[e]}, {hi[e]}) traversed twice in the same direction")


def gauss_probe(surface: PanelSurface, point) -> float:
    """Discrete solid-angle integral sum_j A_j n_j.(p - c_j) / (4 pi |p - c_j|^3).

    Approximately -1 for points inside an outward-oriented closed surface,
    0 for points outside.
    """
    p = np.asarray(point, dtype=float)
    d = p[None, :] - surface.centroids
    r3 = np.sum(d * d, axis=1) ** 1.5
    return float(np.sum(surface.areas * np.sum(surface.normals * d, axis=1) / (4.0 * np.pi * r3)))


def build_surface(vertices, triangles) -> PanelSurface:
    """Validate topology, derive panel data, and fix outward orientation."""
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
    triangles = np.asarray(triangles, dtype=int).reshape(-1, 3)
    if not len(triangles):
        raise ParseError("surface has no triangles")
    bad = np.argwhere((triangles < 0) | (triangles >= len(vertices)))
    if bad.size:
        t, k = bad[0]
        raise ParseError(f"triangle {t} has vertex index {triangles[t, k]}, "
                         f"outside [0, {len(vertices)})")
    _check_closed(triangles)
    bad = np.nonzero(~np.isfinite(vertices).all(axis=1))[0]
    if bad.size:
        raise ParseError(f"vertex {int(bad[0])} has a non-finite coordinate")
    centroids, normals, areas = _derive_panels(vertices, triangles)
    surf = PanelSurface(vertices, triangles, centroids, normals, areas)
    probe = np.mean(vertices, axis=0)
    g = gauss_probe(surf, probe)
    if g > 0.5:  # inward-oriented: reversing the winding negates each cross product exactly
        surf = PanelSurface(vertices, triangles[:, [0, 2, 1]], centroids, -normals, areas)
        g = -g
    if not g < -0.5:
        raise TopologyError(
            f"cannot establish outward orientation (Gauss probe {g:.3f} at mesh centroid)"
        )
    return surf


def _int_block(text: str) -> np.ndarray:
    """Whitespace-separated integers of ``text`` in one parsing pass; ValueError if one is not."""
    # fromstring reads a lone sign as 0, or joins it to the next token.
    if ("-" in text or "+" in text) and re.search(r"[-+](?![0-9])", text):
        raise ValueError("sign without digits")
    with warnings.catch_warnings():
        # Older NumPy ends the read at a token that is not an integer with a warning.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, dtype=np.int64, sep=" ")
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None


def load_off(path, read=read_text) -> PanelSurface:
    """Read an ASCII OFF file (counts header, vertex list, triangle list).

    Fields after a face's vertex indices, such as a color, are ignored.
    ``read(path)`` gives the file's text; a caller that already holds it
    passes a lookup instead of reading the file again.
    """
    text = read(path)
    if "#" in text:
        text = re.sub(r"#.*", "", text)
    tokens = text.split(None, 4)
    if not tokens:
        raise ParseError(f"{path}: empty OFF file")
    idx = 0
    if tokens[0].upper() == "OFF":
        idx = 1
    try:
        nv, nt = int(tokens[idx]), int(tokens[idx + 1])
        if min(nv, nt) < 0:  # reshape would read -1 as "infer this count"
            raise ValueError(f"negative count {min(nv, nt)}")
        idx += 3  # skip edge count
        # Header and vertex tokens, then the face block as one string.
        tokens = text.split(None, idx + 3 * nv)
        vertices = np.array(tokens[idx:idx + 3 * nv], dtype=float).reshape(nv, 3)
        block = tokens[idx + 3 * nv] if len(tokens) > idx + 3 * nv else ""
        try:
            faces = _int_block(block)
        except ValueError:
            faces = None
        if faces is None or faces.size != 4 * nt:
            # A face line may carry a color after its indices: keep each line's first four fields.
            faces = _int_block(" ".join(" ".join(line.split()[:4]) for line in block.splitlines()))
        faces = faces[:4 * nt].reshape(nt, 4)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed OFF file ({exc})") from None
    # Rows before the first non-triangle are aligned, so its row is its face.
    bad = np.nonzero(faces[:, 0] != 3)[0]
    if bad.size:
        t = int(bad[0])
        raise ParseError(f"{path}: face {t} has {faces[t, 0]} vertices; only triangles supported")
    return build_surface(vertices, faces[:, 1:].copy())


def load_msms(vert_path, face_path, read=read_text) -> PanelSurface:
    """Read an MSMS .vert/.face pair (1-indexed faces, header lines tolerated).

    MSMS files carry up to two '#' comment lines plus one counts line; the
    counts line is recognized as a leading line whose first field equals the
    number of data lines that follow.  ``read`` is as for ``load_off``.
    """

    def data_lines(path, ncols):
        lines = []
        for lineno, line in enumerate(read(path).split("\n"), start=1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            lines.append((lineno, fields))
        if lines and len(lines) > 1:
            try:
                declared = int(float(lines[0][1][0]))
            except ValueError:
                declared = -1
            if declared == len(lines) - 1:
                lines = lines[1:]
        rows = []
        for lineno, fields in lines:
            if len(fields) < ncols:
                raise ParseError(f"{path}:{lineno}: expected at least {ncols} fields")
            try:
                rows.append([float(v) for v in fields[:ncols]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric field ({exc})") from None
        return np.array(rows)

    verts = data_lines(vert_path, 3)
    faces = data_lines(face_path, 3)
    if verts.size == 0 or faces.size == 0:
        raise ParseError(f"{vert_path}/{face_path}: no mesh data found")
    triangles = faces.astype(int) - 1  # MSMS faces are 1-indexed
    return build_surface(verts, triangles)


def load_mesh(path, fmt: str = "off", face_path=None, read=read_text) -> PanelSurface:
    """Dispatch on mesh format: 'off' or 'msms' (.vert/.face pair); ``read`` as for ``load_off``."""
    if fmt == "off":
        return load_off(path, read)
    if fmt == "msms":
        if face_path is None:
            raise ParseError("MSMS format requires both .vert and .face paths")
        return load_msms(path, face_path, read)
    raise ParseError(f"unknown mesh format {fmt!r}")


def icosphere(radius: float = 1.0, subdivisions: int = 2) -> PanelSurface:
    """Subdivided icosahedron projected onto a sphere.

    Panel counts: 20 * 4^subdivisions (2 -> 320, 3 -> 1280, 4 -> 5120).
    Used for test fixtures and CLI demos; molecular surfaces are external
    inputs.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    index = {v: i for i, v in enumerate(verts)}

    def midpoint(a, b):
        m = tuple((np.array(verts[a]) + np.array(verts[b])) / 2.0)
        m = tuple(np.array(m) / np.linalg.norm(m))
        if m not in index:
            index[m] = len(verts)
            verts.append(m)
        return index[m]

    for _ in range(subdivisions):
        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    vertices = np.array(verts) * radius
    return build_surface(vertices, np.array(faces, dtype=int))


def write_off(surface: PanelSurface, path):
    """Write a surface as an ASCII OFF file."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{surface.vertices.shape[0]} {surface.num_panels} 0\n")
        for v in surface.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in surface.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
