"""Tests for OBJ mesh export."""

import pytest

from repro.core.grid import Grid2D
from repro.core.surface import Surface
from repro.io.objmesh import save_obj


class TestObjExport:
    @pytest.fixture
    def surface(self, rng):
        grid = Grid2D(nx=8, ny=6, lx=16.0, ly=12.0)
        return Surface(heights=rng.standard_normal(grid.shape), grid=grid,
                       origin=(100.0, 50.0))

    def test_vertex_and_face_counts(self, surface, tmp_path):
        path = tmp_path / "mesh.obj"
        save_obj(path, surface)
        lines = path.read_text().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(verts) == 8 * 6
        assert len(faces) == 2 * 7 * 5

    def test_vertex_coordinates_include_origin(self, surface, tmp_path):
        path = tmp_path / "mesh.obj"
        save_obj(path, surface, z_scale=2.0)
        first_v = next(l for l in path.read_text().splitlines()
                       if l.startswith("v "))
        x, y, z = (float(t) for t in first_v.split()[1:])
        assert x == pytest.approx(100.0)
        assert y == pytest.approx(50.0)
        assert z == pytest.approx(2.0 * surface.heights[0, 0], rel=1e-5)

    def test_face_indices_valid(self, surface, tmp_path):
        path = tmp_path / "mesh.obj"
        save_obj(path, surface)
        n_verts = 8 * 6
        for line in path.read_text().splitlines():
            if line.startswith("f "):
                ids = [int(t) for t in line.split()[1:]]
                assert all(1 <= i <= n_verts for i in ids)

    def test_decimation(self, surface, tmp_path):
        path = tmp_path / "mesh.obj"
        save_obj(path, surface, decimate=2)
        verts = [l for l in path.read_text().splitlines()
                 if l.startswith("v ")]
        assert len(verts) == 4 * 3

    def test_validation(self, surface, tmp_path):
        with pytest.raises(ValueError):
            save_obj(tmp_path / "m.obj", surface, decimate=0)
        with pytest.raises(ValueError):
            save_obj(tmp_path / "m.obj", surface, decimate=8)
