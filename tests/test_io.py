"""Tests for surface persistence (NPZ, ASCII grid) and rendering."""

import numpy as np
import pytest

from repro.core.grid import Grid2D
from repro.core.surface import Surface
from repro.io.asciigrid import load_ascii_grid, save_ascii_grid
from repro.io.npzio import load_surface, save_surface
from repro.io.pgm import (
    ascii_preview,
    render_gray,
    render_hillshade,
    render_terrain,
    write_pgm,
    write_ppm,
)


@pytest.fixture
def surface(rng):
    grid = Grid2D(nx=16, ny=24, lx=32.0, ly=48.0)
    return Surface(
        heights=rng.standard_normal(grid.shape),
        grid=grid,
        origin=(5.0, -3.0),
        provenance={"method": "test", "params": {"h": 1.0}},
    )


class TestNpz:
    def test_round_trip(self, surface, tmp_path):
        path = tmp_path / "s.npz"
        save_surface(path, surface)
        loaded = load_surface(path)
        assert np.array_equal(loaded.heights, surface.heights)
        assert loaded.grid == surface.grid
        assert loaded.origin == surface.origin
        assert loaded.provenance == surface.provenance

    def test_version_check(self, surface, tmp_path):
        path = tmp_path / "s.npz"
        save_surface(path, surface)
        data = dict(np.load(path, allow_pickle=False))
        data["format_version"] = np.array(99)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_surface(path)


class TestAsciiGrid:
    def test_round_trip(self, rng, tmp_path):
        grid = Grid2D(nx=12, ny=8, lx=24.0, ly=16.0)  # square cells (2.0)
        s = Surface(heights=rng.standard_normal(grid.shape), grid=grid,
                    origin=(100.0, 200.0))
        path = tmp_path / "g.asc"
        save_ascii_grid(path, s, precision=10)
        loaded = load_ascii_grid(path)
        assert np.allclose(loaded.heights, s.heights, rtol=1e-8)
        assert loaded.origin == (100.0, 200.0)
        assert loaded.grid.dx == pytest.approx(2.0)

    def test_rejects_rectangular_cells(self, rng, tmp_path):
        grid = Grid2D(nx=8, ny=8, lx=8.0, ly=16.0)
        s = Surface(heights=np.zeros(grid.shape), grid=grid)
        with pytest.raises(ValueError, match="square"):
            save_ascii_grid(tmp_path / "g.asc", s)

    def test_header_contents(self, rng, tmp_path):
        grid = Grid2D(nx=4, ny=6, lx=4.0, ly=6.0)
        s = Surface(heights=np.zeros(grid.shape), grid=grid)
        path = tmp_path / "g.asc"
        save_ascii_grid(path, s)
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["ncols", "4"]
        assert lines[1].split() == ["nrows", "6"]

    def test_orientation(self, tmp_path):
        # value at (x=max, y=max) must land in the top-right of the file
        grid = Grid2D(nx=2, ny=2, lx=2.0, ly=2.0)
        h = np.array([[1.0, 2.0], [3.0, 4.0]])  # h[x, y]
        s = Surface(heights=h, grid=grid)
        path = tmp_path / "g.asc"
        save_ascii_grid(path, s)
        body = path.read_text().splitlines()[6:]
        first_row = [float(v) for v in body[0].split()]
        # northmost row (y max): heights [x=0,y=1], [x=1,y=1] = 2, 4
        assert first_row == [2.0, 4.0]


class TestRendering:
    def test_pgm_file_format(self, surface, tmp_path):
        path = tmp_path / "img.pgm"
        render_gray(surface, path=path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n16 24\n"[:3])
        header, rest = raw.split(b"\n255\n", 1)
        dims = header.decode().split("\n")[1].split()
        assert [int(d) for d in dims] == [16, 24]  # width x height
        assert len(rest) == 16 * 24

    def test_ppm_file_format(self, surface, tmp_path):
        path = tmp_path / "img.ppm"
        render_terrain(surface, path=path)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n")
        _, rest = raw.split(b"\n255\n", 1)
        assert len(rest) == 16 * 24 * 3

    def test_gray_normalisation(self, surface):
        img = render_gray(surface)
        assert img.min() == pytest.approx(0.0)
        assert img.max() == pytest.approx(1.0)

    def test_gray_constant_surface(self):
        grid = Grid2D(nx=4, ny=4, lx=4.0, ly=4.0)
        s = Surface(heights=np.ones((4, 4)), grid=grid)
        img = render_gray(s)
        assert np.all(img == 0.0)

    def test_hillshade_flat_is_uniform(self):
        grid = Grid2D(nx=8, ny=8, lx=8.0, ly=8.0)
        s = Surface(heights=np.zeros((8, 8)), grid=grid)
        img = render_hillshade(s)
        assert np.allclose(img, img[0, 0])

    def test_hillshade_slope_orientation(self):
        # slope facing the light (azimuth 315 = NW... our axes: light from
        # -x +y quadrant) brighter than slope facing away
        grid = Grid2D(nx=32, ny=32, lx=32.0, ly=32.0)
        X, _ = grid.meshgrid()
        s_toward = Surface(heights=-X.copy(), grid=grid)
        s_away = Surface(heights=X.copy(), grid=grid)
        b_t = render_hillshade(s_toward, azimuth_deg=180.0).mean()
        b_a = render_hillshade(s_away, azimuth_deg=180.0).mean()
        assert b_t != pytest.approx(b_a)

    def test_write_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros(4))
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))

    def test_ascii_preview_dimensions(self, surface):
        art = ascii_preview(surface, width=20, height=6)
        lines = art.splitlines()
        assert len(lines) == 6
        assert all(len(l) == 20 for l in lines)

    def test_render_with_explicit_range(self, surface):
        img = render_gray(surface, vmin=-10.0, vmax=10.0)
        assert img.max() < 1.0 and img.min() > 0.0


class TestManifestAtomicity:
    """Crash behaviour of :func:`repro.io.atomic.atomic_write_json`, on
    the store manifest that :meth:`SurfaceStore.persist_progress`
    rewrites: a crash mid-write must never leave a truncated manifest
    next to a valid heights file and bitmap.
    """

    @staticmethod
    def _store(path):
        from repro.io.store import SurfaceStore

        return SurfaceStore.create(path, shape=(24, 24), chunk=(8, 24),
                                   meta={"noise_seed": 3})

    def test_interrupted_manifest_write_preserves_old_manifest(
        self, tmp_path, monkeypatch
    ):
        import json

        from repro.io import atomic
        from repro.io.store import SurfaceStore

        store = self._store(tmp_path / "s")
        store.write_chunk(0, np.ones((8, 24)))
        store.persist_progress()
        manifest_path = tmp_path / "s" / "manifest.json"
        before = manifest_path.read_text()
        store.write_chunk(1, np.ones((8, 24)))

        # crash exactly at the publish step: tmp written, rename fails
        real_replace = atomic.os.replace

        def exploding_replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise OSError("simulated crash during rename")
            return real_replace(src, dst)

        monkeypatch.setattr(atomic.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            store.persist_progress()
        monkeypatch.undo()

        # the manifest still holds the ORIGINAL, complete, parseable JSON
        assert manifest_path.read_text() == before
        assert json.loads(before)["progress"]["chunks_done"] == 1
        reopened = SurfaceStore.open(tmp_path / "s", mode="r")
        assert reopened.manifest["meta"]["noise_seed"] == 3
        # the bitmap went first, so the manifest undercounts, never over
        assert reopened.done_indices() == [0, 1]
        reopened.close()
        store.close()

    def test_manifest_is_complete_json_with_newline(self, tmp_path):
        import json

        with self._store(tmp_path / "t") as store:
            store.write_chunk(2, np.zeros((8, 24)))
            store.persist_progress()
        text = (tmp_path / "t" / "manifest.json").read_text()
        assert text.endswith("\n")  # atomic_write_json's canonical form
        manifest = json.loads(text)
        assert manifest["shape"] == [24, 24]
        assert manifest["progress"]["chunks_done"] == 1
        assert manifest["meta"]["noise_seed"] == 3
        # no stray tmp siblings left behind
        assert not list((tmp_path / "t").glob("*.tmp"))


class TestDirectoryFsync:
    """The rename in an atomic write lives in the directory entry; a
    durable publish needs the *directory* fsynced after ``os.replace``."""

    def test_atomic_write_fsyncs_the_directory(self, tmp_path, monkeypatch):
        import os

        from repro.io import atomic

        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            try:
                synced.append(os.fstat(fd).st_mode)
            except OSError:
                pass
            return real_fsync(fd)

        monkeypatch.setattr(atomic.os, "fsync", recording_fsync)
        atomic.atomic_write_bytes(tmp_path / "a.bin", b"payload")
        import stat

        assert any(stat.S_ISDIR(mode) for mode in synced)
        assert any(stat.S_ISREG(mode) for mode in synced)

    def test_fsync_directory_tolerates_missing_path(self, tmp_path):
        from repro.io.atomic import fsync_directory

        fsync_directory(tmp_path / "no-such-dir")  # must not raise
