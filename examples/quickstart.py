#!/usr/bin/env python
"""Quickstart: generate, verify, and render a homogeneous rough surface.

Demonstrates the minimal workflow of the library:

1. choose a spectral family (paper Section 2.1) and a sampling grid;
2. generate a realisation with the convolution method (Section 2.4);
3. verify the realisation statistics against the requested parameters;
4. render and export the surface.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro import (
    ConvolutionGenerator,
    GaussianSpectrum,
    Grid2D,
    Surface,
)
from repro.io import ascii_preview, render_terrain, save_surface
from repro.stats import estimate_clx, estimate_cly, height_moments
from repro.verify import weight_acf_error

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)

    # -- 1. parameters ------------------------------------------------------
    # A 512 x 512 m patch at 1 m resolution, Gaussian roughness spectrum
    # with 1.5 m height std and 25 m correlation length.
    grid = Grid2D(nx=512, ny=512, lx=512.0, ly=512.0)
    spectrum = GaussianSpectrum(h=1.5, clx=25.0, cly=25.0)

    # The paper's own accuracy check: how faithfully does this grid carry
    # the requested spectrum?  (DFT of the weighting array vs the exact
    # autocorrelation; see Section 2.2.)
    report = weight_acf_error(spectrum, grid)
    print(f"discretisation check: max |DFT(w) - rho| = "
          f"{report.max_abs_error:.2e} (variance {report.variance_target})")

    # -- 2. generate ---------------------------------------------------------
    gen = ConvolutionGenerator(spectrum, grid)
    print(f"kernel footprint: {gen.footprint[0]} x {gen.footprint[1]} samples")
    heights = gen.generate(seed=42)
    surface = Surface(heights=heights, grid=grid,
                      provenance={"spectrum": spectrum.to_dict(), "seed": 42})

    # -- 3. verify -----------------------------------------------------------
    m = height_moments(surface.heights)
    clx_hat = estimate_clx(surface.heights, grid.dx)
    cly_hat = estimate_cly(surface.heights, grid.dy)
    print(f"measured h  = {m.std:.3f}   (target {spectrum.h})")
    print(f"measured cl = {clx_hat:.1f}, {cly_hat:.1f} (target {spectrum.clx})")
    print(f"skewness    = {m.skewness:+.3f} (Gaussian target 0)")

    # -- 4. render / export --------------------------------------------------
    save_surface(OUT / "quickstart.npz", surface)
    render_terrain(surface, path=OUT / "quickstart.ppm")
    print(f"wrote {OUT / 'quickstart.npz'} and {OUT / 'quickstart.ppm'}")
    print()
    print(ascii_preview(surface, width=64))


if __name__ == "__main__":
    main()
