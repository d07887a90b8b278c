"""Core algorithms: spectra, weighting arrays, DFT & convolution methods,
and inhomogeneous generation (the paper's primary contribution)."""

from .api import HeightField, SurfaceGenerator, split_result
from .circulant import (
    CirculantGenerator,
    embedded_covariance,
    embedding_eigenvalues,
)
from .convolution import (
    ENGINES,
    ConvolutionGenerator,
    apply_kernel_valid,
    apply_kernel_valid_fft,
    apply_kernel_valid_spatial,
    convolve_full,
    convolve_reference,
    convolve_spatial,
    generate_window,
    noise_window_for,
    resolve_kernel,
    select_engine,
)
from .engine import (
    CacheStats,
    KernelPlan,
    KernelPlanCache,
    choose_block_shape,
    plan_cache,
)
from .ensemble import RunningFieldStats, ensemble_seeds, generate_ensemble
from .direct_dft import (
    conjugate_mirror,
    direct_dft_surface,
    direct_surface_from_array,
    hermitian_array_from_noise,
    hermitian_random_array,
    is_hermitian,
    spectral_white_noise,
)
from .grid import Grid2D, fold_index, folded_frequency_index
from .inhomogeneous import (
    InhomogeneousGenerator,
    PointOrientedLayout,
    PointSpec,
    blend_fields,
    blend_reference,
    kernel_stack,
    point_oriented_weights,
)
from .rng import BlockNoise, Lcg, as_generator, box_muller, standard_normal_field
from .spectra import (
    ExponentialSpectrum,
    GaussianSpectrum,
    PowerLawSpectrum,
    Spectrum,
    register_spectrum,
    spectrum_from_dict,
)
from .oned import (
    BlockNoise1D,
    Exponential1D,
    Gaussian1D,
    Kernel1D,
    Matern1D,
    ProfileGenerator,
    Spectrum1D,
    TabulatedSpectrum1D,
    build_kernel_1d,
    marginal_of_2d,
    weight_vector,
)
from .spectra_ext import (
    CompositeSpectrum,
    PiersonMoskowitzSpectrum,
    RotatedSpectrum,
    SelfAffineSpectrum,
    fourier_synthesis,
)
from .surface import Surface
from .transform import (
    correlation_distortion,
    gaussian_to_marginal,
    lognormal_transform,
    transform_surface,
    uniform_transform,
    weibull_transform,
)
from .weights import (
    Kernel,
    amplitude_array,
    build_kernel,
    kernel_half_width,
    truncate_kernel,
    truncate_kernel_energy,
    weight_array,
    weight_autocorrelation,
)

__all__ = [
    # unified generator API
    "SurfaceGenerator", "HeightField", "split_result",
    # grid
    "Grid2D", "fold_index", "folded_frequency_index",
    # spectra
    "Spectrum", "GaussianSpectrum", "PowerLawSpectrum", "ExponentialSpectrum",
    "spectrum_from_dict", "register_spectrum",
    # weights / kernels
    "weight_array", "amplitude_array", "weight_autocorrelation",
    "Kernel", "build_kernel", "truncate_kernel", "truncate_kernel_energy",
    "kernel_half_width",
    # rng
    "BlockNoise", "Lcg", "box_muller", "standard_normal_field", "as_generator",
    # direct DFT
    "hermitian_random_array", "hermitian_array_from_noise", "conjugate_mirror",
    "is_hermitian", "spectral_white_noise", "direct_dft_surface",
    "direct_surface_from_array",
    # convolution
    "ConvolutionGenerator", "convolve_full", "convolve_spatial",
    "convolve_reference", "apply_kernel_valid", "apply_kernel_valid_spatial",
    "apply_kernel_valid_fft", "generate_window",
    "noise_window_for", "resolve_kernel", "select_engine", "ENGINES",
    # FFT engine / plan cache
    "KernelPlan", "KernelPlanCache", "CacheStats", "choose_block_shape",
    "plan_cache",
    # circulant-embedding oracle
    "CirculantGenerator", "embedded_covariance", "embedding_eigenvalues",
    # inhomogeneous
    "InhomogeneousGenerator", "PointOrientedLayout", "PointSpec",
    "point_oriented_weights", "blend_fields", "blend_reference", "kernel_stack",
    # surface
    "Surface",
    # extended spectra
    "RotatedSpectrum", "CompositeSpectrum", "PiersonMoskowitzSpectrum",
    "SelfAffineSpectrum", "fourier_synthesis",
    # 1D profiles
    "Spectrum1D", "Gaussian1D", "Exponential1D", "Matern1D",
    "TabulatedSpectrum1D", "marginal_of_2d", "weight_vector",
    "build_kernel_1d", "Kernel1D", "ProfileGenerator", "BlockNoise1D",
    # ensembles
    "ensemble_seeds", "generate_ensemble", "RunningFieldStats",
    # marginal transforms
    "gaussian_to_marginal", "lognormal_transform", "weibull_transform",
    "uniform_transform", "transform_surface", "correlation_distortion",
]
