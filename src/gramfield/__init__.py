"""Gram spectra of stationary Gaussian fields.

Simulation of filtered Gaussian field matrices and their structured
deterministic companions, eigenvalue statistics and distribution
distances, and numerical solvers for the fixed-point equations that
characterize the limiting spectral distributions.
"""

from .symbols import (FilterSequence, FilterSequence1D, FilterSequence2D,
                      SpectralSymbol, filter_from_json_dict,
                      filter_to_json_dict, load_filter, save_filter)
from .matgen import (FieldMatrix, NoiseSpec, build_circulant, build_field,
                     build_periodized_field, build_pseudo_diagonal,
                     build_toeplitz, circulant_eigenvalues, load_matrix_csv,
                     sample_noise, save_matrix_csv)
from .transforms import (WhitenessReport, congruence, fourier_matrix,
                         real_orthogonal_matrix, symmetrized_variance_grid,
                         variance_profile_grid, whiteness_check)
from .spectra import (DistributionFunction, EmpiricalSpectrum, bai_bound,
                      default_inversion_grid, empirical_stieltjes,
                      gram_spectrum, invert_stieltjes_to_cdf,
                      kolmogorov_distance, levy_distance, read_cdf_csv,
                      trace_stats, write_cdf_csv)
from .limit_solver import (AtomicMeasureH, KernelAxiomReport, SolverConfig,
                           SolverConvergenceError, StieltjesKernel,
                           measure_from_lambda, measure_from_profile,
                           solve_centered, solve_centered_many,
                           solve_noncentered, solve_noncentered_many,
                           verify_kernel_axioms, write_solver_csv)

__version__ = "0.1.0"
