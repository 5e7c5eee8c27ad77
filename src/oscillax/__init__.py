"""Numerical laboratory for maximal oscillatory integrals of radial data."""

__version__ = "0.1.0"

from .bessel import (AsymptoticCertificate, BesselOrder, bessel_j,
                     bessel_kernel_reduced, bessel_main_term,
                     certify_asymptotic)
from .cutoffs import (CutoffFamily, DyadicBump, LPWeight, chi, eta,
                      gamma_weight, make_cutoff, make_dyadic_bump, psi)
from .norms import (InsufficientCoverage, MaximalField, SweepRecord, TimeGrid,
                    compute_maximal_field, converged_maximal_field,
                    exponent_fit, modulated_numerators, range_norm,
                    sharpness_profile, sobolev_norm)
from .oscillatory import (SymbolParams, dispersive_field,
                          dispersive_field_2d_oracle, gaussian_free_evolution,
                          isometry_ratios, spatial_extent)
from .profiles import (Profile, annular, bandlimited, bump, family, gaussian,
                       sampled, shell)
from .radial import (hankel_fourier, l2_norm_frequency, l2_norm_spatial,
                     nd_oracle, profile_rule, sphere_factor)
from .split import (TimeSelector, apply_selector_multiplier,
                    apply_selector_radial, maximal_kernel, random_test_profile,
                    recompose_residual, remainder_constant, selector_grid,
                    tilde_field)
from .sweep import SweepConfig, run_sweep
