"""Real Julia set decision procedures and arboreal certificate tooling."""

from .classifier import (ClassificationReport, CriticalInterval,
                         classify_batch, classify_real_julia, critical_interval)
from .cubic_region import b_zero, in_region, region_scan
from .heights import canonical_height, functional_equation_residual, weil_height
from .lattes import (NonAbelianCertificate, RationalMap, WeierstrassCurve,
                     certify_nonabelian, duplication_lattes, real_surjectivity)
from .orbit import (BackwardOrbit, EmpiricalMeasure, OrbitStatus,
                    backward_orbit, empirical_cdf_distance, max_imag_stat,
                    orbit_status)
from .poly import AffineMap, Polynomial, conjugate, cubic_normal_form
from .roots import all_roots_real, complex_roots, real_roots_ex

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "BackwardOrbit", "ClassificationReport", "CriticalInterval",
    "EmpiricalMeasure", "NonAbelianCertificate", "OrbitStatus", "Polynomial",
    "RationalMap", "WeierstrassCurve", "all_roots_real", "b_zero",
    "backward_orbit", "canonical_height", "certify_nonabelian",
    "classify_batch", "classify_real_julia", "complex_roots", "conjugate", "critical_interval",
    "cubic_normal_form", "duplication_lattes", "empirical_cdf_distance",
    "functional_equation_residual", "in_region", "max_imag_stat",
    "orbit_status", "real_roots_ex", "real_surjectivity", "region_scan",
    "weil_height",
]
