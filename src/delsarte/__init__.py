"""Dressing operators on grids: triangular intertwiners, factorizations,
Darboux potentials, and the generalized de Rham/Hodge layer.

The package is organized bottom-up:

- ``grid_ops``: grids, stencils, operator discretization, formal adjoints
- ``spectral``: biorthogonal eigenfamilies, spectral measures, kernels
- ``lagrange``: the divergence form of the Lagrange identity; discrete forms,
  regions, Stokes bookkeeping
- ``transmute``: the triangular dressing operators and their exact inverses,
  from family data or from a commuting kernel
- ``factorize``: triangular splitting of 1 + Phi along the grid's projector chain
- ``darboux``: potential dressing by nodeless seeds, iterated stacking
- ``derham``: commuting-family complexes, harmonic spaces, period maps
- ``cli``: batch commands over JSON configs
"""

from .errors import (ConditionNumberError, DefectiveFamilyError,
                     DegreeMismatchError, DelsarteError, DiscretizationError,
                     EmptyBandError, GridError, NonCommutingFamilyError,
                     NotClosedError, NotExactError, SeedNodeError,
                     SingularKernelError, SingularMinorError)
from .grid_ops import (DiffOp, Grid1D, OperatorMatrix, ProductGrid,
                       adjoint_defect, commutator, derivative_matrix,
                       discretize, formal_adjoint, inner)
from .spectral import (EigenFamily, congruence_residual, eigensolve,
                       elementary_kernel, kernel_from_measure,
                       projection_measure)
from .lagrange import (FormField, SurfaceRegion,
                       bilinear_concomitant, boundary, coboundary,
                       divergence_residual, exterior_derivative, form_norm,
                       primitive, surface_integral)
from .transmute import (DelsarteOp, KernelData, TransmutationData,
                        adjoint_compat_check, independence_check,
                        locality_check, pair_intertwiner, transform_family,
                        transform_operator)
from .factorize import (TriangularPair, break_relation_defect,
                        commutation_check, factor_conjugation_gap,
                        gk_factorize, gk_integral_factors, glm_residual,
                        glm_solve, is_volterra_factor, random_unit_minor,
                        triangular_shear)
from .darboux import (DressedResult, DressingSeed, ExpPoly, SchrodingerOp,
                      crum_iterate, darboux_once, spectrum_compare)
from .derham import (GenComplex, HarmonicReport, d_L, dual_flat_section,
                     expected_betti, flat_complex, flat_dimension,
                     flat_section, harmonic_space, hodge_decompose,
                     hodge_star, laplace_hodge, plain_complex, scalar_product,
                     skrypnik_map)

__version__ = "0.1.0"
