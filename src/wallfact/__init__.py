"""Exact engine for reflection factorizations in orthogonal groups.

Quadratic spaces over the rationals or an odd prime field, their isometries
through the Wall parametrization, minimal and positive reflection
factorizations, interval posets, the hyperbolic-space specialization, and a
brute-force finite-field oracle.
"""

from .field import (QQ, EmptyInterval, FactoringBudgetExceeded, FieldError, Fp,
                    PrimeField, RationalField,
                    SquareClass, UnorderedField, ZeroElement,
                    rational_square_in_interval, square_class)
from .linalg import (DimensionMismatch, Matrix, NonSquare, Subspace, TooLarge,
                     det, enumerate_subspaces, image, kernel, rank, solve,
                     subspace_intersection, subspace_sum)
from .quadspace import (Definiteness, DegenerateForm, Inertia, Isometry,
                        NotIsometry, QuadraticSpace, Signature, SingularVector,
                        diagonal_space)
from .wall import (ChiQMismatch, DegenerateChi, WallData, check_wall_properties,
                   chi_left_complement, chi_right_complement, fixed_space,
                   isometry_from_wall, moved_space, spinor_norm, wall_form)
from .factor import (AlternatingForm, CertificateError, DegenerateRestriction, Factorization,
                     ProductMismatch, is_minimal, minimal_factorization, reflection_distance,
                     reflection_length, split, triangular_basis)
from .order import (IntervalPoset, admissible_subspaces, interval,
                    interval_is_graded_check, less_equal)
from .positive import (NegativeDeterminant, NegativeSpinor, NoPositiveVector,
                       PositivityReport, SymmetricChi,
                       basis_with_one_positive_vector, is_positive_isometry,
                       orthogonal_positive_pair_3d, perturb_orthogonal_pair,
                       perturb_positive_vector, positive_basis,
                       positive_factorization, positive_less_equal,
                       positive_reflection_length, positivity_report)
from .hyperbolic import (HyperbolicClass, IntervalDescription, NotPositive,
                         classify, fixes_hyperbolic_space,
                         hyperbolic_positive_factorization, interval_membership,
                         interval_subspace_test, lorentz_space,
                         parabolic_interval_description)
from .oracle import (GroupCensus, enumerate_group, exhaustive_isometries,
                     verify_intervals, verify_length_formula,
                     verify_spinor_homomorphism, verify_wall_bijection)

__version__ = "0.1.0"
