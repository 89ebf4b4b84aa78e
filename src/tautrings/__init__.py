"""Exact-rational computations with tautological rings of moduli spaces of
curves: psi-class intersection numbers from the KdV recursion, Hodge-
integral closed forms, Faber-Zagier and stable-quotient relation
generators, graded ring assembly with Gorenstein pairing checks, the
genus-0 boundary-divisor presentation, second-cohomology presentations,
stable-graph enumeration, and the sl2 operators on the universal Jacobian.

Everything is computed over Q with `fractions.Fraction`; no floating point
anywhere.
"""

from .closedforms import (chern_character_even_check, euler_orbifold,
                          hyperelliptic_class, hyperelliptic_coeff,
                          kappa_socle_eval, lambda_from_kappa, lambda_g_base,
                          lambda_g_eval, lambda_gm1_lambda_g_eval,
                          socle_constant, wl_class)
from .correlators import (CorrelatorKey, CorrelatorTable, genus0_closed_form,
                          psi_intersection, string_reduce)
from .exactmath import (GeneratorTable, GradedPolynomial, QuotientReport,
                        TruncatedSeries, bernoulli, exact_rank,
                        graded_quotient, partition_count, series_exp,
                        series_log)
from .boundary import (BoundaryDivisor, h2_presentation, h2_rank,
                       kappa1_in_boundary_basis, keel_generators,
                       keel_pairing_check, keel_ring_dims,
                       psi_in_boundary_basis)
from .jacobian import (JacContext, JacPolynomial, apply_D, apply_e, apply_h,
                       apply_h_raw, normalize)
from .relationgen import (KappaRelation, fz_coefficients, fz_relation,
                          fz_relation_set, ideal_equivalence_check,
                          psi_series, sq_coefficients, sq_phi_series,
                          sq_relation, sq_relation_set)
from .stablegraphs import (StableGraph, enumerate_graphs, generator_count,
                           validate_graph)
from .tautring import (RingModel, build_ring, generation_check,
                       gorenstein_check, ring_dims, socle_class_check,
                       socle_pairing_ranks, vanishing_check)

__version__ = "0.1.0"
