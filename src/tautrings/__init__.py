"""Exact-rational computations with tautological rings of moduli spaces of
curves: psi-class intersection numbers from the KdV recursion, Hodge-
integral closed forms, Faber-Zagier and stable-quotient relation
generators, graded ring assembly with Gorenstein pairing checks, the
genus-0 boundary-divisor presentation, second-cohomology presentations,
stable-graph enumeration, and the sl2 operators on the universal Jacobian.

Everything is computed over Q with `fractions.Fraction`; no floating point
anywhere.

`import tautrings` imports no submodule: each exported name (and each
submodule named below) is imported on its first use (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule with the names exported from it.
_EXPORTS = {
    "closedforms": "chern_character_even_check euler_orbifold "
                   "hyperelliptic_class hyperelliptic_coeff kappa_socle_eval "
                   "lambda_from_kappa lambda_g_base lambda_g_eval "
                   "lambda_gm1_lambda_g_eval socle_constant wl_class",
    "correlators": "CorrelatorKey CorrelatorTable genus0_closed_form "
                   "psi_intersection string_reduce",
    "exactmath": "GeneratorTable GradedPolynomial QuotientReport "
                 "TruncatedSeries bernoulli exact_rank graded_quotient "
                 "partition_count series_exp series_log",
    "boundary": "BoundaryDivisor h2_presentation h2_rank "
                "kappa1_in_boundary_basis keel_generators keel_pairing_check "
                "keel_ring_dims psi_in_boundary_basis",
    "jacobian": "JacContext JacPolynomial apply_D apply_e apply_h apply_h_raw "
                "normalize",
    "relationgen": "KappaRelation fz_coefficients fz_relation fz_relation_set "
                   "ideal_equivalence_check psi_series sq_coefficients "
                   "sq_phi_series sq_relation sq_relation_set",
    "stablegraphs": "StableGraph enumerate_graphs generator_count "
                    "validate_graph",
    "tautring": "RingModel build_ring generation_check gorenstein_check "
                "ring_dims socle_class_check socle_pairing_ranks "
                "vanishing_check",
}
# name -> the submodule it comes from; a submodule maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names.split())}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_SOURCE[name]}")
    value = module if name == _SOURCE[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
