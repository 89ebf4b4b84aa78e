"""The package surface: what `import tautrings` and the benchmark's imports
load, the names the package exports, and the contract of its records."""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module

import pytest

import tautrings
from tautrings.exactmath import QuotientReport
from tautrings.jacobian import JacContext
from tautrings.relationgen import KappaRelation, fz_relation_set
from tautrings.tautring import Certificate, RingModel, build_ring, gorenstein_check

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# Import footprint
# ---------------------------------------------------------------------------

def _modules_after(code: str) -> set:
    """The modules a fresh interpreter with PYTHONPATH=src holds after
    running `code`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def _added_by(code: str) -> set:
    """The modules `code` loads beyond what a bare interpreter (`site` and
    any `.pth` files included) already holds."""
    return _modules_after(code) - _modules_after("pass")


def test_import_package_loads_no_submodule():
    added = _added_by("import tautrings")
    assert "tautrings" in added
    assert not {m for m in added if m.startswith("tautrings.")}


def test_benchmark_imports_skip_dataclasses_hashlib_and_jacobian():
    added = _added_by("import tautrings.cli, tautrings.cache, tautrings.boundary, "
                      "tautrings.stablegraphs, tautrings.tautring")
    assert {"tautrings.cli", "tautrings.cache", "tautrings.tautring"} <= added
    assert not added & {"dataclasses", "hashlib", "tautrings.jacobian"}


def test_cache_checksum_loads_hashlib(tmp_path):
    path = tmp_path / "c.json"
    added = _added_by(
        "import contextlib, io\nfrom tautrings import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run(['correlator', '1', '1', '--cache', {str(path)!r}]) == 0")
    assert path.exists()
    assert "hashlib" in added
    assert "tautrings.jacobian" not in added


def test_jac_apply_loads_jacobian():
    added = _added_by(
        "import contextlib, io\nfrom tautrings import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['jac-apply', 'D', '3', "
        "'[{\"psi_power\":0,\"factors\":[[3,1,2]],\"coeff\":\"1/1\"}]']) == 0")
    assert "tautrings.jacobian" in added
    assert "hashlib" not in added


# ---------------------------------------------------------------------------
# Exported names
# ---------------------------------------------------------------------------

# Every name `tautrings` exported when its `__init__` imported each
# submodule eagerly, with the submodule that defines it.
EXPORTS = {
    "closedforms": [
        "chern_character_even_check", "euler_orbifold", "hyperelliptic_class",
        "hyperelliptic_coeff", "kappa_socle_eval", "lambda_from_kappa",
        "lambda_g_base", "lambda_g_eval", "lambda_gm1_lambda_g_eval",
        "socle_constant", "wl_class"],
    "correlators": [
        "CorrelatorKey", "CorrelatorTable", "genus0_closed_form",
        "psi_intersection", "string_reduce"],
    "exactmath": [
        "GeneratorTable", "GradedPolynomial", "QuotientReport",
        "TruncatedSeries", "bernoulli", "exact_rank", "graded_quotient",
        "partition_count", "series_exp", "series_log"],
    "boundary": [
        "BoundaryDivisor", "h2_presentation", "h2_rank",
        "kappa1_in_boundary_basis", "keel_generators", "keel_pairing_check",
        "keel_ring_dims", "psi_in_boundary_basis"],
    "jacobian": [
        "JacContext", "JacPolynomial", "apply_D", "apply_e", "apply_h",
        "apply_h_raw", "normalize"],
    "relationgen": [
        "KappaRelation", "fz_coefficients", "fz_relation", "fz_relation_set",
        "ideal_equivalence_check", "psi_series", "sq_coefficients",
        "sq_phi_series", "sq_relation", "sq_relation_set"],
    "stablegraphs": [
        "StableGraph", "enumerate_graphs", "generator_count", "validate_graph"],
    "tautring": [
        "RingModel", "build_ring", "generation_check", "gorenstein_check",
        "ring_dims", "socle_class_check", "socle_pairing_ranks",
        "vanishing_check"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", NAMES)
def test_exported_name_is_the_submodule_attribute(module, name):
    assert getattr(tautrings, name) is getattr(import_module(f"tautrings.{module}"), name)


def test_submodules_and_version_resolve():
    for module in EXPORTS:
        assert getattr(tautrings, module) is import_module(f"tautrings.{module}")
    assert tautrings.__version__ == "0.1.0"


def test_dir_and_star_import_list_every_name():
    names = {name for _, name in NAMES} | set(EXPORTS)
    assert names <= set(dir(tautrings))
    namespace = {}
    exec("from tautrings import *", namespace)
    assert names <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        tautrings.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from tautrings import no_such_name", {})


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

P = 2 ** 61 - 1


def test_certificate_record():
    cert = Certificate(5, P)
    assert repr(cert) == "Certificate(max_sigma=5, prime=2305843009213693951)"
    assert (cert.max_sigma, cert.prime) == (5, P)
    assert Certificate(prime=P, max_sigma=5) == cert
    assert hash(Certificate(5, P)) == hash(cert)
    assert cert != Certificate(7, P)
    with pytest.raises(AttributeError):
        cert.prime = 3


def test_ring_model_record():
    model = RingModel(3, "gens", [], "quotient")
    assert model.certificate is None
    assert repr(model) == ("RingModel(genus=3, gens='gens', relations=[], "
                           "quotient='quotient', certificate=None)")
    cert = Certificate(5, P)
    again = RingModel(certificate=cert, quotient="quotient", relations=[],
                      gens="gens", genus=3)
    assert again.certificate is cert and again != model
    assert again == RingModel(3, "gens", [], "quotient", cert)
    ring = build_ring(4)
    assert ring == RingModel(ring.genus, ring.gens, ring.relations,
                             ring.quotient, ring.certificate)


def test_quotient_report_record():
    report = gorenstein_check(5)
    assert repr(report) == ("QuotientReport(max_degree=3, dims=[1, 1, 1, 1], "
                            "socle_dim=1, pairing_ranks=[1, 1, 1, 1], "
                            "gorenstein=True)")
    assert report == QuotientReport(3, [1, 1, 1, 1], 1, [1, 1, 1, 1], True)
    assert report == QuotientReport(max_degree=3, dims=[1, 1, 1, 1], socle_dim=1,
                                    pairing_ranks=[1, 1, 1, 1], gorenstein=True)
    assert report != QuotientReport(3, [1, 1, 1, 1], 1, None, None)


def test_kappa_relation_record():
    rel = fz_relation_set(5, 3)[0]
    assert repr(rel) == ("KappaRelation(source='FZ', genus=5, r=2, index=(), "
                         "polynomial=(1800)*kappa_1^2 + (-25920)*kappa_2)")
    assert rel == KappaRelation("FZ", 5, 2, (), rel.polynomial)
    assert rel == KappaRelation(polynomial=rel.polynomial, index=(), r=2,
                                genus=5, source="FZ")
    assert rel != KappaRelation("SQ", 5, 2, (), rel.polynomial)
    with pytest.raises(AttributeError):
        rel.genus = 6


def test_jac_context_record():
    ctx = JacContext(3)
    assert repr(ctx) == "JacContext(genus=3)"
    assert JacContext(genus=3) == ctx and ctx != JacContext(2)
    assert hash(JacContext(3)) == hash(ctx)
    with pytest.raises(AttributeError):
        ctx.genus = 4
    for bad in (0, -1, True, 1.0, "2"):
        with pytest.raises(ValueError, match="genus must be an int >= 1"):
            JacContext(bad)


def test_jac_context_replace_checks_genus():
    assert JacContext(3)._replace(genus=2) == JacContext(2)
    with pytest.raises(ValueError, match="genus must be an int >= 1"):
        JacContext(3)._replace(genus=0)
    with pytest.raises(ValueError, match="genus must be an int >= 1"):
        JacContext._make([0])
