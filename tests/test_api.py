"""The public API, pinned: any change to a module's ``__all__`` shows up as a diff of this file."""

import importlib

import pytest

import circulant4

PUBLIC = {
    "circulant4": [
        "__version__",
        "CirculantCoeffs", "apply_q", "det_qorbit", "inner", "is_admissible",
        "metric_det_closed", "metric_eigenvalues", "metric_matrix",
        "qbase_polynomial", "qbase_predicate",
        "SectionalReport", "christoffel", "identity_suite",
        "nabla_q_residual", "q_invariance_residual", "q_section_curvatures",
        "riemann", "sectional",
        "FieldFamilySpec", "FieldJet", "coeffs_at", "eval_jet",
        "make_custom_family", "make_family", "parallel_residual",
        "ClosedFormFrameReport", "FrameResidual",
        "closed_form_frame", "spectral_frame", "verify_frame",
        "PyramidReport", "pyramid_report",
        "ConfigError", "RunConfig", "run_verify",
    ],
    "circulant4.algebra": [
        "CirculantCoeffs", "Q_MATRIX", "as_vector4", "apply_q", "metric_matrix", "metric_det_closed",
        "metric_eigenvalues", "is_admissible", "inner", "qbase_predicate", "qbase_polynomial", "det_qorbit",
    ],
    "circulant4.curvature": [
        "SectionalReport", "PointGeometry", "point_geometry", "christoffel", "nabla_q_residual",
        "riemann", "sectional", "q_section_curvatures", "identity_suite", "q_invariance_residual",
        "symmetry_residuals", "random_qbase_seeds",
    ],
    "circulant4.fields": [
        "FieldFamilySpec", "FieldJet", "make_family", "make_custom_family", "coeffs_at", "eval_jet",
        "eval_jets", "gradient_residual", "parallel_residual",
    ],
    "circulant4.frames": [
        "FrameResidual", "ClosedFormFrameReport", "spectral_frame", "spectral_frame_residuals",
        "closed_form_frame", "verify_frame",
    ],
    "circulant4.pyramid": ["PyramidReport", "pyramid_report"],
    "circulant4.reporting": ["ConfigError", "RunConfig", "run_verify", "report_to_csv", "report_json"],
}


@pytest.mark.parametrize("name", list(PUBLIC))
def test_all_is_pinned(name):
    assert importlib.import_module(name).__all__ == PUBLIC[name]


@pytest.mark.parametrize("name", list(PUBLIC))
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_names_are_the_modules_objects():
    # The package re-exports each name from exactly one module, not a copy.
    owners = [importlib.import_module(name) for name in PUBLIC if name != "circulant4"]
    for attr in circulant4.__all__[1:]:
        assert any(getattr(m, attr, None) is getattr(circulant4, attr) for m in owners), attr


def test_removed_members_stay_removed():
    from circulant4 import curvature, frames

    # riemann returns the array R and spectral_frame the seed, with no record type around either; the one
    # connection inverts g in closed form, with no public route through np.linalg.inv.
    for module, name in [(circulant4, "CurvatureTensor"), (curvature, "CurvatureTensor"), (circulant4, "QFrame"),
                         (frames, "QFrame"), (curvature, "metric_derivatives"), (curvature, "riemann_core")]:
        assert not hasattr(module, name), name

    assert not hasattr(circulant4.CirculantCoeffs, "admissible")
    assert not hasattr(circulant4.FieldJet, "parallel_residual")
    assert not hasattr(curvature.PointGeometry, "from_jets")


def test_config_has_one_parse():
    # Points and seeds are checked when the config is parsed; no check is left for after it.
    assert not hasattr(circulant4.RunConfig, "check_point")
    assert not hasattr(circulant4.RunConfig, "check_seed")
