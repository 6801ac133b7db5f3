from types import ModuleType

import pytest

import spde_ergo

RETIRED = ("PathState", "PathResult", "StepDiagnostics", "dieg_step",
           "convolution_update", "gaussian_increments",
           "SpectralCoeffs", "PhysicalGrid", "basis_eval", "synthesize", "analyze",
           "nemytskii_drift", "nemytskii_jacobian", "noise_matrix",
           "validate_nondegeneracy", "NondegeneracyResult",
           "multiplicative_increment", "RunningAverage", "LyapunovReference",
           "drift_quadrature_floor", "noise_quadrature_floor",
           "zero_model", "resolvent_apply", "sobolev_norm")


def test_all_names_no_module():
    assert spde_ergo.__all__
    for name in spde_ergo.__all__:
        assert not isinstance(getattr(spde_ergo, name), ModuleType), name


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_gone(name):
    assert name not in spde_ergo.__all__
    for module in (spde_ergo, spde_ergo.scheme, spde_ergo.noise,
                   spde_ergo.spectral, spde_ergo.model, spde_ergo.ergodic):
        assert not hasattr(module, name)
