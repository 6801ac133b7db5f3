import ast
import dataclasses
from pathlib import Path
from types import ModuleType

import pytest

import spde_ergo
import spde_ergo.cli
from spde_ergo.cli import RunConfig
from spde_ergo.ergodic import EnsembleConfig
from spde_ergo.model import CoefficientModel, ModelConstants
from spde_ergo.scheme import SchemeParams

RETIRED = ("PathState", "PathResult", "StepDiagnostics", "dieg_step",
           "convolution_update", "gaussian_increments",
           "SpectralCoeffs", "PhysicalGrid", "basis_eval", "synthesize", "analyze",
           "nemytskii_drift", "nemytskii_jacobian", "noise_matrix",
           "validate_nondegeneracy", "NondegeneracyResult",
           "multiplicative_increment", "RunningAverage", "LyapunovReference",
           "drift_quadrature_floor", "noise_quadrature_floor",
           "zero_model", "resolvent_apply", "sobolev_norm",
           "PAPER_PRESET", "serialize_config",
           "functional_eval", "implicit_solve")


def test_all_names_no_module():
    assert spde_ergo.__all__
    for name in spde_ergo.__all__:
        assert not isinstance(getattr(spde_ergo, name), ModuleType), name


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_gone(name):
    assert name not in spde_ergo.__all__
    for module in (spde_ergo, spde_ergo.scheme, spde_ergo.noise,
                   spde_ergo.spectral, spde_ergo.model, spde_ergo.ergodic,
                   spde_ergo.cli):
        assert not hasattr(module, name)


def _program_references(tree: ast.AST) -> set[str]:
    """Names a module's code uses, by Name, Attribute and ImportFrom nodes;
    a use inside the function or class of the same name does not count."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        used = []
        if isinstance(node, ast.Name):
            used = [node.id]
        elif isinstance(node, ast.Attribute):
            used = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            used = [alias.name for alias in node.names]
        found.update(name for name in used if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_program_caller():
    # Strings such as __all__ entries and docstrings are no references.
    package = Path(spde_ergo.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _program_references(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(spde_ergo.__all__) - used) == []


def test_every_input_field_has_a_program_reader():
    # A field that no program code loads is an input that changes nothing.
    package = Path(spde_ergo.__file__).parent
    loaded = {node.attr
              for path in package.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.__name__}.{field.name}"
              for cls in (ModelConstants, CoefficientModel, SchemeParams,
                          EnsembleConfig, RunConfig)
              for field in dataclasses.fields(cls) if field.name not in loaded]
    assert unread == []
