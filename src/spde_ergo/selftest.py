"""Fast built-in invariant suites for the `selftest` subcommand.

Each suite is a pure check that runs in well under a second and guards one
structural property: transform exactness, geometric-sum closed form,
strict monotonicity of the implicit operator, Newton uniqueness, Jacobian
consistency, and stream determinism. The operator suites check the
engine's own scheme._Workspace: its residual(x, 0) is
F_hat(x) = (I + tau Lambda) x - tau P_N F(x), and its newton_matrix is the
Jacobian of F_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import allen_cahn_model, validate_step_constraint
from .noise import NoiseStream
from .scheme import SchemeParams, _Workspace, run_path
from .spectral import basis_matrix, geometric_decay_sum

__all__ = ["SuiteResult", "run_selftest"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _suite_parseval(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 16))
        q = int(rng.integers(n, 4 * n + 8))
        c = rng.standard_normal(n)
        mat = basis_matrix(n, q)
        back = mat.T @ (mat @ c) / (q + 1)
        worst = max(worst, float(np.max(np.abs(back - c))))
    return worst <= 1e-12, f"max roundtrip error {worst:.3e}"


def _suite_geometric_sum(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.5, 2000.0))
        tau = float(rng.uniform(0.001, 0.9))
        j = int(rng.integers(1, 1001))
        r = (1.0 + tau * lam) ** -2
        brute = float(np.sum(r ** np.arange(1, j + 1)))
        closed = geometric_decay_sum(lam, tau, j)
        worst = max(worst, abs(closed - brute) / brute)
    return worst <= 1e-12, f"max relative error {worst:.3e}"


def _paper_setup():
    model = allen_cahn_model(0.5)
    params = SchemeParams(n_modes=10, tau=0.05)
    return model, params


def _suite_monotonicity(rng) -> tuple[bool, str]:
    model, params = _paper_setup()
    c0 = validate_step_constraint(model.constants, params.tau).c0
    hat_f = _Workspace(params, model).residual
    pairs = rng.standard_normal((1000, 2, params.n_modes))
    x, y = pairs[:, 0], pairs[:, 1]
    d = x - y
    fd = hat_f(x, 0.0) - hat_f(y, 0.0)
    worst_ip = float(np.min(np.sum(d * fd, axis=1) - c0 * np.sum(d * d, axis=1)))
    worst_exp = float(np.min(np.linalg.norm(fd, axis=1)
                             - c0 * np.linalg.norm(d, axis=1)))
    ok = worst_ip >= -1e-8 and worst_exp >= -1e-8
    return ok, (f"min margins: inner product {worst_ip:.3e}, "
                f"expansion {worst_exp:.3e}")


def _suite_newton_uniqueness(rng) -> tuple[bool, str]:
    model, params = _paper_setup()
    newton = _Workspace(params, model).newton
    worst = 0.0
    for _ in range(20):
        rhs = rng.standard_normal((1, params.n_modes))
        a, _, _ = newton(rhs, rng.standard_normal((1, 10)))
        b, _, _ = newton(rhs, rng.standard_normal((1, 10)))
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst <= 1e-8, f"max solution spread {worst:.3e}"


def _suite_jacobian_fd(rng) -> tuple[bool, str]:
    model, params = _paper_setup()
    ws = _Workspace(params, model)
    worst = 0.0
    h = 1e-6
    for _ in range(10):
        x = rng.standard_normal(params.n_modes)
        jac = ws.newton_matrix(x[None])[0]
        scale = np.max(np.abs(jac)) + 1.0
        # Row m of x + h I (of x - h I) is x moved by h along mode m.
        shift = h * np.eye(params.n_modes)
        fd = (ws.residual(x + shift, 0.0) - ws.residual(x - shift, 0.0)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd.T - jac))) / scale)
    return worst <= 1e-6, f"max relative FD mismatch {worst:.3e}"


def _suite_cubic_projection(rng) -> tuple[bool, str]:
    # for f = 4(u - u^3) and x = a e_1 the projection has the closed form
    # (4a - 6a^3, 0, 2a^3, 0), from int sin^4 = 3/8, int sin^3 sin(3.) = -1/8
    model, params = _paper_setup()
    ops = _Workspace(replace(params, n_modes=4), model)  # drift quadrature 8
    worst = 0.0
    for _ in range(20):
        a = float(rng.uniform(-2.0, 2.0))
        c = np.array([a, 0.0, 0.0, 0.0])
        out = ops.drift(c[None])[0]
        expected = np.array([4 * a - 6 * a**3, 0.0, 2 * a**3, 0.0])
        worst = max(worst, float(np.max(np.abs(out - expected))))
    return worst <= 1e-10, f"max deviation from closed form {worst:.3e}"


def _suite_determinism(rng) -> tuple[bool, str]:
    model, params = _paper_setup()
    x0 = rng.standard_normal(params.n_modes) * 0.3
    runs = []
    for _ in range(2):
        states = []
        run_path(x0, 50, params, model, NoiseStream(master_seed=12345, path_index=7),
                 observers=(lambda step, x, w: states.append((x.copy(), w.copy())),))
        runs.append(np.array(states))
    same = np.array_equal(runs[0], runs[1])
    return same, "bit-identical replay" if same else "replay mismatch"


_SUITES = (
    ("parseval_roundtrip", _suite_parseval),
    ("geometric_sum", _suite_geometric_sum),
    ("strict_monotonicity", _suite_monotonicity),
    ("newton_uniqueness", _suite_newton_uniqueness),
    ("jacobian_fd", _suite_jacobian_fd),
    ("cubic_projection", _suite_cubic_projection),
    ("determinism", _suite_determinism),
)


def run_selftest() -> list[SuiteResult]:
    """Run every fast invariant suite; suite i samples with default_rng(i).

    A suite that raises fails with the exception as its detail, and the
    later suites still run.
    """
    results = []
    for i, (name, suite) in enumerate(_SUITES):
        try:
            passed, detail = suite(np.random.default_rng(i))
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, passed, detail))
    return results
