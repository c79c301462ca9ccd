"""The package's public surface and what importing it loads."""

import dataclasses
import os
import subprocess
import sys
from types import ModuleType

import numpy as np
import pytest
import scipy.optimize

import unsteer


def test_every_exported_name_resolves():
    """Each name in __all__ exists, a star import binds all of them, and
    __all__ holds __version__ and no submodule."""
    missing = [name for name in unsteer.__all__ if not hasattr(unsteer, name)]
    assert missing == []
    namespace: dict = {}
    exec("from unsteer import *", namespace)
    assert set(unsteer.__all__) <= set(namespace)
    assert "__version__" in unsteer.__all__
    values = [getattr(unsteer, name) for name in unsteer.__all__]
    assert not [value for value in values if isinstance(value, ModuleType)]


_PARAMS = unsteer.BellDiagonalParams(0.5, 0.4, -0.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: unsteer.pauli_axes(n),
        lambda n: unsteer.schrodinger_strength_bd(_PARAMS, n),
        lambda n: unsteer.canonical_box_split(_PARAMS, n),
        lambda n: unsteer.RacSpec(n, _PARAMS, np.zeros((2**n, 3))),
        lambda n: unsteer.rac_classical_bound(n),
        lambda n: unsteer.rac_efficiency_bd(_PARAMS, n),
        lambda n: unsteer.encoding_directions(_PARAMS, n),
        lambda n: unsteer.optimize_rac(_PARAMS, n),
        lambda n: unsteer.sweep_separable_max(n),
    ],
    ids=[
        "pauli_axes",
        "schrodinger_strength_bd",
        "canonical_box_split",
        "RacSpec",
        "rac_classical_bound",
        "rac_efficiency_bd",
        "encoding_directions",
        "optimize_rac",
        "sweep_separable_max",
    ],
)
def test_one_settings_count_check(call):
    """Every n-setting entry point rejects n = 4 with UnsupportedN, which is
    also an OutOfRange, and with one message."""
    with pytest.raises(unsteer.UnsupportedN, match="^n must be 2 or 3, got 4$") as info:
        call(4)
    assert isinstance(info.value, unsteer.OutOfRange)


def test_error_messages_print_plain_numbers():
    """A message that quotes a computed number prints it as Python prints an
    int or a float, never as a numpy repr such as np.float64(0.9)."""
    model = unsteer.build_lhs_model_2set(unsteer.BellDiagonalParams(0.5, 0.5, 0.0))
    light = dataclasses.replace(model, weights=0.9 * np.asarray(model.weights))
    calls = [
        lambda: unsteer.Box(2, np.full((2, 2, 2, 2), np.nan)).validate(),
        lambda: unsteer.verify_lhv_lhs(light, model.reconstruct_box(), 1e-9),
        lambda: unsteer.RacSpec(2, _PARAMS, np.ones((4, 3))),
        lambda: unsteer.projector_matrix(unsteer.Projector(np.array([1.0, 1.0, 0.0]), 0)),
    ]
    messages = []
    for call in calls:
        with pytest.raises(unsteer.UnsteerError) as info:
            call()
        messages.append(str(info.value))
    assert [m for m in messages if "np." in m] == []
    assert "(x,y)=(0, 0): sum=nan" in messages[0]
    assert "weights sum to 0.9" in messages[1]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(args):
    """Run a fresh interpreter with the package on its path; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def test_import_and_version_leave_scipy_unloaded():
    """Only the hidden-state search and optimize_rac load scipy, so importing
    the package and its CLI, or printing the version, never does."""
    out, _ = run_fresh(
        ["-c", "import sys, unsteer, unsteer.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
    )
    assert out.strip() == "[]"
    out, err = run_fresh(["-X", "importtime", "-m", "unsteer", "--version"])
    assert out.strip() == f"unsteer {unsteer.__version__}"
    imported = [line.rsplit("|", 1)[-1].strip() for line in err.splitlines()]
    assert "unsteer.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]



_BD_BOX = """
axes = u.pauli_axes({n})
box = u.box_from_state(u.bell_diagonal(u.BellDiagonalParams(0.5, 0.4, -0.3)), axes, axes)
print(u.certify_quantumness(box, {n}, d_A={d}).verdict)
"""


@pytest.mark.parametrize(
    "calls, printed, loads_scipy",
    [
        (
            "u.sweep_separable_max(2, 0.1)\n"
            "p = u.BellDiagonalParams(0.6, 0.5, -0.4)\n"
            "u.simulate_rac(u.optimal_rac_spec(p, 3))\n"
            "u.schrodinger_strength_bd(p, 3), u.canonical_box_split(p, 2)",
            [],
            False,
        ),
        (_BD_BOX.format(n=2, d=2), ["SUPERUNSTEERABLE"], False),
        (_BD_BOX.format(n=3, d=3), ["SUPERUNSTEERABLE"], False),
        (_BD_BOX.format(n=2, d=3), ["UNDECIDED"], True),
        ("u.optimize_rac(u.BellDiagonalParams(0.6, 0.5, -0.4), 3)", [], True),
    ],
    ids=["closed_forms", "certify_n2_d2", "certify_n3_d3", "certify_n2_d3", "optimize_rac"],
)
def test_scipy_loaded_where_a_solver_calls_it(calls, printed, loads_scipy):
    """scipy is imported by the SLSQP refinement and by Nelder-Mead, and by
    nothing else: closed forms and a Bell-diagonal certificate that never
    refines load none, while the (2, 3) certificate, which reaches SLSQP,
    and optimize_rac load it."""
    script = f"import sys\nimport unsteer as u\n{calls}\nprint('scipy' in sys.modules)\n"
    out, _ = run_fresh(["-c", script])
    assert out.splitlines() == [*printed, str(loads_scipy)]


FRESH_SOLVES = """
import json, sys
import unsteer as u
from unsteer.cli import dumps_deterministic
assert "scipy" not in sys.modules
rac = u.optimize_rac(u.BellDiagonalParams(0.6, 0.5, -0.4), 3)
axes = u.pauli_axes(2)
box = u.box_from_state(u.bell_diagonal(u.BellDiagonalParams(0.5, 0.4, -0.3)), axes, axes)
cert = u.certify_quantumness(box, 2, d_A=3)
print(dumps_deterministic({"p_min": rac.p_min, "table": rac.table}))
print(dumps_deterministic(cert.to_json_dict()))
"""


def test_lazy_scipy_gives_in_process_results():
    """Nelder-Mead and an SLSQP-refining certificate, run in an interpreter
    that loads scipy on first use, equal the in-process results bit for bit."""
    from unsteer.cli import dumps_deterministic

    rac = unsteer.optimize_rac(unsteer.BellDiagonalParams(0.6, 0.5, -0.4), 3)
    axes = unsteer.pauli_axes(2)
    box = unsteer.box_from_state(
        unsteer.bell_diagonal(unsteer.BellDiagonalParams(0.5, 0.4, -0.3)), axes, axes
    )
    calls = []
    minimize = scipy.optimize.minimize

    def counting_minimize(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return minimize(*args, **kwargs)

    scipy.optimize.minimize = counting_minimize
    try:
        cert = unsteer.certify_quantumness(box, 2, d_A=3)
    finally:
        scipy.optimize.minimize = minimize
    assert "SLSQP" in calls
    out, _ = run_fresh(["-c", FRESH_SOLVES])
    assert out.splitlines() == [
        dumps_deterministic({"p_min": rac.p_min, "table": rac.table}),
        dumps_deterministic(cert.to_json_dict()),
    ]
