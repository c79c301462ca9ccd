"""The package's public surface and what importing it loads."""

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



SCIPY_BY_SEARCH = """
import sys
import unsteer as u
loaded = lambda: any(m.split(".")[0] == "scipy" for m in sys.modules)
axes = u.pauli_axes(2)
box = u.box_from_state(u.bell_diagonal(u.BellDiagonalParams(0.0, 0.0, 0.0)), axes, axes)
u.sweep_separable_max(2, 0.1)
u.simulate_rac(u.optimal_rac_spec(u.BellDiagonalParams(0.6, 0.5, -0.4), 3))
print(loaded())
model = u.search_lhs_bounded(box, axes, 1)
print(type(model).__name__, loaded())
"""


def test_every_search_loads_scipy():
    """A search loads scipy even when it never refines (here the d=1 product
    lane answers at once), so a process's memory does not hinge on whether
    some input happens to reach SLSQP; closed-form calls load none."""
    out, _ = run_fresh(["-c", SCIPY_BY_SEARCH])
    assert out.splitlines() == ["False", "LhvLhsModel True"]


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
