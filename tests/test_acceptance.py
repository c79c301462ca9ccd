"""Acceptance gate: every promised behavior at its stated tolerance.

Each criterion is one test that prints a PASS/FAIL line per sub-check and a
one-line verdict for the criterion, so `pytest -v` (or running this file
directly) reads as a checklist.
"""

import io
import contextlib

import numpy as np

from unsteer import (
    BellDiagonalParams,
    CLASSICAL_AT_DIMENSION,
    InfeasibilityTrace,
    LhvLhsModel,
    SUPERUNSTEERABLE,
    WITNESSED_STEERABLE,
    bell_diagonal,
    box_from_state,
    build_lhs_model_2set,
    build_lhs_model_3set,
    canonical_form,
    canonical_split_2set,
    canonical_split_3set,
    certify_quantumness,
    estimate_params_from_box,
    pauli_axes,
    rac_classical_bound,
    rac_efficiency_bd,
    schrodinger_strength_bb84,
    schrodinger_strength_bd,
    search_lhs_bounded,
    simulate_rac,
    optimal_rac_spec,
    optimize_rac,
    steering_cost_bb84,
    steering_cost_split_bb84,
    steering_functional,
    sweep_separable_max,
    three_set_remainder,
    two_set_remainder,
    verify_lhv_lhs,
    white_noise_bb84,
)
from unsteer.cli import main as cli_main

from oracles import partial_transpose_loops, random_physical_triple

BANNER = "=" * 70
INV_SQRT2 = 1.0 / np.sqrt(2.0)


class Checker:
    """Collects named pass/fail checks and prints one line per check."""

    def __init__(self, title):
        self.title = title
        self.passed = 0
        self.failed = 0
        print(f"\n{BANNER}\n{title}\n{BANNER}")

    def check(self, name, cond):
        if cond:
            self.passed += 1
            print(f"  PASS  {name}")
        else:
            self.failed += 1
            print(f"  FAIL  {name}")

    def finish(self):
        verdict = "PASS" if self.failed == 0 else "FAIL"
        print(f"{verdict}  {self.title} ({self.passed} passed, {self.failed} failed)")
        assert self.failed == 0, f"{self.failed} checks failed in: {self.title}"


def grid_canonical(step=0.05):
    """Physical canonical triples with c3 <= 0 on the step grid."""
    m = int(round(1.0 / step))
    out = []
    for i1 in range(m + 1):
        for i2 in range(i1 + 1):
            for i3 in range(i2 + 1):
                params = BellDiagonalParams(i1 * step, i2 * step, -i3 * step + 0.0)
                try:
                    params.validate()
                except Exception:
                    continue
                out.append(params)
    return out


def test_criterion_1_strength_formulas_and_splits():
    """Strength closed forms; both canonical splits reconstruct with PPT remainders."""
    c = Checker("criterion 1: strength formulas and canonical splits (0.05 grid)")
    grid = grid_canonical(0.05)
    c.check(f"grid has {len(grid)} physical canonical triples", len(grid) > 200)

    strengths_ok = all(
        schrodinger_strength_bd(p, 2) == abs(p.c2)
        and schrodinger_strength_bd(p, 3) == abs(p.c3)
        for p in grid
    )
    c.check("strength(n=2) = |c2'| and strength(n=3) = |c3'| on the grid", strengths_ok)

    dev2 = dev3 = 0.0
    ppt_ok = True
    for p in grid:
        target = bell_diagonal(p)
        s2 = canonical_split_2set(p)
        s3 = canonical_split_3set(p)
        dev2 = max(dev2, float(np.abs(s2.reconstruct() - target).max()))
        dev3 = max(dev3, float(np.abs(s3.reconstruct() - target).max()))
        for rem in (two_set_remainder(p), three_set_remainder(p)):
            pt_min = np.linalg.eigvalsh(
                partial_transpose_loops(bell_diagonal(rem))
            ).min()
            ppt_ok = ppt_ok and pt_min >= -1e-12
    c.check(f"2-setting split reconstructs tau: max dev {dev2:.3g} <= 1e-12", dev2 <= 1e-12)
    c.check(f"3-setting split reconstructs tau: max dev {dev3:.3g} <= 1e-12", dev3 <= 1e-12)
    c.check("all remainders are PPT-separable", ppt_ok)
    c.finish()


def test_criterion_2_hidden_state_models():
    """Closed-form d=2 and d=4 models hit their target boxes on the grid."""
    c = Checker("criterion 2: closed-form hidden-state models (0.05 grid)")
    grid = grid_canonical(0.05)
    dev2 = dev3 = 0.0
    bloch_max = 0.0
    for p in grid:
        m2 = build_lhs_model_2set(p)
        t2 = box_from_state(
            bell_diagonal(two_set_remainder(p)), pauli_axes(2), pauli_axes(2)
        )
        dev2 = max(dev2, verify_lhv_lhs(m2, t2, 1e-10)[1])
        m3 = build_lhs_model_3set(p)
        t3 = box_from_state(
            bell_diagonal(three_set_remainder(p)), pauli_axes(3), pauli_axes(3)
        )
        dev3 = max(dev3, verify_lhv_lhs(m3, t3, 1e-10)[1])
        bloch_max = max(
            bloch_max,
            float(np.linalg.norm(m2.bob_states, axis=1).max()),
            float(np.linalg.norm(m3.bob_states, axis=1).max()),
        )
    c.check(f"two-state model max dev {dev2:.3g} <= 1e-10", dev2 <= 1e-10)
    c.check(f"four-state model max dev {dev3:.3g} <= 1e-10", dev3 <= 1e-10)
    c.check(f"all Bloch norms {bloch_max:.12f} <= 1 + 1e-10", bloch_max <= 1 + 1e-10)
    c.finish()


def test_criterion_3_superunsteerability():
    """Two-setting boxes with c2 > 0 need d > 2; c2 = 0 is classical at 2."""
    c = Checker("criterion 3: bounded-dimension certification of two-setting boxes")
    points = []
    for c2 in (1e-3, 0.01, 0.05, 0.1, 0.25, 0.5):
        for c1 in (c2, 0.3, 0.6, 0.9, float(np.sqrt(1.0 - c2 * c2))):
            if c1 >= c2 and c1 * c1 + c2 * c2 <= 1.0 + 1e-15:
                points.append((c1, c2))
    points.append((INV_SQRT2, INV_SQRT2))

    all_ok = True
    for c1, c2 in points:
        c3 = min(0.0, 1.0 - c1 - c2)
        box = box_from_state(
            bell_diagonal(BellDiagonalParams(c1, c2, c3)), pauli_axes(2), pauli_axes(2)
        )
        low = search_lhs_bounded(box, pauli_axes(2), 2)
        high = search_lhs_bounded(box, pauli_axes(2), 4)
        verdict = certify_quantumness(box, 2).verdict
        ok = (
            isinstance(low, InfeasibilityTrace)
            and low.sound
            and low.exhaustive
            and isinstance(high, LhvLhsModel)
            and verdict == SUPERUNSTEERABLE
        )
        all_ok = all_ok and ok
        if not ok:
            print(f"        unexpected outcome at c1={c1}, c2={c2}: {verdict}")
    c.check(
        f"{len(points)} boxes with c2 in [1e-3, 0.71]: d=2 infeasible, "
        "d=4 feasible, verdict SUPERUNSTEERABLE",
        all_ok,
    )

    classical_ok = True
    for c1 in (0.0, 0.3, 0.7, 1.0):
        box = box_from_state(
            bell_diagonal(BellDiagonalParams(c1, 0.0, 0.0)), pauli_axes(2), pauli_axes(2)
        )
        classical_ok = classical_ok and (
            certify_quantumness(box, 2).verdict == CLASSICAL_AT_DIMENSION
        )
    c.check("c2 = 0 boxes are CLASSICAL_AT_DIMENSION", classical_ok)
    c.finish()


def test_criterion_4_bb84_family():
    """Witness value, threshold behavior, and both steerable-weight curves."""
    c = Checker("criterion 4: white-noise family curves")
    vs = np.linspace(0.0, 1.0, 101)
    func_dev = max(
        abs(steering_functional(white_noise_bb84(float(v)), 2) - np.sqrt(2.0) * v)
        for v in vs
    )
    c.check(f"functional = sqrt(2) V: max dev {func_dev:.3g} <= 1e-12", func_dev <= 1e-12)

    below = [float(v) for v in vs if v <= INV_SQRT2] + [INV_SQRT2 - 2e-9, INV_SQRT2]
    above = [float(v) for v in vs if v > INV_SQRT2 + 1e-9] + [INV_SQRT2 + 2e-9]
    witness_ok = all(
        certify_quantumness(white_noise_bb84(v), 2).verdict != WITNESSED_STEERABLE
        for v in below
    ) and all(
        certify_quantumness(white_noise_bb84(v), 2).verdict == WITNESSED_STEERABLE
        for v in above
    )
    c.check(
        "witness verdict flips at the steering threshold (probes straddle "
        "V = 1/sqrt(2) + 1e-9)",
        witness_ok,
    )

    c.check("steering cost at V = 1 is exactly 1", steering_cost_bb84(1.0) == 1.0)

    cost_dev = 0.0
    for v in (0.75, 0.85, 0.95, 1.0):
        split = steering_cost_split_bb84(v)
        cost_dev = max(
            cost_dev, float(np.abs(split.reconstruct().p - white_noise_bb84(v).p).max())
        )
    c.check(f"cost split reconstructs entrywise: max dev {cost_dev:.3g} <= 1e-12",
            cost_dev <= 1e-12)

    strength_ok = True
    strength_dev = 0.0
    for v in (0.0, 0.3, INV_SQRT2, 0.9, 1.0):
        strength, split = schrodinger_strength_bb84(v)
        strength_ok = strength_ok and strength == v
        strength_dev = max(
            strength_dev,
            float(np.abs(split.reconstruct().p - white_noise_bb84(v).p).max()),
        )
    c.check("strength(V) = V exactly", strength_ok)
    c.check(f"strength split reconstructs entrywise: max dev {strength_dev:.3g} <= 1e-12",
            strength_dev <= 1e-12)
    c.finish()


def test_criterion_5_rac_numbers():
    """Efficiency landmarks, exact simulation, and free optimization."""
    c = Checker("criterion 5: random access code numbers")
    eff2 = rac_efficiency_bd(BellDiagonalParams(0.5, 0.5, 0.0), 2)
    eff3 = rac_efficiency_bd(BellDiagonalParams(1 / 3, 1 / 3, -1 / 3), 3)
    c.check(f"eff(1/2,1/2,0; n=2) = {eff2:.5f} within 5e-4 of 0.67678",
            abs(eff2 - 0.67678) <= 5e-4)
    c.check(f"eff(1/3,1/3,-1/3; n=3) = {eff3:.5f} within 5e-4 of 0.59623",
            abs(eff3 - 0.59623) <= 5e-4)
    c.check("both beat the classical bounds 2/3 and 1/2",
            eff2 > rac_classical_bound(2) and eff3 > rac_classical_bound(3))

    rng = np.random.default_rng(20260815)
    sim_dev = 0.0
    done = 0
    while done < 1000:
        canon = canonical_form(
            BellDiagonalParams(*random_physical_triple(rng))
        ).canonical
        n = 2 if done % 2 == 0 else 3
        if np.any(canon.as_array()[:n] == 0.0):
            continue
        done += 1
        res = simulate_rac(optimal_rac_spec(canon, n))
        sim_dev = max(sim_dev, abs(res.p_min - rac_efficiency_bd(canon, n)))
    c.check(f"simulation matches closed form on 1000 triples: max dev "
            f"{sim_dev:.3g} <= 1e-12", sim_dev <= 1e-12)

    opt2 = optimize_rac(BellDiagonalParams(0.5, 0.5, 0.0), 2)
    opt3 = optimize_rac(BellDiagonalParams(1 / 3, 1 / 3, -1 / 3), 3)
    c.check(f"optimizer reaches eff2 within 1e-6 (gap {abs(opt2.p_min - eff2):.3g})",
            abs(opt2.p_min - eff2) <= 1e-6)
    c.check(f"optimizer reaches eff3 within 1e-6 (gap {abs(opt3.p_min - eff3):.3g})",
            abs(opt3.p_min - eff3) <= 1e-6)
    c.finish()


def test_criterion_6_sweeps():
    """Step-0.01 sweeps find the known maximizers and a witness pair."""
    c = Checker("criterion 6: separable-grid sweeps at step 0.01")
    rep2 = sweep_separable_max(2, 0.01)
    near2 = np.abs(
        rep2.strength_argmax.as_array() - np.array([0.5, 0.5, 0.0])
    ).max()
    c.check(f"n=2 strength maximizer {tuple(map(float, rep2.strength_argmax.as_array()))} "
            "within one grid step of (1/2, 1/2, 0)", near2 <= 0.01 + 1e-12)
    c.check(f"n=2 max strength {rep2.strength_max} within one step of 1/2",
            abs(rep2.strength_max - 0.5) <= 0.01 + 1e-12)

    rep3 = sweep_separable_max(3, 0.01)
    c.check(f"n=3 strength maximizer has |c3| = {abs(rep3.strength_argmax.c3)} "
            "within one step of 1/3",
            abs(abs(rep3.strength_argmax.c3) - 1 / 3) <= 0.01 + 1e-12)
    c.check(f"n=3 max strength {rep3.strength_max} within one step of 1/3",
            abs(rep3.strength_max - 1 / 3) <= 0.01 + 1e-12)

    c.check("n=2 sweep emits a discord/efficiency witness pair",
            rep2.witness_pair is not None)
    c.check("n=3 sweep emits a discord/efficiency witness pair",
            rep3.witness_pair is not None)
    if rep2.witness_pair is not None:
        low, high = rep2.witness_pair
        c.check("witness pair: higher discord, strictly lower efficiency",
                high["discord"] > low["discord"]
                and high["efficiency"] < low["efficiency"])
    c.finish()


def test_criterion_7_property_suites():
    """Random-instance invariants and byte-stable command-line reports."""
    c = Checker("criterion 7: property suites")
    rng = np.random.default_rng(7071)

    worst = 0.0
    for k in range(10_000):
        params = BellDiagonalParams(*random_physical_triple(rng))
        n = 2 + (k % 2)
        dirs_a = rng.normal(size=(n, 3))
        dirs_a /= np.linalg.norm(dirs_a, axis=1, keepdims=True)
        dirs_b = rng.normal(size=(n, 3))
        dirs_b /= np.linalg.norm(dirs_b, axis=1, keepdims=True)
        from unsteer import MeasurementSet

        box = box_from_state(
            bell_diagonal(params), MeasurementSet(dirs_a), MeasurementSet(dirs_b)
        )
        totals = box.p.sum(axis=(2, 3))
        worst = max(worst, float(np.abs(totals - 1.0).max()))
        alice = box.p.sum(axis=3)
        worst = max(worst, float(np.abs(alice - alice[:, :1, :]).max()))
        bob = box.p.sum(axis=2)
        worst = max(worst, float(np.abs(bob - bob[:1, :, :]).max()))
    c.check(f"10^4 random boxes: normalization/no-signaling max dev "
            f"{worst:.3g} <= 1e-12", worst <= 1e-12)

    cost_ok = all(
        steering_cost_bb84(float(v)) <= float(v) + 1e-15
        for v in np.linspace(0.0, 1.0, 100)
    )
    c.check("cost <= strength on 100 V values", cost_ok)

    order_ok = True
    for _ in range(1000):
        p = BellDiagonalParams(*random_physical_triple(rng))
        order_ok = order_ok and (
            schrodinger_strength_bd(p, 2) >= schrodinger_strength_bd(p, 3)
        )
    c.check("strength(n=2) >= strength(n=3) on 10^3 triples", order_ok)

    est_dev = 0.0
    for _ in range(1000):
        p = BellDiagonalParams(*random_physical_triple(rng))
        box = box_from_state(bell_diagonal(p), pauli_axes(3), pauli_axes(3))
        est = estimate_params_from_box(box)
        est_dev = max(est_dev, float(np.abs(est.as_array() - p.as_array()).max()))
    c.check(f"estimate round-trip on aligned boxes: max dev {est_dev:.3g} <= 1e-12",
            est_dev <= 1e-12)

    def capture(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        return code, out.getvalue()

    byte_ok = True
    for argv in (
        ["state", "--c", "0.6,0.4,-0.2"],
        ["certify", "--c", "0.5,0.5,0"],
        ["rac", "--c", "0.5,0.5,0", "--n", "2"],
        ["sweep", "--n", "2", "--step", "0.05"],
        ["bb84", "--step", "0.1"],
    ):
        code1, first = capture(argv)
        code2, second = capture(argv)
        byte_ok = byte_ok and code1 == 0 and code2 == 0 and first == second
    c.check("repeated command-line reports are byte-identical", byte_ok)
    c.finish()


if __name__ == "__main__":
    import sys

    failures = []
    for fn in (
        test_criterion_1_strength_formulas_and_splits,
        test_criterion_2_hidden_state_models,
        test_criterion_3_superunsteerability,
        test_criterion_4_bb84_family,
        test_criterion_5_rac_numbers,
        test_criterion_6_sweeps,
        test_criterion_7_property_suites,
    ):
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{fn.__name__}: {exc}")
    print(f"\n{BANNER}")
    if failures:
        print(f"ACCEPTANCE: {len(failures)} criterion(s) failed")
        for line in failures:
            print(f"  {line}")
        sys.exit(1)
    print("ACCEPTANCE: all 7 criteria passed")
