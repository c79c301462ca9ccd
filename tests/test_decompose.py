"""Convex splits, strength and cost closed forms, and the closed-form models."""

import numpy as np
import pytest

from unsteer import (
    BellDiagonalParams,
    DimensionMismatch,
    InvalidModel,
    OutOfRange,
    PhaseDomainError,
    PreconditionViolated,
    bell_diagonal,
    box_from_state,
    build_lhs_model_2set,
    build_lhs_model_3set,
    canonical_box_split,
    canonical_split_2set,
    canonical_split_3set,
    pauli_axes,
    schrodinger_strength_bb84,
    schrodinger_strength_bd,
    steering_cost_bb84,
    steering_cost_split_bb84,
    three_set_model_parameters,
    three_set_remainder,
    two_set_remainder,
    verify_lhv_lhs,
    white_noise_bb84,
)

from oracles import FROZEN, partial_transpose_loops


def canonical_grid(step=0.05, c3_nonpositive=True):
    """Canonical physical triples on a step grid, c3 <= 0 unless told otherwise."""
    m = int(round(1.0 / step))
    out = []
    for i1 in range(m + 1):
        for i2 in range(i1 + 1):
            for i3 in range(i2 + 1):
                c1, c2, mag = i1 * step, i2 * step, i3 * step
                for c3 in ((-mag,) if c3_nonpositive or mag == 0.0 else (-mag, mag)):
                    candidate = BellDiagonalParams(c1, c2, c3 + 0.0)
                    try:
                        candidate.validate()
                    except Exception:
                        continue
                    out.append(candidate)
    return out


class TestBB84Curves:
    def test_cost_frozen_value(self):
        """steering_cost_bb84(0.9) = (0.9 sqrt(2) - 1)/(sqrt(2) - 1)."""
        assert steering_cost_bb84(0.9) == pytest.approx(
            FROZEN["cost_bb84_09"], abs=1e-15
        )

    def test_cost_endpoints(self):
        """Cost is 0 at and below the threshold and 1 at V = 1."""
        assert steering_cost_bb84(1.0) == pytest.approx(1.0, abs=1e-15)
        assert steering_cost_bb84(1.0 / np.sqrt(2.0)) == 0.0
        assert steering_cost_bb84(0.3) == 0.0

    def test_cost_split_reconstructs(self):
        """cost * box(1) + (1 - cost) * box(1/sqrt(2)) = box(V) above threshold."""
        for v in (0.75, 0.9, 1.0):
            split = steering_cost_split_bb84(v)
            assert split.reconstruct().p == pytest.approx(
                white_noise_bb84(v).p, abs=1e-14
            )

    def test_strength_split_reconstructs(self):
        """V * box(1) + (1 - V) * box(0) = box(V) for every V."""
        for v in (0.0, 0.4, 1.0 / np.sqrt(2.0), 1.0):
            strength, split = schrodinger_strength_bb84(v)
            assert strength == v
            assert split.reconstruct().p == pytest.approx(
                white_noise_bb84(v).p, abs=1e-14
            )

    def test_cost_at_most_strength(self):
        """The minimal steerable weight never exceeds the maximal one."""
        for v in np.linspace(0.0, 1.0, 101):
            assert steering_cost_bb84(float(v)) <= float(v) + 1e-15

    def test_out_of_range(self):
        """V outside [0, 1] is rejected by both curves."""
        with pytest.raises(OutOfRange):
            steering_cost_bb84(1.1)
        with pytest.raises(OutOfRange):
            schrodinger_strength_bb84(-0.2)


class TestStrengthBD:
    def test_two_setting_strength_is_c2(self):
        """strength(n=2) = |c2'| on canonical triples."""
        assert schrodinger_strength_bd(BellDiagonalParams(0.6, 0.4, -0.2), 2) == 0.4

    def test_three_setting_strength_is_abs_c3(self):
        """strength(n=3) = |c3'| on canonical triples."""
        assert schrodinger_strength_bd(BellDiagonalParams(0.6, 0.4, -0.2), 3) == 0.2

    def test_canonicalizes_first(self):
        """Non-canonical input is reduced before the component is read."""
        scrambled = BellDiagonalParams(-0.2, 0.6, 0.4)
        assert schrodinger_strength_bd(scrambled, 2) == pytest.approx(0.4, abs=1e-15)
        assert schrodinger_strength_bd(scrambled, 3) == pytest.approx(0.2, abs=1e-15)

    def test_two_at_least_three(self):
        """|c2'| >= |c3'| always, by the canonical ordering."""
        rng = np.random.default_rng(67)
        from oracles import random_physical_triple

        for _ in range(300):
            p = BellDiagonalParams(*random_physical_triple(rng))
            assert schrodinger_strength_bd(p, 2) >= schrodinger_strength_bd(p, 3)


class TestCanonicalSplits:
    def test_two_set_remainder_frozen(self):
        """Remainder of (0.6, 0.4, -0.2) is (1/3, 0, 1/3)."""
        rem = two_set_remainder(BellDiagonalParams(0.6, 0.4, -0.2))
        assert rem.as_array() == pytest.approx(
            np.array(FROZEN["two_set_remainder_06_04_m02"]), abs=1e-14
        )

    def test_three_set_remainder_frozen(self):
        """Remainder of (0.5, 0.4, -0.2) is (0.375, 0.25, 0)."""
        rem = three_set_remainder(BellDiagonalParams(0.5, 0.4, -0.2))
        assert rem.as_array() == pytest.approx(
            np.array(FROZEN["three_set_remainder_05_04_m02"]), abs=1e-14
        )

    def test_state_split_2set_reconstructs_on_grid(self):
        """tau = c2 beta01 + (1 - c2) rho_rem entrywise on the 0.05 grid."""
        for params in canonical_grid(0.05):
            split = canonical_split_2set(params)
            assert split.weight == params.c2
            assert split.reconstruct() == pytest.approx(
                bell_diagonal(params), abs=1e-12
            )

    def test_state_split_3set_reconstructs_on_grid(self):
        """tau = |c3| beta01 + (1 - |c3|) rho_rem entrywise on the 0.05 grid."""
        for params in canonical_grid(0.05):
            split = canonical_split_3set(params)
            assert split.weight == pytest.approx(abs(min(params.c3, 0.0)), abs=0.0)
            assert split.reconstruct() == pytest.approx(
                bell_diagonal(params), abs=1e-12
            )

    def test_remainders_are_ppt_separable(self):
        """Both remainders pass the partial-transpose test on the grid."""
        for params in canonical_grid(0.05):
            for rem in (two_set_remainder(params), three_set_remainder(params)):
                rho = bell_diagonal(rem.validate())
                assert np.linalg.eigvalsh(partial_transpose_loops(rho)).min() >= -1e-12

    def test_full_weight_edge(self):
        """At c2 = 1 the two-setting remainder collapses to the zero triple."""
        rem = two_set_remainder(BellDiagonalParams(1.0, 1.0, -1.0))
        assert rem.as_array() == pytest.approx(np.zeros(3), abs=0.0)
        rem3 = three_set_remainder(BellDiagonalParams(1.0, 1.0, -1.0))
        assert rem3.as_array() == pytest.approx(np.zeros(3), abs=0.0)

    def test_positive_c3_rejected_for_3set(self):
        """The three-setting split needs c3 <= 0."""
        with pytest.raises(PreconditionViolated):
            canonical_split_3set(BellDiagonalParams(0.5, 0.4, 0.2))

    def test_noncanonical_rejected(self):
        """Splits demand canonical ordering rather than silently reordering."""
        with pytest.raises(PreconditionViolated):
            canonical_split_2set(BellDiagonalParams(0.4, 0.6, -0.2))

    def test_box_split_reconstructs(self):
        """The box-level split reproduces the aligned-Pauli box for n = 2, 3."""
        params = BellDiagonalParams(0.6, 0.4, -0.2)
        for n in (2, 3):
            split = canonical_box_split(params, n)
            target = box_from_state(
                bell_diagonal(params), pauli_axes(n), pauli_axes(n)
            )
            assert split.reconstruct().p == pytest.approx(target.p, abs=1e-12)


class TestClosedFormModels:
    def test_two_state_model_hits_remainder_box(self):
        """The d = 2 model reproduces the two-setting remainder box exactly."""
        for params in canonical_grid(0.05):
            model = build_lhs_model_2set(params)
            rem = two_set_remainder(params)
            target = box_from_state(
                bell_diagonal(rem), pauli_axes(2), pauli_axes(2)
            )
            ok, dev = verify_lhv_lhs(model, target, 1e-10)
            assert ok, f"dev={dev} at {params}"
            assert np.linalg.norm(model.bob_states, axis=1).max() <= 1 + 1e-10

    def test_four_state_model_hits_remainder_box(self):
        """The d = 4 model reproduces the three-setting remainder box exactly."""
        for params in canonical_grid(0.05):
            model = build_lhs_model_3set(params)
            rem = three_set_remainder(params)
            target = box_from_state(
                bell_diagonal(rem), pauli_axes(3), pauli_axes(3)
            )
            ok, dev = verify_lhv_lhs(model, target, 1e-10)
            assert ok, f"dev={dev} at {params}"
            assert np.linalg.norm(model.bob_states, axis=1).max() <= 1 + 1e-10

    def test_model_weights_and_structure(self):
        """Two equal weights for d = 2; four equal weights for d = 4."""
        m2 = build_lhs_model_2set(BellDiagonalParams(0.6, 0.4, -0.2))
        assert m2.weights == pytest.approx([0.5, 0.5])
        m4 = build_lhs_model_3set(BellDiagonalParams(0.6, 0.4, -0.2))
        assert m4.weights == pytest.approx([0.25, 0.25, 0.25, 0.25])
        assert m4.bob_states.shape == (4, 3)
        assert m4.bob_states.sum(axis=0) == pytest.approx(np.zeros(3), abs=1e-12)

    def test_phase_geometry_frozen(self):
        """At (1/3, 1/3, -1/3): d1 = d2 = 0, f = 1, phi0 = 0."""
        geo = three_set_model_parameters(BellDiagonalParams(1 / 3, 1 / 3, -1 / 3))
        assert geo["d1"] == pytest.approx(0.0, abs=1e-15)
        assert geo["d2"] == pytest.approx(0.0, abs=1e-15)
        assert geo["f"] == pytest.approx(1.0, abs=1e-15)
        assert geo["phi0"] == pytest.approx(0.0, abs=1e-15)

    def test_phase_geometry_consistency(self):
        """d1^2 + d2^2 + f^2 = 1 and sin(phi0) matches its defining ratio."""
        params = BellDiagonalParams(0.5, 0.4, -0.2)
        geo = three_set_model_parameters(params)
        assert geo["d1"] ** 2 + geo["d2"] ** 2 + geo["f"] ** 2 == pytest.approx(
            1.0, abs=1e-12
        )
        want = (params.c2 + params.c3) / np.sqrt(
            (1 - params.c1) * (1 + params.c1 + 2 * params.c3)
        )
        assert np.sin(geo["phi0"]) == pytest.approx(want, abs=1e-12)

    def test_phase_domain_guard(self):
        """An arcsine argument beyond 1 raises PhaseDomainError."""
        with pytest.raises(PhaseDomainError):
            three_set_model_parameters(BellDiagonalParams(0.9, 0.8, 0.0))

    def test_3set_model_positive_c3_rejected(self):
        """The four-state model needs c3 <= 0."""
        with pytest.raises(PreconditionViolated):
            build_lhs_model_3set(BellDiagonalParams(0.5, 0.4, 0.2))

    @pytest.mark.parametrize("build", [canonical_split_3set, build_lhs_model_3set])
    def test_3set_c3_threshold(self, build):
        """The three-setting split and model share one c3 <= 0 precondition,
        within ATOL_CANONICAL = 1e-12: 1e-12 passes, 2e-12 does not."""
        build(BellDiagonalParams(0.3, 0.3, 1e-12))
        with pytest.raises(PreconditionViolated, match="require c3 <= 0, got c3 = 2e-12"):
            build(BellDiagonalParams(0.3, 0.3, 2e-12))


class TestVerifyModel:
    def test_dimension_mismatch(self):
        """A 2-setting model cannot be checked against a 3-setting box."""
        model = build_lhs_model_2set(BellDiagonalParams(0.6, 0.4, -0.2))
        target = box_from_state(
            bell_diagonal(BellDiagonalParams(0.0, 0.0, 0.0)),
            pauli_axes(3),
            pauli_axes(3),
        )
        with pytest.raises(DimensionMismatch):
            verify_lhv_lhs(model, target, 1e-9)

    def test_invalid_model_rejected(self):
        """Negative weights and oversized Bloch vectors are structural errors."""
        from unsteer import LhvLhsModel

        good = build_lhs_model_2set(BellDiagonalParams(0.6, 0.4, -0.2))
        target = box_from_state(
            bell_diagonal(two_set_remainder(BellDiagonalParams(0.6, 0.4, -0.2))),
            pauli_axes(2),
            pauli_axes(2),
        )
        bad_weights = LhvLhsModel(
            2,
            np.array([1.5, -0.5]),
            good.alice_tables,
            good.bob_states,
            good.bob_directions,
        )
        with pytest.raises(InvalidModel):
            verify_lhv_lhs(bad_weights, target, 1e-9)
        bad_bloch = LhvLhsModel(
            2,
            good.weights,
            good.alice_tables,
            good.bob_states * 3.0,
            good.bob_directions,
        )
        with pytest.raises(InvalidModel):
            verify_lhv_lhs(bad_bloch, target, 1e-9)

    def test_invalid_tables_rejected(self):
        """A negative response probability and a table row that does not
        sum to 1 are structural errors, each with its own message."""
        from unsteer import LhvLhsModel

        good = build_lhs_model_2set(BellDiagonalParams(0.6, 0.4, -0.2))
        target = box_from_state(
            bell_diagonal(two_set_remainder(BellDiagonalParams(0.6, 0.4, -0.2))),
            pauli_axes(2),
            pauli_axes(2),
        )
        for row, message in (
            ([-0.1, 1.1], "negative response probability"),
            ([0.3, 0.3], "non-stochastic"),
        ):
            tables = good.alice_tables.copy()
            tables[0, 1] = row
            bad = LhvLhsModel(2, good.weights, tables, good.bob_states, good.bob_directions)
            with pytest.raises(InvalidModel, match=message):
                verify_lhv_lhs(bad, target, 1e-9)

    def test_detects_wrong_target(self):
        """A correct model against the wrong box reports a large deviation."""
        model = build_lhs_model_2set(BellDiagonalParams(0.6, 0.4, -0.2))
        wrong = white_noise_bb84(0.9)
        ok, dev = verify_lhv_lhs(model, wrong, 1e-9)
        assert not ok and dev > 0.01
