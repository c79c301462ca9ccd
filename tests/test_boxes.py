"""Boxes: Born-rule construction, invariants, correlators, and the witness."""

import numpy as np
import pytest

from unsteer import (
    Assemblage,
    BellDiagonalParams,
    Box,
    DimensionMismatch,
    InvalidBox,
    MeasurementSet,
    OutOfRange,
    assemblage_from_state,
    bell_diagonal,
    box_from_json_dict,
    box_from_state,
    box_to_json_dict,
    certify_quantumness,
    correlator,
    correlator_matrix,
    deterministic_strategies,
    estimate_params_from_box,
    pauli_axes,
    steering_functional,
    strategy_table,
    white_noise_bb84,
)

from oracles import (
    FROZEN,
    PAULIS,
    bell_diagonal_direct,
    born_assemblage,
    born_box,
    first_non_psd_loops,
    random_physical_triple,
    random_unit_vectors,
)


class TestMeasurementSet:
    def test_pauli_axes(self):
        """pauli_axes(n) returns the first n coordinate axes."""
        assert pauli_axes(2).directions == pytest.approx(np.eye(3)[:2])
        assert pauli_axes(3).directions == pytest.approx(np.eye(3))
        with pytest.raises(OutOfRange):
            pauli_axes(4)

    def test_unit_norm_enforced(self):
        """Non-unit directions are rejected at construction."""
        with pytest.raises(DimensionMismatch):
            MeasurementSet(np.array([[1.0, 1.0, 0.0]]))

    def test_unit_norm_bound_matches_born_rule(self):
        """The constructor applies the projectors' bound |n| - 1 <= 1e-12 with
        no relative slack, so every accepted set also builds a box."""
        with pytest.raises(DimensionMismatch):
            MeasurementSet(np.array([[1.0 + 1e-7, 0.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            MeasurementSet(np.array([[np.nan, 0.0, 0.0]]))
        near = MeasurementSet(np.array([[1.0 + 5e-13, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        box_from_state(np.eye(4) / 4.0, near, pauli_axes(2))

    def test_is_mub(self):
        """Orthogonal axes are a qubit MUB; tilted ones are not."""
        assert pauli_axes(3).is_mub()
        tilted = MeasurementSet(
            np.array([[1.0, 0.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5), 0.0]])
        )
        assert not tilted.is_mub()


class TestBoxConstruction:
    def test_matches_born_oracle(self):
        """box_from_state equals the explicit kron Born rule."""
        rng = np.random.default_rng(53)
        for _ in range(50):
            c = random_physical_triple(rng)
            n = int(rng.integers(2, 4))
            alice = random_unit_vectors(rng, n)
            bob = random_unit_vectors(rng, n)
            box = box_from_state(
                bell_diagonal(BellDiagonalParams(*c)),
                MeasurementSet(alice),
                MeasurementSet(bob),
            )
            assert box.p == pytest.approx(
                born_box(bell_diagonal_direct(*c), alice, bob), abs=1e-13
            )

    def test_box_validates(self):
        """State-generated boxes satisfy every Box invariant."""
        box = box_from_state(
            bell_diagonal(BellDiagonalParams(0.5, 0.4, -0.3)),
            pauli_axes(3),
            pauli_axes(3),
        )
        assert box.validate() is box

    def test_setting_count_mismatch(self):
        """Different Alice/Bob setting counts are rejected."""
        with pytest.raises(DimensionMismatch):
            box_from_state(np.eye(4) / 4.0, pauli_axes(2), pauli_axes(3))

    def test_invalid_boxes_are_named(self):
        """validate() identifies the broken invariant."""
        good = white_noise_bb84(0.5).p
        with pytest.raises(InvalidBox, match="normalization"):
            Box(2, good * 1.01).validate()
        signaling = good.copy()
        signaling[0, 0] = [[0.5, 0.0], [0.0, 0.5]]
        signaling[1, 0] = [[0.6, 0.0], [0.0, 0.4]]  # Bob's y=0 marginal now sees x
        with pytest.raises(InvalidBox, match="no-signaling"):
            Box(2, signaling).validate()
        with pytest.raises(InvalidBox, match="shape"):
            Box(2, np.zeros((2, 2, 2))).validate()

    def test_normalization_checked_at_atol_box(self):
        """Sums off by 4e-6 fail: the check is absolute at 1e-12, with no
        relative slack."""
        with pytest.raises(InvalidBox, match="normalization"):
            Box(2, np.full((2, 2, 2, 2), 0.25 * (1 + 4e-6))).validate()
        with pytest.raises(InvalidBox, match="normalization"):
            certify_quantumness(Box(2, np.full((2, 2, 2, 2), 0.25 * (1 + 4e-6))), 2)
        box = Box(2, np.full((2, 2, 2, 2), 0.25 * (1 + 1e-13)))
        assert box.validate() is box


class TestBB84Family:
    def test_closed_form_table(self):
        """p(ab|xy) = (1 + (-1)^(a+b+xy) delta_xy V)/4."""
        v = 0.6
        box = white_noise_bb84(v)
        for x in (0, 1):
            for y in (0, 1):
                for a in (0, 1):
                    for b in (0, 1):
                        want = (1 + (-1) ** (a + b + x * y) * (x == y) * v) / 4
                        assert box.p[x, y, a, b] == pytest.approx(want, abs=1e-15)

    def test_v_zero_is_uniform(self):
        """V = 0 gives the uniform box."""
        assert white_noise_bb84(0.0).p == pytest.approx(np.full((2, 2, 2, 2), 0.25))

    def test_out_of_range(self):
        """V outside [0, 1] is rejected."""
        with pytest.raises(OutOfRange):
            white_noise_bb84(1.2)
        with pytest.raises(OutOfRange):
            white_noise_bb84(-0.1)

    def test_functional_frozen_value(self):
        """steering_functional(white_noise_bb84(0.9)) = sqrt(2) * 0.9."""
        assert steering_functional(white_noise_bb84(0.9), 2) == pytest.approx(
            FROZEN["functional_bb84_09"], abs=1e-15
        )

    def test_realizable_as_bell_diagonal(self):
        """The V-box equals the aligned-Pauli box of (V, -V, 2V - 1)."""
        for v in (0.0, 0.3, 1.0 / np.sqrt(2.0), 1.0):
            state_box = box_from_state(
                bell_diagonal(BellDiagonalParams(v, -v, 2 * v - 1)),
                pauli_axes(2),
                pauli_axes(2),
            )
            assert state_box.p == pytest.approx(white_noise_bb84(v).p, abs=1e-13)


class TestCorrelators:
    def test_diagonal_reads_off_bd_components(self):
        """<A_k B_k> of the aligned-Pauli box equals c_k."""
        rng = np.random.default_rng(59)
        for _ in range(50):
            c = random_physical_triple(rng)
            box = box_from_state(
                bell_diagonal(BellDiagonalParams(*c)), pauli_axes(3), pauli_axes(3)
            )
            for k in range(3):
                assert correlator(box, k, k) == pytest.approx(c[k], abs=1e-13)

    def test_matrix_is_diagonal_for_bd(self):
        """Cross-correlators of aligned-Pauli BD boxes vanish."""
        box = box_from_state(
            bell_diagonal(BellDiagonalParams(0.5, 0.4, -0.3)),
            pauli_axes(3),
            pauli_axes(3),
        )
        mat = correlator_matrix(box)
        assert mat == pytest.approx(np.diag([0.5, 0.4, -0.3]), abs=1e-13)

    def test_matrix_matches_per_entry_correlator_bytes(self):
        """correlator_matrix equals correlator(box, x, y) entry by entry, byte
        for byte, on Born boxes of random triples and directions."""
        rng = np.random.default_rng(67)
        for n in (2, 3) * 30:
            c = random_physical_triple(rng)
            box = box_from_state(
                bell_diagonal(BellDiagonalParams(*c)),
                MeasurementSet(random_unit_vectors(rng, n)),
                MeasurementSet(random_unit_vectors(rng, n)),
            )
            want = np.array([[correlator(box, x, y) for y in range(n)] for x in range(n)])
            assert correlator_matrix(box).tobytes() == want.tobytes()
        for v in (0.0, 0.5, 1.0):
            box = white_noise_bb84(v)
            want = np.array([[correlator(box, x, y) for y in range(2)] for x in range(2)])
            assert correlator_matrix(box).tobytes() == want.tobytes()

    def test_functional_frozen_n3_values(self):
        """Two frozen three-setting witness values."""
        box = box_from_state(
            bell_diagonal(BellDiagonalParams(1 / 3, 1 / 3, -1 / 3)),
            pauli_axes(3),
            pauli_axes(3),
        )
        assert steering_functional(box, 3) == pytest.approx(
            FROZEN["functional_third_triple_n3"], abs=1e-13
        )
        box2 = box_from_state(
            bell_diagonal(BellDiagonalParams(1.0, 0.3, -0.3)),
            pauli_axes(3),
            pauli_axes(3),
        )
        assert steering_functional(box2, 3) == pytest.approx(
            FROZEN["functional_1_03_m03_n3"], abs=1e-13
        )

    def test_estimate_round_trip(self):
        """Aligned-Pauli box -> estimate recovers the source triple."""
        rng = np.random.default_rng(61)
        for _ in range(100):
            c = random_physical_triple(rng)
            box = box_from_state(
                bell_diagonal(BellDiagonalParams(*c)), pauli_axes(3), pauli_axes(3)
            )
            est = estimate_params_from_box(box)
            assert est.as_array() == pytest.approx(np.array(c), abs=1e-12)

    def test_estimate_n2_reports_zero_third(self):
        """With two settings the unobserved component is reported as 0."""
        box = box_from_state(
            bell_diagonal(BellDiagonalParams(0.5, 0.3, -0.2)),
            pauli_axes(2),
            pauli_axes(2),
        )
        est = estimate_params_from_box(box)
        assert est.c3 == 0.0
        assert (est.c1, est.c2) == pytest.approx((0.5, 0.3), abs=1e-13)


class TestDeterministicStrategies:
    def test_enumeration_is_lexicographic(self):
        """deterministic_strategies(2) lists 00, 01, 10, 11."""
        assert deterministic_strategies(2) == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert len(deterministic_strategies(3)) == 8

    def test_strategy_table_one_hot(self):
        """Each row of a strategy table is one-hot on the chosen outcome."""
        table = strategy_table((1, 0, 1))
        assert table.tolist() == [[0, 1], [1, 0], [0, 1]]


class TestAssemblage:
    def test_nonsignaling_sum(self):
        """sum_a sigma(a|x) is the same reduced state for every x."""
        rho = bell_diagonal(BellDiagonalParams(0.6, 0.4, -0.2))
        asm = assemblage_from_state(rho, pauli_axes(3))
        totals = [asm.sigma[0, x] + asm.sigma[1, x] for x in range(3)]
        for t in totals[1:]:
            assert t == pytest.approx(totals[0], abs=1e-13)

    def test_matches_partial_trace_oracle(self):
        """assemblage_from_state equals the kron-and-partial-trace loops on
        random triples and random directions."""
        rng = np.random.default_rng(59)
        for _ in range(50):
            c = random_physical_triple(rng)
            alice = random_unit_vectors(rng, int(rng.integers(2, 4)))
            asm = assemblage_from_state(
                bell_diagonal(BellDiagonalParams(*c)), MeasurementSet(alice)
            )
            want = born_assemblage(bell_diagonal_direct(*c), alice)
            assert np.abs(asm.sigma - want).max() <= 1e-13

    def test_trace_checked_at_atol_box(self):
        """Traces off by 4e-6 fail: the check is absolute at 1e-12."""
        sigma = assemblage_from_state(
            bell_diagonal(BellDiagonalParams(0.6, 0.4, -0.2)), pauli_axes(3)
        ).sigma
        with pytest.raises(InvalidBox, match="traces"):
            Assemblage(sigma * (1 + 4e-6)).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        """A NaN or inf off-diagonal pair in an otherwise valid assemblage is
        named; comparisons and eigvalsh would let it through."""
        sigma = np.array([[np.eye(2) / 4] * 2] * 2, dtype=complex)  # trace 1/2 per block
        Assemblage(sigma).validate()
        sigma[0, 0, 0, 1] = sigma[0, 0, 1, 0] = bad
        with pytest.raises(InvalidBox, match="non-finite"):
            Assemblage(sigma).validate()

    def test_overflowing_block_named(self):
        """A finite lower entry whose modulus overflows, cancelled by the
        other outcome, gives eigvalsh NaN: the block is named as not PSD."""
        sigma = np.array([[np.eye(2) / 4] * 2] * 2, dtype=complex)
        sigma[0, 0, 1, 0] = 1.5e308 + 1.5e308j
        sigma[1, 0, 1, 0] = -sigma[0, 0, 1, 0]
        with pytest.raises(InvalidBox, match=r"sigma\(0\|0\) is not positive"):
            Assemblage(sigma).validate()

    @pytest.mark.parametrize("shape", [(2, 2, 3, 3), (3, 2, 2, 2), (2, 0, 2, 2), (2, 2, 4)])
    def test_shape_checked(self, shape):
        with pytest.raises(InvalidBox, match="shape"):
            Assemblage(np.zeros(shape, dtype=complex)).validate()

    def test_first_negative_block_named_a_major(self):
        """validate names the first non-PSD sigma(a|x) in a-major order, as
        the per-block loop does.  Here sigma(1|0) and sigma(0|1) are the
        negative blocks, so an x-major scan would name (1|0) instead."""
        half = np.diag([0.25, 0.25])
        sigma = np.array(
            [
                [np.diag([0.55, 0.1]), np.diag([0.4, -0.05]), half],
                [np.diag([-0.05, 0.4]), np.diag([0.1, 0.55]), half],
            ],
            dtype=complex,
        )
        with pytest.raises(InvalidBox, match=r"sigma\(0\|1\) is not positive"):
            Assemblage(sigma).validate()
        assert first_non_psd_loops(sigma) == (0, 1)

    def test_negative_block_matches_loop_oracle(self):
        """On random non-signaling assemblages for n = 2 and 3, validate
        rejects exactly when the loop finds a negative block, and names it."""
        def hermitian(weight, bloch):
            return (weight * np.eye(2) + sum(r * s for r, s in zip(bloch, PAULIS))) / 2.0

        rng = np.random.default_rng(71)
        raised = 0
        for n in (2, 3) * 100:
            reduced = hermitian(1.0, 0.2 * random_unit_vectors(rng, 1)[0])
            first = np.array(
                [hermitian(rng.uniform(0.2, 0.8), rng.normal(scale=0.15, size=3)) for _ in range(n)]
            )
            sigma = np.array([first, reduced - first])
            want = first_non_psd_loops(sigma)
            if want is None:
                Assemblage(sigma).validate()
                continue
            raised += 1
            with pytest.raises(InvalidBox, match=rf"sigma\({want[0]}\|{want[1]}\) is not"):
                Assemblage(sigma).validate()
        assert 20 <= raised <= 180

    def test_traces_are_alice_marginals(self):
        """tr sigma(a|x) equals p(a|x) of the corresponding box."""
        rho = bell_diagonal(BellDiagonalParams(0.5, 0.2, -0.1))
        asm = assemblage_from_state(rho, pauli_axes(2))
        box = box_from_state(rho, pauli_axes(2), pauli_axes(2))
        marg = box.alice_marginal()
        for x in range(2):
            for a in (0, 1):
                assert np.trace(asm.sigma[a, x]).real == pytest.approx(
                    marg[x, a], abs=1e-13
                )


class TestJsonRoundTrip:
    def test_box_json_round_trip(self):
        """to-dict / from-dict is the identity on boxes."""
        box = white_noise_bb84(0.37)
        again = box_from_json_dict(box_to_json_dict(box))
        assert again.n == box.n
        assert again.p == pytest.approx(box.p, abs=0.0)

    def test_malformed_json_rejected(self):
        """Missing or misshapen fields raise InvalidBox."""
        with pytest.raises(InvalidBox):
            box_from_json_dict({"n": 2})
        with pytest.raises(InvalidBox):
            box_from_json_dict({"n": 2, "p": [[0.5, 0.5], [0.5, 0.5]]})

    @pytest.mark.parametrize(
        "leaf", ["0.25", True, None, [0.25], 10**400], ids=["str", "bool", "null", "list", "huge-int"]
    )
    def test_non_number_leaf_rejected(self, leaf):
        """A leaf of "p" that is not a JSON number is named, not coerced:
        float("0.25") and float(True) would read it as a probability."""
        p = np.full((2, 2, 2, 2), 0.25).tolist()
        p[0][0][0][0] = leaf
        with pytest.raises(InvalidBox, match='"p" is not a numeric array'):
            box_from_json_dict({"n": 2, "p": p})

    def test_integer_and_array_leaves_accepted(self):
        """JSON integers and a float array are numbers: the deterministic
        box with a = b = 0, as 0/1 integers and as floats."""
        p = np.zeros((2, 2, 2, 2))
        p[..., 0, 0] = 1.0
        for given in (p, p.astype(int).tolist()):
            assert box_from_json_dict({"n": 2, "p": given}).p.tobytes() == p.tobytes()
