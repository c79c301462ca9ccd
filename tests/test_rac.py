"""Random access codes: closed forms, simulation, optimization, sweeps."""

import numpy as np
import pytest
import scipy.optimize

from unsteer import (
    BellDiagonalParams,
    DegenerateAxis,
    NonUnitDirection,
    OutOfRange,
    RacSpec,
    UnsupportedN,
    canonical_form,
    encoding_directions,
    geometric_discord,
    optimal_rac_spec,
    optimize_rac,
    rac_classical_bound,
    rac_efficiency_bd,
    simulate_rac,
    sweep_csv_lines,
    sweep_separable_max,
)
from unsteer.rac import _separable_canonical_grid

from oracles import (
    FROZEN,
    bell_diagonal_direct,
    rac_table_loops,
    random_physical_triple,
    random_unit_vectors,
    separable_grid_loops,
    sweep_csv_loop,
)


class TestClassicalBounds:
    def test_two_and_three_bit_bounds(self):
        """Best classical worst-case success: 2/3 for n=2 and 1/2 for n=3."""
        assert rac_classical_bound(2) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert rac_classical_bound(3) == pytest.approx(0.5, abs=1e-15)

    def test_unsupported_n(self):
        """Only n = 2 and n = 3 are defined."""
        with pytest.raises(UnsupportedN):
            rac_classical_bound(4)


class TestEfficiencyClosedForm:
    def test_frozen_n2_value(self):
        """(1/2, 1/2, 0) gives (1 + 1/sqrt(8))/2."""
        assert rac_efficiency_bd(BellDiagonalParams(0.5, 0.5, 0.0), 2) == pytest.approx(
            FROZEN["eff2_half_half"], abs=1e-15
        )

    def test_frozen_n3_values(self):
        """(1/3, 1/3, -1/3) and (0.9, 0.2, -0.1) frozen efficiencies."""
        third = BellDiagonalParams(1 / 3, 1 / 3, -1 / 3)
        assert rac_efficiency_bd(third, 3) == pytest.approx(
            FROZEN["eff3_third_triple"], abs=1e-15
        )
        skew = BellDiagonalParams(0.9, 0.2, -0.1)
        assert rac_efficiency_bd(skew, 3) == pytest.approx(
            FROZEN["eff3_09_02_m01"], abs=1e-15
        )

    def test_degenerate_axis_gives_half(self):
        """A vanishing relevant component collapses the efficiency to 1/2."""
        assert rac_efficiency_bd(BellDiagonalParams(0.5, 0.0, 0.0), 2) == 0.5
        assert rac_efficiency_bd(BellDiagonalParams(0.5, 0.4, 0.0), 3) == 0.5

    def test_never_below_half(self):
        """Guessing always achieves 1/2, so the efficiency cannot dip below."""
        rng = np.random.default_rng(79)
        for _ in range(300):
            p = BellDiagonalParams(*random_physical_triple(rng))
            for n in (2, 3):
                assert rac_efficiency_bd(p, n) >= 0.5

    def test_separable_n2_peak(self):
        """No separable triple beats (1/2, 1/2, 0) for the two-bit code."""
        peak = rac_efficiency_bd(BellDiagonalParams(0.5, 0.5, 0.0), 2)
        rng = np.random.default_rng(83)
        checked = 0
        while checked < 300:
            c = random_physical_triple(rng)
            if abs(c[0]) + abs(c[1]) + abs(c[2]) > 1.0:
                continue
            checked += 1
            assert rac_efficiency_bd(BellDiagonalParams(*c), 2) <= peak + 1e-12

    def test_invariant_under_canonicalization(self):
        """The efficiency only sees the canonical triple."""
        rng = np.random.default_rng(89)
        for _ in range(100):
            p = BellDiagonalParams(*random_physical_triple(rng))
            canon = canonical_form(p).canonical
            for n in (2, 3):
                assert rac_efficiency_bd(p, n) == pytest.approx(
                    rac_efficiency_bd(canon, n), abs=1e-14
                )


class TestEncodings:
    def test_directions_are_unit(self):
        """All 2^n encoding directions are unit vectors."""
        dirs = encoding_directions(BellDiagonalParams(0.9, 0.2, -0.1), 3)
        assert dirs.shape == (8, 3)
        assert np.linalg.norm(dirs, axis=1) == pytest.approx(np.ones(8), abs=1e-12)

    def test_signs_follow_input_bits(self):
        """Component i of m(x) has sign (-1)^x_i relative to 1/c_i'."""
        params = BellDiagonalParams(0.6, 0.4, -0.2)
        dirs = encoding_directions(params, 2)
        assert dirs[0][0] > 0 and dirs[0][1] > 0      # x = 00
        assert dirs[1][0] > 0 and dirs[1][1] < 0      # x = 01
        assert dirs[2][0] < 0 and dirs[2][1] > 0      # x = 10
        assert dirs[3][0] < 0 and dirs[3][1] < 0      # x = 11

    def test_degenerate_axis_raises(self):
        """Encodings are undefined when a relevant component vanishes."""
        with pytest.raises(DegenerateAxis):
            encoding_directions(BellDiagonalParams(0.5, 0.0, 0.0), 2)


class TestSimulation:
    def test_matches_closed_form_n2(self):
        """Exact Born-rule simulation reproduces the closed form, n = 2."""
        params = BellDiagonalParams(0.5, 0.5, 0.0)
        res = simulate_rac(optimal_rac_spec(params, 2))
        assert res.p_min == pytest.approx(rac_efficiency_bd(params, 2), abs=1e-12)

    def test_matches_closed_form_n3(self):
        """Exact Born-rule simulation reproduces the closed form, n = 3."""
        params = BellDiagonalParams(1 / 3, 1 / 3, -1 / 3)
        res = simulate_rac(optimal_rac_spec(params, 3))
        assert res.p_min == pytest.approx(rac_efficiency_bd(params, 3), abs=1e-12)

    def test_matches_loop_oracle_on_random_encodings(self):
        """simulate_rac equals the kron Born-rule loops for arbitrary unit
        encodings, not only the optimal ones."""
        rng = np.random.default_rng(101)
        for k in range(40):
            n = 2 + k % 2
            c = random_physical_triple(rng)
            enc = random_unit_vectors(rng, 2**n)
            spec = RacSpec(n, BellDiagonalParams(*c), enc)
            res = simulate_rac(spec)
            want = rac_table_loops(bell_diagonal_direct(*c), enc, n)
            assert np.abs(res.table - want).max() <= 1e-13
            assert res.p_min == pytest.approx(want.min(), abs=1e-13)

    def test_encodings_share_the_projector_bound(self):
        """RacSpec rejects what simulate_rac's projectors would reject."""
        enc = encoding_directions(BellDiagonalParams(0.6, 0.4, -0.2), 2)
        enc[0] *= 1.0 + 1e-10
        with pytest.raises(NonUnitDirection):
            RacSpec(2, BellDiagonalParams(0.6, 0.4, -0.2), enc)

    def test_success_table_is_flat(self):
        """The optimal protocol equalizes success across inputs and bits."""
        rng = np.random.default_rng(97)
        done = 0
        while done < 25:
            c = random_physical_triple(rng)
            canon = canonical_form(BellDiagonalParams(*c)).canonical
            n = 2 if done % 2 == 0 else 3
            if np.any(canon.as_array()[:n] == 0.0):
                continue
            done += 1
            res = simulate_rac(optimal_rac_spec(canon, n))
            assert np.ptp(res.table) <= 1e-12
            assert res.table.shape == (2**n, n)

    def test_relabeling_invariance(self):
        """Reading the table back per input permutation leaves p_min unchanged."""
        params = BellDiagonalParams(0.9, 0.2, -0.1)
        res = simulate_rac(optimal_rac_spec(params, 3))
        perm = np.random.default_rng(101).permutation(8)
        assert res.table[perm].min() == pytest.approx(res.p_min, abs=0.0)

    def test_negative_c3_handled(self):
        """The sign correction keeps the third-bit success at the closed form."""
        params = BellDiagonalParams(0.6, 0.5, -0.4)
        res = simulate_rac(optimal_rac_spec(params, 3))
        assert res.p_min == pytest.approx(rac_efficiency_bd(params, 3), abs=1e-12)
        assert res.table[:, 2] == pytest.approx(
            np.full(8, rac_efficiency_bd(params, 3)), abs=1e-12
        )


class TestOptimization:
    def test_reaches_closed_form_n2(self):
        """Free-direction optimization recovers the closed form for n = 2;
        sign flips map input 0's problem onto every other input's, so the
        table repeats one row."""
        params = BellDiagonalParams(0.5, 0.5, 0.0)
        res = optimize_rac(params, 2)
        assert res.table.shape == (4, 2) and (res.table == res.table[0]).all()
        assert abs(res.p_min - rac_efficiency_bd(params, 2)) <= 1e-9

    def test_reaches_closed_form_n3(self):
        """Free-direction optimization recovers the closed form for n = 3,
        with one row repeated for every input."""
        params = BellDiagonalParams(1 / 3, 1 / 3, -1 / 3)
        res = optimize_rac(params, 3)
        assert res.table.shape == (8, 3) and (res.table == res.table[0]).all()
        assert abs(res.p_min - rac_efficiency_bd(params, 3)) <= 1e-9

    def test_never_beats_closed_form(self):
        """The closed form is an upper bound over encoding directions."""
        params = BellDiagonalParams(0.7, 0.2, -0.1)
        res = optimize_rac(params, 2)
        assert res.p_min <= rac_efficiency_bd(params, 2) + 1e-9

    @pytest.mark.parametrize("triple, n", [((0.6, 0.5, -0.4), 3), ((0.5, 0.5, 0.0), 2)])
    def test_stops_at_closed_form(self, monkeypatch, triple, n):
        """The heuristic start reaches the closed-form bound, so the search
        runs one Nelder-Mead minimization instead of 21."""
        calls = []
        minimize = scipy.optimize.minimize

        def counting_minimize(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return minimize(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", counting_minimize)
        res = optimize_rac(BellDiagonalParams(*triple), n)
        assert calls == ["Nelder-Mead"]
        assert abs(res.p_min - rac_efficiency_bd(BellDiagonalParams(*triple), n)) <= 1e-12

    def test_meets_closed_form_on_random_triples(self):
        """On seeded physical triples and degenerate edge triples the search
        ends within 1e-12 below the closed form and never above it."""
        rng = np.random.default_rng(14)
        triples = [random_physical_triple(rng) for _ in range(200)]
        triples += [(0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (1e-320, 1e-320, -1e-320)]
        for triple in triples:
            params = BellDiagonalParams(*triple)
            for n in (2, 3):
                res = optimize_rac(params, n)
                bound = rac_efficiency_bd(params, n)
                assert bound - 1e-12 <= res.p_min <= bound + 1e-15, (triple, n)
                assert res.table.shape == (2**n, n)
                assert (res.table == res.table[0]).all()


class TestSweep:
    def test_n2_maximizers(self):
        """Strength and efficiency both peak at (1/2, 1/2, 0) for n = 2."""
        rep = sweep_separable_max(2, 0.05)
        assert rep.strength_argmax.as_array() == pytest.approx([0.5, 0.5, 0.0])
        assert rep.strength_max == pytest.approx(0.5, abs=1e-12)
        assert rep.efficiency_argmax.as_array() == pytest.approx([0.5, 0.5, 0.0])
        assert rep.efficiency_max == pytest.approx(
            FROZEN["eff2_half_half"], abs=1e-12
        )

    def test_n3_maximizer_near_third_triple(self):
        """The n = 3 strength peak sits within one step of magnitude 1/3."""
        rep = sweep_separable_max(3, 0.05)
        assert abs(abs(rep.strength_argmax.c3) - 1.0 / 3.0) <= 0.05
        assert rep.strength_max == pytest.approx(0.3, abs=1e-12)

    def test_rows_are_separable_canonical(self):
        """Every grid row is canonical with c1 + c2 + |c3| <= 1."""
        rep = sweep_separable_max(2, 0.1)
        t = rep.triples
        assert np.all(t[:, 0] >= t[:, 1])
        assert np.all(t[:, 1] >= np.abs(t[:, 2]) - 1e-12)
        assert np.all(t[:, 0] + t[:, 1] + np.abs(t[:, 2]) <= 1.0 + 1e-9)

    def test_columns_recompute(self):
        """Strength, efficiency, and discord columns match per-row recomputes."""
        rep = sweep_separable_max(3, 0.1)
        for i in range(len(rep.triples)):
            p = BellDiagonalParams(*(float(v) for v in rep.triples[i]))
            assert rep.strength[i] == pytest.approx(abs(p.c3), abs=1e-14)
            assert rep.efficiency[i] == pytest.approx(
                rac_efficiency_bd(p, 3), abs=1e-12
            )
            assert rep.discord[i] == pytest.approx(geometric_discord(p), abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_efficiency_column_is_the_closed_form(self, n):
        """The sweep and rac_efficiency_bd share one formula: every row's
        efficiency equals the per-triple closed form bit for bit, the
        degenerate rows' 1/2 included."""
        rep = sweep_separable_max(n, 0.05)
        for triple, efficiency in zip(rep.triples.tolist(), rep.efficiency.tolist()):
            assert rac_efficiency_bd(BellDiagonalParams(*triple), n) == efficiency, triple

    @pytest.mark.parametrize("step", [0.1, 0.07, 0.05, 0.03, 0.01, 0.005])
    def test_grid_matches_loop_oracle(self, step):
        """The grid built from runs of c3 holds the triple loop's rows in
        its order, byte for byte."""
        grid = _separable_canonical_grid(step)
        assert grid.tobytes() == separable_grid_loops(step).tobytes()

    def test_witness_pair_semantics(self):
        """The witness pair has strictly higher discord yet lower efficiency."""
        rep = sweep_separable_max(2, 0.05)
        low, high = rep.witness_pair
        assert high["discord"] > low["discord"]
        assert high["efficiency"] < low["efficiency"]

    def test_csv_shape_and_header(self):
        """CSV lines carry the mandated header and one row per triple."""
        rep = sweep_separable_max(2, 0.1)
        lines = sweep_csv_lines(rep)
        assert lines[0] == "c1,c2,c3,separable,strength_n,efficiency_n,discord"
        assert len(lines) == len(rep.triples) + 1
        assert all(line.split(",")[3] == "true" for line in lines[1:])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("step", [0.01, 0.03, 0.07, 0.1])
    def test_csv_matches_loop_oracle(self, n, step):
        """Formatting each distinct value once gives the per-float lines."""
        rep = sweep_separable_max(n, step)
        assert sweep_csv_lines(rep) == sweep_csv_loop(rep)

    def test_step_domain(self):
        """Steps outside [MIN_STEP, 0.1] are rejected before any grid is built."""
        for step in (0.2, 0.0, 5e-324, 1e-4):
            with pytest.raises(OutOfRange):
                sweep_separable_max(2, step)
        with pytest.raises(UnsupportedN):
            sweep_separable_max(4, 0.05)
