"""Bounded-dimension model search and the four-way certificate."""

import copy
import itertools
import json
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from unsteer import (
    CLASSICAL_AT_DIMENSION,
    SUPERUNSTEERABLE,
    UNDECIDED,
    WITNESSED_STEERABLE,
    BellDiagonalParams,
    Box,
    Certificate,
    DimensionMismatch,
    InfeasibilityTrace,
    InvalidBox,
    LhvLhsModel,
    MeasurementSet,
    OutOfRange,
    bell_diagonal,
    box_from_state,
    build_lhs_model_2set,
    certify_quantumness,
    deterministic_strategies,
    pauli_axes,
    search_lhs_bounded,
    state_from_bloch,
    strategy_table,
    two_set_remainder,
    verify_lhv_lhs,
    white_noise_bb84,
)
from unsteer import decompose
from unsteer.decompose import (
    CaseTrace,
    _case_table,
    _cone_codes,
    _Interior,
    _pauli_set,
    _SearchContext,
    _set_group,
    _trace_entries,
    _TraceEntry,
)

from oracles import (
    FROZEN,
    coefficient_blocks_loops,
    least_squares_lstsq,
    model_box_loops,
    random_physical_triple,
    random_unit_vectors,
    search_case_labels,
)

SQRT_HALF = float(np.sqrt(0.5))


def bd_box(c1, c2, c3, n=2):
    """Aligned-Pauli box of a Bell-diagonal triple."""
    axes = pauli_axes(n)
    return box_from_state(bell_diagonal(BellDiagonalParams(c1, c2, c3)), axes, axes)


def product_state():
    """Alice's Bloch vector (0.6, 0.3, 0) times Bob's (0.2, 0.5, 0)."""
    return np.kron(state_from_bloch([0.6, 0.3, 0.0]), state_from_bloch([0.2, 0.5, 0.0]))


def random_model_box(rng, k, dirs, alice):
    """The box of a random k-class model, built by the loop oracle: Alice
    answers deterministically, stochastically or uniformly; Bob's states are
    random, pure or mixed."""
    n = dirs.n
    if alice == "deterministic":
        first = rng.integers(0, 2, size=(k, n)).astype(float)
    else:
        first = rng.uniform(size=(k, n)) if alice == "stochastic" else np.full((k, n), 0.5)
    tables = np.stack([first, 1.0 - first], axis=-1)
    states = random_unit_vectors(rng, k)
    if rng.uniform() < 0.5:
        states *= rng.uniform(0.0, 1.0, size=(k, 1))
    return model_box_loops(rng.dirichlet(np.ones(k)), tables, states, dirs.directions)


def pr_box():
    """The two-setting box with correlators [[1, 1], [1, -1]]."""
    p = np.empty((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    p[x, y, a, b] = 0.5 if (a + b) % 2 == x * y else 0.0
    return Box(2, p)


class TestModelReconstruction:
    def test_einsum_matches_loop_oracle(self):
        """LhvLhsModel.reconstruct_box agrees with the definitional loops."""
        model = build_lhs_model_2set(BellDiagonalParams(0.6, 0.4, -0.2))
        want = model_box_loops(
            model.weights,
            model.alice_tables,
            model.bob_states,
            model.bob_directions.directions,
        )
        assert model.reconstruct_box().p == pytest.approx(want, abs=1e-13)

    def test_search_models_verify(self):
        """Every model the search returns passes independent verification."""
        rng = np.random.default_rng(71)
        for _ in range(10):
            c = random_physical_triple(rng)
            box = bd_box(*c)
            result = search_lhs_bounded(box, pauli_axes(2), 4)
            assert isinstance(result, LhvLhsModel) == (c[0] ** 2 + c[1] ** 2 <= 1 + 1e-9)
            if isinstance(result, LhvLhsModel):
                ok, dev = verify_lhv_lhs(result, box, 1e-9)
                assert ok, dev
                want = model_box_loops(
                    result.weights,
                    result.alice_tables,
                    result.bob_states,
                    result.bob_directions.directions,
                )
                assert result.reconstruct_box().p == pytest.approx(want, abs=1e-12)


class TestDimensionTwoInfeasibility:
    def test_rank_obstruction_is_universal(self):
        """Full-rank diagonal correlators beat every uniform-marginal d=2 model."""
        trace = search_lhs_bounded(bd_box(0.5, 0.5, 0.0), pauli_axes(2), 2)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive
        reasons = {reason for _, reason in trace.cases}
        assert reasons == {"correlator_rank_exceeds_dimension"}

    def test_tiny_second_component_still_infeasible(self):
        """The obstruction survives down to c2 = 1e-3."""
        trace = search_lhs_bounded(bd_box(0.6, 1e-3, 0.0), pauli_axes(2), 2)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive

    def test_rank_one_box_is_feasible_at_two(self):
        """With c2 = 0 the two-setting box drops to one hidden state pair."""
        result = search_lhs_bounded(bd_box(0.7, 0.0, 0.0), pauli_axes(2), 2)
        assert isinstance(result, LhvLhsModel)
        ok, dev = verify_lhv_lhs(result, bd_box(0.7, 0.0, 0.0), 1e-9)
        assert ok, dev

    def test_remainder_box_admits_the_textbook_model(self):
        """The two-setting remainder box is d=2 feasible (not just by formula)."""
        rem = two_set_remainder(BellDiagonalParams(0.6, 0.4, -0.2))
        box = bd_box(rem.c1, rem.c2, rem.c3)
        result = search_lhs_bounded(box, pauli_axes(2), 2)
        assert isinstance(result, LhvLhsModel)
        assert result.dimension <= 2

    def test_row_norm_needs_orthonormal_directions(self):
        """Alice answers lambda on both settings and Bob holds +-x-hat, seen
        along x-hat and (x-hat + z-hat)/sqrt(2): a row of C has norm
        sqrt(3/2), yet the box has a two-class model."""
        dirs = MeasurementSet(np.array([[1.0, 0.0, 0.0], [SQRT_HALF, 0.0, SQRT_HALF]]))
        tables = np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]])
        states = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        box = LhvLhsModel(2, np.array([0.5, 0.5]), tables, states, dirs).reconstruct_box()
        result = search_lhs_bounded(box, dirs, 2)
        assert isinstance(result, LhvLhsModel)
        ok, dev = verify_lhv_lhs(result, box, 1e-9)
        assert ok, dev

    def test_row_norm_proof(self):
        """The no-signalling box with uniform marginals and C = [[1, 1],
        [0, 0]] has diagonal norm 1 and covariance rank 1, so neither other
        obstruction applies, but a row of norm sqrt(2) rules out every
        two-class model."""
        p = np.empty((2, 2, 2, 2))
        for x, y, a, b in itertools.product((0, 1), repeat=4):
            p[x, y, a, b] = (1.0 + (-1.0) ** (a + b) * (1.0 if x == 0 else 0.0)) / 4.0
        trace = search_lhs_bounded(Box(2, p), pauli_axes(2), 2)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive
        assert {reason for _, reason in trace.cases} == {"correlator_row_norm_exceeds_one"}

    def test_row_norm_silent_on_two_class_models(self):
        """Falsification: the box of a random two-class model with uniform
        marginals (the lighter class's Alice expectations and Bloch vector
        are the heavier's, reversed and scaled by the weight ratio) on
        orthonormal directions, Pauli or random, gets a verified model at
        d = 2.  A third of the models sit on the bound: weights 1/2,
        deterministic opposite answers and antipodal pure states in the
        directions' span, so that a covariance row has norm exactly 1."""
        rng = np.random.default_rng(181)
        on_bound = 0
        for i in range(90):
            n = 2 + i % 2
            if i % 2 == 0:
                dirs = pauli_axes(n)
            else:
                dirs = MeasurementSet(np.linalg.qr(rng.normal(size=(3, 3)))[0][:n])
            if i % 3 == 0:
                w, e = 0.5, rng.choice([-1.0, 1.0], size=n)
                r = random_unit_vectors(rng, 1)[0] @ dirs.directions.T @ dirs.directions
                r /= np.linalg.norm(r)
            else:
                w, e = rng.uniform(0.05, 0.5), rng.uniform(-1.0, 1.0, size=n)
                r = random_unit_vectors(rng, 1)[0] * rng.uniform(0.0, 1.0)
            ratio = w / (1.0 - w)
            expectations = np.array([e, -ratio * e])
            tables = np.stack([(1.0 + expectations) / 2.0, (1.0 - expectations) / 2.0], axis=-1)
            states = np.array([r, -ratio * r])
            box = Box(n, model_box_loops(np.array([w, 1.0 - w]), tables, states, dirs.directions))
            ctx = _SearchContext(box, dirs, 1e-9)
            assert ctx.uniform_alice and ctx.uniform_bob and ctx.orthonormal, i
            on_bound += bool(np.linalg.norm(ctx.cov, axis=1).max() >= 1.0 - 1e-12)
            result = search_lhs_bounded(box, dirs, 2)
            assert isinstance(result, LhvLhsModel), (i, result.cases[0])
            assert verify_lhv_lhs(result, box, 1e-9)[0], i
        assert on_bound >= 20


class TestCovarianceObstruction:
    def test_silent_on_every_model_box(self):
        """Falsification: the box of a random k-class model (k <= n), as
        built or mixed toward a random top-dimension model's box until one
        entry has moved by 0.999 tol, draws no universal reason at any
        d >= k.  Some two-class models are extremal, with opposite answers,
        equal weights and antipodal pure states in the directions' span, so
        that a row of the covariance has norm exactly 1."""
        rng = np.random.default_rng(103)
        for i in range(240):
            n = 2 + i % 2
            k = int(rng.integers(1, n + 1))
            if i % 4 < 2:
                dirs = pauli_axes(n)
            else:
                dirs = MeasurementSet(np.linalg.qr(rng.normal(size=(3, 3)))[0][:n])
            alice = ("deterministic", "stochastic", "uniform")[i % 3]
            if k == 2 and i % 5 == 0:
                answers = np.array([np.zeros(n), np.ones(n)])
                tables = np.stack([answers, 1.0 - answers], axis=-1)
                r = random_unit_vectors(rng, 1)[0] @ dirs.directions.T @ dirs.directions
                states = np.array([r, -r]) / np.linalg.norm(r)
                box = model_box_loops(np.full(2, 0.5), tables, states, dirs.directions)
            else:
                box = random_model_box(rng, k, dirs, alice)
            other = random_model_box(rng, 2**n, dirs, "stochastic")
            for tol in (1e-9, 1e-6, 1e-3):
                for p in (box, box + 0.999 * tol / np.abs(other - box).max() * (other - box)):
                    ctx = _SearchContext(Box(n, p), dirs, tol)
                    for d in range(k, 2**n + 1):
                        assert ctx.universal_reason(d) is None, (i, k, d, tol)

    def test_mixed_marginals_superunsteerable(self):
        """The mixed-marginal box that the product lane retires at d = 1 has
        full-rank covariance, so no two-class model exists, yet a four-class
        one does."""
        mix = 0.5 * product_state() + 0.5 * bell_diagonal(BellDiagonalParams(0.4, 0.3, -0.2))
        axes = pauli_axes(2)
        box = box_from_state(mix, axes, axes)
        cert = certify_quantumness(box, 2, d_A=2)
        assert cert.verdict == SUPERUNSTEERABLE
        assert {reason for _, reason in cert.trace} == {"correlator_rank_exceeds_dimension"}
        ok, dev = verify_lhv_lhs(cert.model, box, 1e-9)
        assert ok, dev


class TestSearchMechanics:
    @pytest.mark.parametrize(
        "n, d", [(n, d) for n in (2, 3) for d in range(1, 2**n + 1)]
    )
    def test_case_labels_match_sorted_enumeration(self, n, d):
        """The cached case table's labels are the enumerate-then-sort
        listing.  Its phase-1 part lists the sets of every size it solves (d
        alone at 2^n) in combinations order, each at its (group, row), and
        sends every assignment (the all-distinct one alone at 2^n) to its
        dict.fromkeys reduction, with the order that of first appearance."""
        table = _case_table(n, d)
        labels, sizes, set_of, order, locate = (
            table.labels, table.sizes, table.set_of, table.order, table.locate
        )
        assert list(labels) == search_case_labels(n, d)
        strategies = deterministic_strategies(n)
        assert sizes == ((d,) if d == 2**n else tuple(range(1, d + 1)))
        keys = [key for k in sizes for key in itertools.combinations(strategies, k)]
        assert [key for *_, key in locate] == keys
        for g, row, key in locate:
            assert list(itertools.combinations(strategies, sizes[g]))[row] == key
        assignments = (
            [strategies] if d == 2**n
            else list(itertools.combinations_with_replacement(strategies, d))
        )
        reduced = [tuple(dict.fromkeys(a)) for a in assignments]
        assert [keys[i] for i in set_of] == reduced
        assert [keys[i] for i in order] == list(dict.fromkeys(reduced))

    @pytest.mark.parametrize("n", [2, 3])
    def test_blocks_match_loop_oracle(self, n):
        """Every size's stacked system matrices equal, bit for bit and zero
        signs included, each set's q columns then s columns of the
        row-by-row loop blocks, in combinations order."""
        rng = np.random.default_rng(79 + n)
        strategies = deterministic_strategies(n)
        for _ in range(5):
            dirs = MeasurementSet(random_unit_vectors(rng, n))
            want = coefficient_blocks_loops(strategies, dirs.directions)
            for k in range(1, 2**n + 1):
                sets, a_stack = _set_group(dirs.directions.tobytes(), n, k)[:2]
                assert sets == tuple(itertools.combinations(strategies, k))
                assert a_stack.shape == (len(sets), 4 * n * n + 1, 4 * k)
                for key, a_mat in zip(sets, a_stack):
                    columns = [want[s][:, :1] for s in key] + [want[s][:, 1:] for s in key]
                    assert a_mat.tobytes() == np.concatenate(columns, axis=1).tobytes()

    @pytest.mark.parametrize(
        "forced, calls", [("unresolved", 1), ("negative_weight", 1)]
    )
    def test_top_assignment_solved_once(self, monkeypatch, forced, calls):
        """At d = 2^n phase 1 evaluates the all-distinct set alone, once, in a
        single batched solve: its answer, a sound rejection or unresolved, is
        every case's."""
        evaluated = []

        def solve(ctx, groups, order, locate):
            evaluated.append([key for sets, *_ in groups for key in sets])
            return None, np.array([forced], dtype=object), []

        monkeypatch.setattr(_SearchContext, "_solve", solve)
        trace = search_lhs_bounded(bd_box(0.5, 0.4, -0.3), pauli_axes(2), 4)
        assert evaluated == [[deterministic_strategies(2)]]
        assert len(evaluated[0]) == calls
        assert [label for label, _ in trace.cases] == search_case_labels(2, 4)
        assert {reason for _, reason in trace.cases} == {forced}
        assert trace.sound == trace.exhaustive == (forced != "unresolved")


def count_factored_sets(monkeypatch, n):
    """Patch np.linalg.svd and np.linalg.lstsq to record each system matrix
    of the n-setting search (4 n^2 + 1 rows) they factor, one by one or
    stacked, by the matrix's bytes."""
    calls = []

    def counting(factor):
        def counted(a, *args, **kwargs):
            if np.shape(a)[-2:-1] == (4 * n * n + 1,):
                calls.extend(m.tobytes() for m in np.reshape(a, (-1, *np.shape(a)[-2:])))
            return factor(a, *args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "lstsq", counting(np.linalg.lstsq))
    return calls


class TestFactoredSystems:
    @pytest.mark.parametrize("n", [2, 3])
    def test_least_squares_matches_direct_lstsq(self, n):
        """For Pauli and random directions and every nonempty strategy set,
        _least_squares on Bell-diagonal, mixed and k-class model boxes gives
        the reason and rank of a direct lstsq against the box, and its
        pseudo-inverse point lies within 1e-12 of lstsq's.  A refinement
        job's null basis is a view of the table's V^T with 4k - rank
        orthonormal columns that the set's system maps to zero."""
        rng = np.random.default_rng(211 + n)
        strategies = deterministic_strategies(n)
        sets = [
            subset
            for size in range(1, 2**n + 1)
            for subset in itertools.combinations(strategies, size)
        ]
        seen, jobs = set(), 0
        for dirs in (pauli_axes(n), MeasurementSet(random_unit_vectors(rng, n))):
            blocks = coefficient_blocks_loops(strategies, dirs.directions)
            rho = bell_diagonal(BellDiagonalParams(*random_physical_triple(rng)))
            a, b = random_unit_vectors(rng, 2) * rng.uniform(0.2, 0.9, size=(2, 1))
            mixed = 0.5 * np.kron(state_from_bloch(a), state_from_bloch(b)) + 0.5 * rho
            boxes = [
                box_from_state(rho, pauli_axes(n), dirs).p,
                box_from_state(mixed, pauli_axes(n), dirs).p,
                random_model_box(rng, 2 ** (n - 1), dirs, "deterministic"),
            ]
            for p in boxes:
                ctx = _SearchContext(Box(n, p), dirs, 1e-9)
                for key in sets:
                    _, reason, job = ctx._least_squares(key)
                    keys, a_stack, pinv_stack, ranks, vt_stack = _set_group(
                        ctx.dir_bytes, n, len(key)
                    )
                    row = keys.index(key)
                    z = pinv_stack[row] @ ctx.rhs
                    want, want_rank, want_z = least_squares_lstsq(
                        p, dirs.directions, blocks, key, 1e-9
                    )
                    assert (reason, ranks[row]) == (want, want_rank), key
                    assert np.abs(z - want_z).max() <= 1e-12, key
                    if job is not None:
                        null = job[2]
                        assert job[1] == key and np.shares_memory(null, vt_stack)
                        assert null.shape == (4 * len(key), 4 * len(key) - want_rank), key
                        assert np.abs(a_stack[row] @ null).max() <= 1e-12, key
                        assert np.abs(null.T @ null - np.eye(null.shape[1])).max() <= 1e-12
                        assert np.array_equal(job[3], z)
                        jobs += 1
                    seen.add(reason)
        assert {"", "reconstruction_residual", "unresolved"} <= seen
        assert jobs > 0

    def test_cached_arrays_are_read_only(self):
        """Every array of both process-wide tables refuses writes, at n = 2
        and 3: each size's stacked system matrices, pseudo-inverses, ranks
        and V^T, and each (n, d)'s assignment-to-set map and first-appearance
        order; every other part of either table is a tuple."""
        arrays, parts = [], []
        for n in (2, 3):
            directions = pauli_axes(n).directions.tobytes()
            for k in range(1, 2**n + 1):
                group, table = _set_group(directions, n, k), _case_table(n, k)
                assert len(group) == 5
                arrays += group[1:] + (table.set_of, table.order)
                parts += [group[0], table.labels, table.sizes, table.locate]
        assert len(arrays) == 6 * 12
        for array in arrays:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1
        assert all(type(part) is tuple for part in parts)

    def test_interleaved_directions_match_a_cleared_cache(self):
        """Searches alternating between Pauli and random directions, at every
        d, give exactly the results each one gives on an emptied cache."""
        rng = np.random.default_rng(223)
        runs = []
        for n in (2, 3):
            dir_sets = (pauli_axes(n), MeasurementSet(random_unit_vectors(rng, n)))
            boxes = [
                [Box(n, random_model_box(rng, 3, dirs, "deterministic")) for dirs in dir_sets],
                [Box(n, box_from_state(
                    bell_diagonal(BellDiagonalParams(0.5, 0.4, -0.3)), pauli_axes(n), dirs
                ).p) for dirs in dir_sets],
            ]
            for d in (2, 3, 2**n):
                for pair in boxes:
                    runs += [(box, dirs, d) for box, dirs in zip(pair, dir_sets)]

        def outcome(result):
            if isinstance(result, LhvLhsModel):
                return result.to_json_dict()
            return result.cases, result.sound, result.exhaustive

        interleaved = [outcome(search_lhs_bounded(*run)) for run in runs]
        fresh = []
        for run in runs:
            _set_group.cache_clear()
            _case_table.cache_clear()
            fresh.append(outcome(search_lhs_bounded(*run)))
        assert interleaved == fresh
        assert {type(result) for result in fresh} == {dict, tuple}

    def test_second_certificate_factors_no_set_again(self, monkeypatch):
        """A second certificate at the same (n, d_A), on another box, factors
        no system matrix, its refinements and their zero-weight retries
        included: every strategy set it solves was factored by the first,
        each exactly once."""
        calls = count_factored_sets(monkeypatch, 2)
        retries = []
        least_squares = _SearchContext._least_squares

        def recording(ctx, key):
            retries.append((key, len(calls)))
            return least_squares(ctx, key)

        monkeypatch.setattr(_SearchContext, "_least_squares", recording)
        _set_group.cache_clear()
        first = certify_quantumness(bd_box(0.5, 0.4, -0.3), 2, d_A=3)
        assert len(calls) == len(set(calls)) == 14
        calls.clear()
        retries.clear()
        second = certify_quantumness(bd_box(0.45, 0.35, -0.25), 2, d_A=3)
        assert first.verdict == second.verdict == UNDECIDED
        assert calls == []
        assert retries and all(count == 0 for _, count in retries)

    def test_cold_certificate_factors_each_needed_set_once(self, monkeypatch):
        """On a cleared table, a cold n = 3, d_A = 3 certificate factors at
        most the 92 sets of sizes 1 to 3 and the all-distinct set, each once:
        a size is factored only when a search needs it.  A box retired at
        d_A by the rank obstruction factors the all-distinct set alone."""
        calls = count_factored_sets(monkeypatch, 3)
        axes = pauli_axes(3)
        boxes = {
            SUPERUNSTEERABLE: bd_box(0.3, 0.3, -0.3, n=3),
            CLASSICAL_AT_DIMENSION: Box(3, random_model_box(
                np.random.default_rng(5), 3, axes, "deterministic"
            )),
        }
        for verdict, want in ((SUPERUNSTEERABLE, 1), (CLASSICAL_AT_DIMENSION, 92)):
            _set_group.cache_clear()
            calls.clear()
            assert certify_quantumness(boxes[verdict], 3, d_A=3).verdict == verdict
            assert len(calls) == len(set(calls)) == want <= 93


def forced_traces(n, d):
    """(head, tail) of a trace at (n, d): a head of every phase-1 reason,
    forced to cycle through three reasons, and no head."""
    cycle = ("negative_weight", "reconstruction_residual", "bloch_norm_exceeds_weight")
    head = tuple(cycle[i % 3] for i in range(math.comb(2**n + d - 1, d)))
    return [(head, "unresolved"), ((), "correlator_rank_exceeds_dimension")]


def pairs_of(n, d, head, tail):
    """The trace as the tuple of (label, reason) pairs it stands for."""
    labels = _case_table(n, d).labels
    return tuple(zip(labels, head + (tail,) * (len(labels) - len(head))))


class TestCaseTrace:
    @pytest.mark.parametrize(
        "n, d", [(n, d) for n in (2, 3) for d in range(1, 2**n + 1)]
    )
    def test_json_matches_the_pairs(self, n, d):
        """to_json_dict expands the trace to one {"case", "violated"} dict
        per pair, in order, with or without a head."""
        for head, tail in forced_traces(n, d):
            cert = Certificate(UNDECIDED, d, 0.5, None, CaseTrace(n, d, head, tail))
            want = [{"case": c, "violated": v} for c, v in pairs_of(n, d, head, tail)]
            assert cert.to_json_dict()["trace"] == want

    @pytest.mark.parametrize(
        "n, d", [(n, d) for n in (2, 3) for d in range(1, 2**n + 1)]
    )
    def test_reads_as_the_tuple_of_pairs(self, n, d):
        """Iteration, len, indices at both ends and around the head/tail
        boundary, slices, reversed, index, count, equality and hash match the
        tuple of pairs."""
        for head, tail in forced_traces(n, d):
            cases, pairs = CaseTrace(n, d, head, tail), pairs_of(n, d, head, tail)
            assert list(cases) == list(pairs) and len(cases) == len(pairs)
            k = len(head)
            for i in {0, 1, k - 1, k, k + 1, len(pairs) - 1} & set(range(len(pairs))):
                assert cases[i] == pairs[i] and cases[i - len(pairs)] == pairs[i]
            assert cases[-1] == pairs[-1]
            assert cases[:3] == pairs[:3] and cases[::-7] == pairs[::-7]
            assert tuple(reversed(cases)) == tuple(reversed(pairs))
            for pair in {pairs[0], pairs[k - 1], pairs[-1]}:
                assert cases.index(pair) == pairs.index(pair)
                assert cases.count(pair) == pairs.count(pair)
            assert cases.count(("no such case", tail)) == 0
            with pytest.raises(ValueError):
                cases.index(("no such case", tail))
            assert cases == pairs and pairs == cases and hash(cases) == hash(pairs)
            assert cases != pairs[:-1] and cases != list(pairs)
            for index in (len(pairs), -len(pairs) - 1):
                with pytest.raises(IndexError):
                    cases[index]

    def test_search_holds_the_cached_labels(self):
        """A returned trace names its (n, d), reads the cached label table
        itself and fetched it when the trace was built: under a blanket
        reason with no head, sound and exhaustive, and below 2^n with every
        phase-1 reason in the head, neither."""
        _case_table.cache_clear()
        blanket = search_lhs_bounded(bd_box(0.5, 0.4, -0.3), pauli_axes(2), 2)
        assert (blanket.cases.n, blanket.cases.d) == (2, 2)
        assert "labels" in vars(_case_table(2, 2))
        assert blanket.cases.labels is _case_table(2, 2).labels
        assert blanket.cases.head == ()
        assert blanket.cases.tail == "correlator_rank_exceeds_dimension"
        assert blanket.sound and blanket.exhaustive
        phase1 = search_lhs_bounded(bd_box(0.5, 0.4, -0.3), pauli_axes(2), 3)
        assert "labels" in vars(_case_table(2, 3))
        assert phase1.cases.labels is _case_table(2, 3).labels
        assert len(phase1.cases.head) == math.comb(4 + 3 - 1, 3)
        assert phase1.cases.tail == "unresolved"
        assert not phase1.sound and not phase1.exhaustive

    def test_an_index_reads_one_label(self, monkeypatch):
        """cases[i] reads the one label at i from the table, with its head
        reason or the tail, and never walks the labels."""
        n, d = 3, 3
        head, tail = forced_traces(n, d)[0]
        cases, pairs = CaseTrace(n, d, head, tail), pairs_of(n, d, head, tail)
        reads = []

        class CountingLabels(tuple):
            def __getitem__(self, index):
                reads.append(index)
                return tuple.__getitem__(self, index)

            def __iter__(self):
                raise AssertionError("an index walked the labels")

        table = _case_table(n, d)
        monkeypatch.setitem(vars(table), "labels", CountingLabels(table.labels))
        for i in (0, len(head) - 1, len(head), len(pairs) - 1, -1, -len(pairs)):
            reads.clear()
            assert cases[i] == pairs[i] and len(reads) == 1

    def test_model_at_the_top_builds_no_labels(self):
        """Labels are built only for a returned trace: a d = 8 search that
        returns a model builds no (3, 8) labels, nor does a certificate whose
        top search finds one, while its d_A trace builds that table's."""
        box = bd_box(0.3, 0.3, -0.3, n=3)
        _case_table.cache_clear()
        assert isinstance(search_lhs_bounded(box, pauli_axes(3), 8), LhvLhsModel)
        assert "labels" not in vars(_case_table(3, 8))
        cert = certify_quantumness(box, 3)
        assert cert.verdict == SUPERUNSTEERABLE and cert.model.dimension == 8
        assert "labels" not in vars(_case_table(3, 8))
        assert cert.trace.labels is vars(_case_table(3, 2))["labels"]
        assert list(_case_table(3, 8).labels) == search_case_labels(3, 8)


class TestTraceEntries:
    def test_every_mutator_raises(self):
        """A certificate's trace entries are shared, so each mutator raises
        TypeError and leaves the entry, and every later listing, as it was."""
        cert = certify_quantumness(white_noise_bb84(0.5), 2)
        want = [dict(entry) for entry in cert.to_json_dict()["trace"]]
        entry = cert.to_json_dict()["trace"][0]

        def setitem(entry):
            entry["case"] = "x"

        def delitem(entry):
            del entry["case"]

        def ior(entry):
            entry |= {"violated": "x"}

        for mutate in (setitem, delitem, ior, lambda e: e.update(case="x"), lambda e: e.pop("case"),
                       lambda e: e.popitem(), lambda e: e.setdefault("extra", 1), lambda e: e.clear()):
            with pytest.raises(TypeError, match="read-only"):
                mutate(entry)
        assert entry == want[0]
        assert cert.to_json_dict()["trace"] == want

    def test_copies_are_plain_mutable_dicts(self):
        """pickle at every protocol, copy, deepcopy and dict() give equal,
        plain, mutable dicts, whose changes leave the entry as it was."""
        trace = certify_quantumness(white_noise_bb84(0.5), 2).to_json_dict()["trace"]
        entry, want = trace[0], dict(trace[0])
        copies = [pickle.loads(pickle.dumps(entry, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(entry), copy.deepcopy(entry), dict(entry), entry.copy()]
        for copied in copies:
            assert copied == entry and type(copied) is dict
            copied["case"] = "changed"
            del copied["violated"]
        assert entry == want
        whole = pickle.loads(pickle.dumps(trace))
        assert whole == trace and {type(item) for item in whole} == {dict}
        assert {type(item) for item in copy.deepcopy(trace)} == {dict}

    @pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_certificates_share_no_mutable_state(self, n, d):
        """Each call returns a fresh list: appending to, popping from and
        reversing one certificate's trace leaves every other certificate's
        list, its own earlier list and every later call unchanged, with a
        phase-1 head or under a blanket reason."""
        certs = [Certificate(UNDECIDED, d, 0.5, None, CaseTrace(n, d, *parts))
                 for parts in forced_traces(n, d)]
        certs.append(certify_quantumness(bd_box(0.5, 0.4, -0.3, n=n), n, d))
        wants = [[dict(entry) for entry in cert.to_json_dict()["trace"]] for cert in certs]
        for i, cert in enumerate(certs):
            lists = [other.to_json_dict()["trace"] for other in certs]
            earlier, mutated = lists[i], cert.to_json_dict()["trace"]
            mutated.append({"case": "extra", "violated": "none"})
            mutated.pop(0)
            mutated.reverse()
            assert lists == wants
            assert [other.to_json_dict()["trace"] for other in certs] == wants
            assert earlier is not mutated

    def test_warm_certificate_builds_no_entries(self):
        """A second certificate at the same (n, d_A) and reason builds no
        entry: its trace lists the first's entry objects."""
        first = certify_quantumness(bd_box(0.3, 0.3, -0.3, n=3), 3, d_A=3)
        second = certify_quantumness(bd_box(0.25, 0.25, -0.25, n=3), 3, d_A=3)
        assert first.trace == second.trace and not first.trace.head
        entries = first.to_json_dict()["trace"]
        before = _trace_entries.cache_info()
        again = second.to_json_dict()["trace"]
        after = _trace_entries.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1
        assert all(a is b for a, b in zip(entries, again)) and len(entries) == 7834

    def test_copied_certificate_shares_the_entries(self):
        """A (3, 3) certificate pickles to under 4 KB, since its trace names
        (n, d) instead of holding the labels.  Pickled at every protocol or
        deep-copied, with or without a phase-1 head, it gives an equal trace,
        identical JSON and a list of the original's shared tail entries."""
        certs = [certify_quantumness(bd_box(0.3, 0.3, -0.3, n=3), 3, d_A=3)]
        certs += [Certificate(UNDECIDED, 3, 0.5, None, CaseTrace(3, 3, *parts))
                  for parts in forced_traces(3, 3)]
        assert len(pickle.dumps(certs[0])) < 4096
        for cert in certs:
            doc = cert.to_json_dict()
            copies = [pickle.loads(pickle.dumps(cert, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for other in copies + [copy.deepcopy(cert)]:
                assert other.trace == cert.trace and other.trace is not cert.trace
                again = other.to_json_dict()
                assert json.dumps(again) == json.dumps(doc)
                head = len(cert.trace.head)
                assert all(a is b for a, b in zip(again["trace"][head:], doc["trace"][head:]))
                assert {type(entry) for entry in again["trace"]} == {_TraceEntry}

    def test_cache_stays_within_its_bound(self):
        """More (n, d, reason) keys than the cache holds evict the oldest,
        and every trace still lists its own pairs."""
        _trace_entries.cache_clear()
        bound = _trace_entries.cache_info().maxsize
        keys = [(n, d, tail) for n in (2, 3) for d in range(1, 2**n + 1)
                for tail in ("unresolved", "correlator_rank_exceeds_dimension")]
        assert len(keys) > bound
        for n, d, tail in keys:
            cert = Certificate(UNDECIDED, d, 0.5, None, CaseTrace(n, d, (), tail))
            want = [{"case": c, "violated": tail} for c in _case_table(n, d).labels]
            assert cert.to_json_dict()["trace"] == want
            assert _trace_entries.cache_info().currsize <= bound
        assert _trace_entries.cache_info().currsize == bound


def fast_lane_model(ctx):
    """The model of search_lhs_bounded's lanes below 2^n without a blanket
    reason, in its order: the product lane where sigma_1(Cov) is within the
    margin, then the two-class lane."""
    model = ctx.product_lane()[0] if ctx.svals[0] <= ctx.margin else None
    return model if model is not None else ctx.construct_two_class()


def one_assignment_at_a_time(box, dirs, d, tol=1e-9):
    """Reference search below 2^n: phase 1 as one direct lstsq of each
    assignment's own system (tests/oracles.py), repeated strategies kept, in
    enumeration order, each refined before the next is tried in the null
    space of its own SVD under lstsq's rank, then the same blanket, labels
    and flags as search_lhs_bounded."""
    ctx = _SearchContext(box, dirs, tol)
    blanket = ctx.universal_reason(d)
    if blanket is None:
        model = fast_lane_model(ctx)
        if model is not None:
            return model
    reasons = []
    if blanket is None:
        strategies = deterministic_strategies(box.n)
        blocks = coefficient_blocks_loops(strategies, dirs.directions)
        for assignment in itertools.combinations_with_replacement(strategies, d):
            reason, rank, z = least_squares_lstsq(box.p, dirs.directions, blocks, assignment, tol)
            model = ctx._model_from_solution(assignment, z) if reason == "" else None
            if model is None and reason in ("", "unresolved") and rank < 4 * d:
                a_mat = np.concatenate(
                    [blocks[s][:, :1] for s in assignment] + [blocks[s][:, 1:] for s in assignment],
                    axis=1,
                )
                model = ctx._refine(assignment, np.linalg.svd(a_mat)[2][rank:].T, z)
            if model is not None:
                return model
            reasons.append(reason or "unresolved")
    labels = _case_table(box.n, d).labels
    reasons += [blanket or "unresolved"] * (len(labels) - len(reasons))
    sound = "unresolved" not in reasons
    return InfeasibilityTrace(d, tuple(zip(labels, reasons)), sound, sound and blanket is not None)


def one_set_at_a_time(box, dirs, d, tol=1e-9):
    """Reference phase 1 below 2^n without batching: ctx._least_squares on
    each distinct strategy set, one at a time, in order of first appearance,
    returning the first model; then the refinements, least worst cone
    violation first, ties in that order; then the trace as
    search_lhs_bounded builds it."""
    ctx = _SearchContext(box, dirs, tol)
    blanket = ctx.universal_reason(d)
    if blanket is None:
        model = fast_lane_model(ctx)
        if model is not None:
            return model
    reasons = []
    if blanket is None:
        answers = {}
        strategies = deterministic_strategies(box.n)
        for assignment in itertools.combinations_with_replacement(strategies, d):
            key = tuple(dict.fromkeys(assignment))
            if key not in answers:
                answers[key] = ctx._least_squares(key)
                if answers[key][0] is not None:
                    return answers[key][0]
            reasons.append(answers[key][1])
        jobs = [job for _, _, job in answers.values() if job is not None]
        for job in sorted(jobs, key=lambda job: job[0]):
            model = ctx._refine(*job[1:])
            if model is not None:
                return model
    labels = _case_table(box.n, d).labels
    reasons += [blanket or "unresolved"] * (len(labels) - len(reasons))
    sound = "unresolved" not in reasons
    return InfeasibilityTrace(d, tuple(zip(labels, reasons)), sound, sound and blanket is not None)


def record_refinements(monkeypatch):
    """Patch _SearchContext._refine to record each outermost call as
    (worst cone violation of its least-squares point, assignment)."""
    calls, depth = [], []
    refine = _SearchContext._refine

    def recording_refine(ctx, assignment, null, z0):
        if not depth:
            d = len(assignment)
            violation = (np.linalg.norm(z0[d:].reshape(d, 3), axis=1) - z0[:d]).max()
            calls.append((float(violation), assignment))
        depth.append(assignment)
        try:
            return refine(ctx, assignment, null, z0)
        finally:
            depth.pop()

    monkeypatch.setattr(_SearchContext, "_refine", recording_refine)
    return calls


class TestTwoPassPhaseOne:
    def test_matches_one_assignment_at_a_time(self):
        """Below 2^n, k-class model boxes, product mixes and Bell-diagonal
        boxes get the reference's verdict: both searches return a verified
        model, or both return equal traces (labels, reasons, flags)."""
        rng = np.random.default_rng(131)
        outcomes = []
        for i in range(36):
            n = 2 + i % 2
            d = int(rng.integers(2, 2**n))
            axes = pauli_axes(n)
            kind = i % 3
            if kind == 0:
                alice = ("deterministic", "stochastic")[i % 2]
                p = random_model_box(rng, int(rng.integers(2, 2**n + 1)), axes, alice)
            else:
                rho = bell_diagonal(BellDiagonalParams(*random_physical_triple(rng)))
                if kind == 1:
                    a, b = random_unit_vectors(rng, 2) * rng.uniform(0.2, 0.9, size=(2, 1))
                    w = rng.uniform(0.2, 0.8)
                    rho = w * np.kron(state_from_bloch(a), state_from_bloch(b)) + (1 - w) * rho
                p = box_from_state(rho, axes, axes).p
            box = Box(n, p)
            got = search_lhs_bounded(box, axes, d)
            want = one_assignment_at_a_time(box, axes, d)
            assert type(got) is type(want), (i, n, d)
            if isinstance(got, LhvLhsModel):
                assert verify_lhv_lhs(got, box, 1e-9)[0], (i, n, d)
            else:
                assert got == want, (i, n, d)
            outcomes.append(type(got).__name__)
        assert {"LhvLhsModel", "InfeasibilityTrace"} <= set(outcomes)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_phase_one_matches_one_set_at_a_time(self, n):
        """At every d from 2 to 2^n - 1, on Bell-diagonal, mixed and k-class
        model boxes with deterministic and stochastic Alice: the batched
        search returns the model of solving one distinct set at a time,
        equal in to_json_dict, or the same trace; and an assignment-by-
        assignment search agrees on whether a model exists and on the trace."""
        rng = np.random.default_rng(167 + n)
        axes = pauli_axes(n)
        outcomes = set()
        for i in range(24 if n == 2 else 12):
            kind = ("bd", "mixed", "deterministic", "stochastic")[i % 4]
            if kind in ("deterministic", "stochastic"):
                p = random_model_box(rng, int(rng.integers(2, 2**n + 1)), axes, kind)
            else:
                rho = bell_diagonal(BellDiagonalParams(*random_physical_triple(rng)))
                if kind == "mixed":
                    a, b = random_unit_vectors(rng, 2) * rng.uniform(0.2, 0.9, size=(2, 1))
                    w = rng.uniform(0.2, 0.8)
                    rho = w * np.kron(state_from_bloch(a), state_from_bloch(b)) + (1 - w) * rho
                p = box_from_state(rho, axes, axes).p
            box = Box(n, p)
            for d in range(2, 2**n):
                got = search_lhs_bounded(box, axes, d)
                want = one_set_at_a_time(box, axes, d)
                assert type(got) is type(want), (i, kind, d)
                if isinstance(got, LhvLhsModel):
                    assert got.to_json_dict() == want.to_json_dict(), (i, kind, d)
                else:
                    assert got.cases == want.cases, (i, kind, d)
                    assert (got.sound, got.exhaustive) == (want.sound, want.exhaustive)
                    assert got == one_assignment_at_a_time(box, axes, d), (i, kind, d)
                outcomes.add((kind, type(got).__name__))
        assert len(outcomes) >= 6

    def test_plain_least_squares_model_needs_no_refinement(self, monkeypatch):
        """Two-class deterministic-Alice model boxes at n = 2, d = 3: an
        early strategy set's least-squares point is not unique and leaves the
        cones, a later one's is a model.  That later model, the first over
        the distinct strategy sets in order of first appearance, is returned,
        and no refinement runs.  A box whose two classes share their
        strategy is a product box, and the product lane's one-class model,
        which runs first, is returned instead."""
        calls = record_refinements(monkeypatch)
        rng = np.random.default_rng(2)
        phase_one = 0
        for i in range(12):
            box = Box(2, random_model_box(rng, 2, pauli_axes(2), "deterministic"))
            result = search_lhs_bounded(box, pauli_axes(2), 3)
            assert calls == [], i
            ctx = _SearchContext(box, pauli_axes(2), 1e-9)
            if ctx.svals[0] <= ctx.margin:
                assert result.to_json_dict() == ctx.product_lane()[0].to_json_dict(), i
                continue
            phase_one += 1
            strategies = deterministic_strategies(2)
            blocks = coefficient_blocks_loops(strategies, pauli_axes(2).directions)
            keys = dict.fromkeys(
                tuple(dict.fromkeys(assignment))
                for assignment in itertools.combinations_with_replacement(strategies, 3)
            )
            answers = [
                (key, least_squares_lstsq(box.p, pauli_axes(2).directions, blocks, key, 1e-9))
                for key in keys
            ]
            first = next(j for j, (_, (reason, _, _)) in enumerate(answers) if reason == "")
            key, (_, _, z) = answers[first]
            assert result.alice_tables.tolist() == [strategy_table(s).tolist() for s in key], i
            assert np.abs(result.weights - z[: len(key)] / z[: len(key)].sum()).max() <= 1e-12, i
            assert verify_lhv_lhs(result, box, 1e-9)[0], i
        assert phase_one >= 9

    def test_refinements_run_least_violated_first(self, monkeypatch):
        """Four-class stochastic model boxes at n = 2, d = 3, several with no
        three-class model: the refinements run in ascending worst cone
        violation of their least-squares points, ties in enumeration
        order, which is not the enumeration order itself."""
        calls = record_refinements(monkeypatch)
        order = list(itertools.combinations_with_replacement(deterministic_strategies(2), 3))
        longest = 0
        rng = np.random.default_rng(1)
        for i in range(16):
            calls.clear()
            box = Box(2, random_model_box(rng, 4, pauli_axes(2), "stochastic"))
            search_lhs_bounded(box, pauli_axes(2), 3)
            keys = [(violation, order.index(assignment)) for violation, assignment in calls]
            assert keys == sorted(keys), i
            if sorted(keys, key=lambda key: key[1]) != keys:
                longest = max(longest, len(keys))
        assert longest >= 3


class TestDistinctStrategySets:
    def test_phase_one_solves_each_distinct_set(self, monkeypatch):
        """An UNDECIDED box at n = 2, d_A = 3: phase 1 is one batched solve
        over the table's sets, in which each nonempty strategy set of size
        <= 3 appears exactly once and no repeated strategy does; the map
        sends every assignment to its dict.fromkeys reduction, the order is
        that of first appearance, and the refinements' zero-weight retries
        solve single rows of the same cached stacks.  The trace keeps every
        label."""
        solves = []
        solve = _SearchContext._solve

        def recording(ctx, groups, order, locate):
            solves.append(([key for sets, *_ in groups for key in sets], groups, order))
            return solve(ctx, groups, order, locate)

        monkeypatch.setattr(_SearchContext, "_solve", recording)
        cert = certify_quantumness(bd_box(0.5, 0.4, -0.3), 2, d_A=3)
        assert cert.verdict == UNDECIDED
        strategies = deterministic_strategies(2)
        subsets = [
            subset
            for size in (1, 2, 3)
            for subset in itertools.combinations(strategies, size)
        ]
        evaluated, groups, order = solves[0]
        assert len(subsets) == 14 and evaluated == subsets
        assignments = list(itertools.combinations_with_replacement(strategies, 3))
        set_of = _case_table(2, 3).set_of
        assert [evaluated[i] for i in set_of] == [tuple(dict.fromkeys(a)) for a in assignments]
        assert [evaluated[i] for i in order] == list(dict.fromkeys(
            tuple(dict.fromkeys(assignment)) for assignment in assignments
        ))
        directions = pauli_axes(2).directions.tobytes()
        for k, group in enumerate(groups, start=1):
            assert group[1] is _set_group(directions, 2, k)[1]
        assert len(solves) > 1
        for (key,), (group,), _ in solves[1:]:
            assert len(key) < 3
            assert np.shares_memory(group[2], _set_group(directions, 2, len(key))[2])
        labels = _case_table(2, 3).labels
        assert len(cert.trace) == len(labels) == 26
        assert [label for label, _ in cert.trace] == list(labels)

    def test_repeated_strategies_are_never_rejected(self):
        """Falsification: the box of a random k-class model whose
        deterministic Alice strategies repeat (k drawn with replacement from
        fewer distinct ones; pure or mixed Bob states; Pauli or random
        directions) gets a verified model of dimension at most k, and the
        least-squares solve of its distinct strategy set proves nothing
        against it."""
        rng = np.random.default_rng(151)
        proofs = {"reconstruction_residual", "negative_weight", "bloch_norm_exceeds_weight"}
        for i in range(60):
            n = 2 + i % 2
            strategies = deterministic_strategies(n)
            k = int(rng.integers(2, 2**n + 1))
            pool = rng.choice(2**n, size=int(rng.integers(1, k)), replace=False)
            drawn = rng.choice(pool, size=k)
            tables = np.stack([strategy_table(strategies[j]) for j in drawn])
            states = random_unit_vectors(rng, k)
            if i % 4 >= 2:
                states *= rng.uniform(0.0, 1.0, size=(k, 1))
            dirs = pauli_axes(n) if i % 8 < 4 else MeasurementSet(random_unit_vectors(rng, n))
            weights = rng.dirichlet(np.ones(k))
            box = Box(n, model_box_loops(weights, tables, states, dirs.directions))
            result = search_lhs_bounded(box, dirs, k)
            assert isinstance(result, LhvLhsModel), (i, k)
            assert result.dimension <= k
            assert verify_lhv_lhs(result, box, 1e-9)[0], (i, k)
            distinct = tuple(strategies[j] for j in sorted(set(drawn)))
            ctx = _SearchContext(box, dirs, 1e-9)
            assert ctx._least_squares(distinct)[1] not in proofs, (i, k, distinct)


class TestTopDimension:
    def test_separable_boxes_feasible_at_four(self):
        """Aligned-Pauli boxes of separable triples always have d=4 models."""
        rng = np.random.default_rng(73)
        count = 0
        while count < 10:
            c = random_physical_triple(rng)
            if abs(c[0]) + abs(c[1]) + abs(c[2]) > 1.0:
                continue
            count += 1
            result = search_lhs_bounded(bd_box(*c), pauli_axes(2), 4)
            assert isinstance(result, LhvLhsModel)

    def test_all_distinct_solve_finds_every_model(self):
        """Falsification: the box of a random k-class model (1 <= k <= 2^n + 3
        deterministic strategies drawn with repeats, pure or mixed Bob states,
        Pauli or random directions) gets a verified model from the single
        all-distinct solve that decides the top dimension."""
        rng = np.random.default_rng(97)
        for i in range(120):
            n = 2 + i % 2
            strategies = deterministic_strategies(n)
            k = int(rng.integers(1, 2**n + 4))
            tables = np.stack(
                [strategy_table(strategies[j]) for j in rng.integers(0, 2**n, size=k)]
            )
            states = random_unit_vectors(rng, k)
            if i % 4 >= 2:
                states *= rng.uniform(0.0, 1.0, size=(k, 1))
            dirs = pauli_axes(n) if i % 8 < 4 else MeasurementSet(random_unit_vectors(rng, n))
            weights = rng.dirichlet(np.ones(k))
            box = Box(n, model_box_loops(weights, tables, states, dirs.directions))
            ctx = _SearchContext(box, dirs, 1e-9)
            model, reason, job = ctx._least_squares(strategies)
            if job is not None:
                model = ctx._refine(*job[1:])
            assert model is not None, (i, k, reason)
            assert model.dimension <= 2**n
            assert verify_lhv_lhs(model, box, 1e-9)[0]

    def test_refinement_stops_at_first_interior_point(self, monkeypatch):
        """A two-class model's box whose all-distinct least-squares point
        leaves the cones: SLSQP is left at its first point inside every cone,
        and that point is the verified model returned."""
        tables = np.array([[[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
        states = np.array([[-0.2, 0.2, -0.6], [-0.6, 0.5, 0.5]])
        box = LhvLhsModel(2, np.array([0.5, 0.5]), tables, states, pauli_axes(2)).reconstruct_box()
        exits = []
        minimize = scipy.optimize.minimize

        def recording_minimize(*args, **kwargs):
            try:
                return minimize(*args, **kwargs)
            except _Interior:
                exits.append("interior")
                raise

        monkeypatch.setattr(scipy.optimize, "minimize", recording_minimize)
        result = search_lhs_bounded(box, pauli_axes(2), 4)
        assert exits == ["interior"]
        assert isinstance(result, LhvLhsModel)
        ok, dev = verify_lhv_lhs(result, box, 1e-9)
        assert ok, dev

    def test_refinement_end_point_judged_by_verification(self, monkeypatch):
        """A refinement whose end point lies 1e-9 outside a Bloch cone, yet
        builds a model within tol of the box once that class's Bloch vector
        is pulled back onto the sphere, returns the end point's model itself,
        not a retry on the classes of nonzero weight.  The box is a
        two-class model's on Pauli axes at n = 2 with Bob states in the x-y
        plane, so moving a class's s_l along z-hat stays in the null space of
        the all-distinct system; SLSQP is replaced by that move."""
        strategies = deterministic_strategies(2)
        weights, states = np.array([0.4, 0.6]), np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0]])
        tables = np.stack([strategy_table(strategies[j]) for j in (1, 2)])
        box = LhvLhsModel(2, weights, tables, states, pauli_axes(2)).reconstruct_box()
        exact = np.zeros(16)
        exact[[1, 2]] = weights
        exact[4:].reshape(4, 3)[[1, 2]] = weights[:, None] * states
        start, end = exact.copy(), exact.copy()
        start[4 + 3 + 2], end[4 + 3 + 2] = 0.5, np.sqrt(2.0 * 0.4 * 1e-9)
        _, a_stack, _, ranks, vt_stack = _set_group(pauli_axes(2).directions.tobytes(), 2, 4)
        null = vt_stack[0, ranks[0]:].T
        assert np.abs(a_stack[0] @ (end - start)).max() == 0.0
        assert _cone_codes(end, 4)[0] == 2 and 5e-10 < _cone_codes(end, 4)[1] < 2e-9
        x = np.append(null.T @ (end - start), 0.0)
        monkeypatch.setattr(scipy.optimize, "minimize", lambda *args, **kwargs: SimpleNamespace(x=x))
        result = _SearchContext(box, pauli_axes(2), 1e-9)._refine(strategies, null, start)
        assert isinstance(result, LhvLhsModel) and result.dimension == 4
        assert result.weights.tolist() == pytest.approx([0.0, 0.4, 0.6, 0.0], abs=1e-14)
        assert np.linalg.norm(result.bob_states[1]) == pytest.approx(1.0, abs=1e-15)
        assert verify_lhv_lhs(result, box, 1e-9)[0]

    def test_found_box_gets_a_model_at_the_top(self):
        """The one-class box on three random directions whose top search once
        ended "unresolved", its refinement's end point just outside a cone
        although the model built from it verifies, gets a verified model at
        d = 8, as at every other d."""
        first = np.array([0.8722059324186384, 0.11566955528872946, 0.32469010660858755])
        state = np.array([[-0.5032511618824713, -0.10286719347110525, 0.8579956926298179]])
        dirs = MeasurementSet(np.array([
            [0.9721236811898034, -0.19615137860134127, 0.1284530464519189],
            [-0.022394791138282594, -0.42246398372202837, 0.9061030050648692],
            [-0.1404986780920747, -0.9454172953487978, -0.2940174469478701],
        ]))
        tables = np.stack([first, 1.0 - first], axis=-1)[None]
        box = Box(3, model_box_loops(np.ones(1), tables, state, dirs.directions))
        for d in range(1, 9):
            result = search_lhs_bounded(box, dirs, d)
            assert isinstance(result, LhvLhsModel), d
            assert verify_lhv_lhs(result, box, 1e-9)[0], d

    def test_norm_obstruction_at_top_dimension(self):
        """sum_y C(y,y)^2 > 1 rules out every dimension, PR box included."""
        trace = search_lhs_bounded(pr_box(), pauli_axes(2), 4)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive
        reasons = {reason for _, reason in trace.cases}
        assert reasons == {"diagonal_correlator_norm_exceeds_one"}

    def test_boundary_of_the_steering_ellipse(self):
        """c1^2 + c2^2 = 1 is exactly feasible at d = 4."""
        result = search_lhs_bounded(bd_box(0.8, 0.6, -0.4), pauli_axes(2), 4)
        assert isinstance(result, LhvLhsModel)
        ok, dev = verify_lhv_lhs(result, bd_box(0.8, 0.6, -0.4), 1e-9)
        assert ok, dev

    def test_dimension_one(self):
        """Uniform boxes are product boxes; correlated ones are not."""
        uniform = Box(2, np.full((2, 2, 2, 2), 0.25))
        assert isinstance(search_lhs_bounded(uniform, pauli_axes(2), 1), LhvLhsModel)
        trace = search_lhs_bounded(bd_box(0.5, 0.5, 0.0), pauli_axes(2), 1)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive

    def test_product_lane_returns_the_product_model(self):
        """A product state's box is modelled at d = 1 by its own marginals."""
        axes = pauli_axes(2)
        model = search_lhs_bounded(box_from_state(product_state(), axes, axes), axes, 1)
        assert isinstance(model, LhvLhsModel) and model.dimension == 1
        assert model.bob_states[0] == pytest.approx([0.2, 0.5, 0.0], abs=1e-12)

    def test_product_lane_residual_proof(self):
        """A correlated box with non-uniform Alice marginals is retired at
        d = 1 by the forced product's reconstruction residual alone."""
        mix = 0.5 * product_state() + 0.5 * bell_diagonal(BellDiagonalParams(0.4, 0.3, -0.2))
        axes = pauli_axes(2)
        trace = search_lhs_bounded(box_from_state(mix, axes, axes), axes, 1)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive
        assert {reason for _, reason in trace.cases} == {"reconstruction_residual"}

    def test_product_lane_bias_residual_proof(self):
        """Three coplanar directions x-hat, y-hat and (x-hat + y-hat)/sqrt(2)
        with Bob biases off that plane: no Bloch vector gives them, so the
        d = 1 lane retires the product box by the biases' residual alone."""
        dirs = MeasurementSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [SQRT_HALF, SQRT_HALF, 0.0]]))
        alice = np.array([[0.5, 0.5], [0.7, 0.3], [0.2, 0.8]])
        bias = np.array([0.2, 0.2, -0.3])
        bob = np.stack([(1.0 + bias) / 2.0, (1.0 - bias) / 2.0], axis=-1)
        trace = search_lhs_bounded(Box(3, np.einsum("xa,yb->xyab", alice, bob)), dirs, 1)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive
        assert {reason for _, reason in trace.cases} == {"reconstruction_residual"}

    def test_product_lane_grey_zone(self):
        """A product box moved by a correlated perturbation that changes no
        marginal and shifts entries by 2 to 4 tol: the forced product model
        misses by more than tol, but not by enough for a proof.  The lane says
        nothing, and the search ends in a verified model or an unsound trace,
        never a sound one."""
        rng = np.random.default_rng(193)
        outcomes = set()
        for i in range(24):
            n = 2 + i % 2
            a, b = random_unit_vectors(rng, 2) * rng.uniform(0.2, 0.9, size=(2, 1))
            axes = pauli_axes(n)
            product = box_from_state(np.kron(state_from_bloch(a), state_from_bloch(b)), axes, axes).p
            tol = (1e-9, 1e-7, 1e-5)[i % 3]
            shift = rng.uniform(-1.0, 1.0, size=(n, n))
            sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
            moved = shift[:, :, None, None] * sign / np.abs(shift).max()
            box = Box(n, product + (2.0 + 2.0 * i / 23) * tol * moved)
            ctx = _SearchContext(box, axes, tol)
            assert ctx.product_lane() == (None, None), i
            result = search_lhs_bounded(box, axes, 1, tol=tol)
            if isinstance(result, LhvLhsModel):
                assert verify_lhv_lhs(result, box, tol)[0], i
            else:
                assert not result.sound and not result.exhaustive, i
            outcomes.add(type(result).__name__)
        assert "InfeasibilityTrace" in outcomes

    def test_zero_covariance_left_to_the_product_lane(self):
        """Uniform Alice times a Bob bias of 1e-9 off the plane of three
        coplanar directions: the covariance is exactly zero and the
        marginals count as uniform, yet no Bloch vector gives the bias, so
        at tol = 1e-12 the product lane finds no model.  The two-class lane
        leaves a zero covariance to it, and the search at d = 2 ends in a
        trace."""
        dirs = MeasurementSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [SQRT_HALF, SQRT_HALF, 0.0]]))
        bias = np.array([0.0, 0.0, 1e-9])
        bob = np.stack([(1.0 + bias) / 2.0, (1.0 - bias) / 2.0], axis=-1)
        box = Box(3, np.einsum("xa,yb->xyab", np.full((3, 2), 0.5), bob))
        ctx = _SearchContext(box, dirs, 1e-12)
        assert ctx.svals[0] == 0.0 and ctx.uniform_alice and ctx.uniform_bob
        assert ctx.product_lane()[0] is None and ctx.construct_two_class() is None
        assert isinstance(search_lhs_bounded(box, dirs, 2, tol=1e-12), InfeasibilityTrace)

    def test_product_lane_bloch_norm_proof(self):
        """Uniform Alice with p(b=0|y) = 1 on three orthogonal axes needs a
        Bob Bloch vector of norm sqrt(3), which the d = 1 lane rejects."""
        p = np.zeros((3, 3, 2, 2))
        p[:, :, :, 0] = 0.5
        trace = search_lhs_bounded(Box(3, p), pauli_axes(3), 1)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive
        assert "bloch_norm_exceeds_weight" in {reason for _, reason in trace.cases}

    def test_direction_count_must_match(self):
        """A search refuses directions of another length than the box's
        settings, at every d."""
        for n, other in ((2, 3), (3, 2)):
            for d in (1, 2, 4):
                with pytest.raises(DimensionMismatch, match="directions have"):
                    search_lhs_bounded(bd_box(0.5, 0.4, -0.3, n=n), pauli_axes(other), d)

    def test_bad_dimension_rejected(self):
        """d outside [1, 2^n] is an error."""
        with pytest.raises(OutOfRange):
            search_lhs_bounded(bd_box(0.5, 0.5, 0.0), pauli_axes(2), 5)
        with pytest.raises(OutOfRange):
            search_lhs_bounded(bd_box(0.5, 0.5, 0.0), pauli_axes(2), 0)

    def test_tolerance_floor(self):
        """tol below ATOL_BOX = 1e-12 is an error.  At tol = 0 this box's
        all-distinct residual, 2.2e-16 of rounding, came out as a sound and
        exhaustive rejection, yet the box has a model, found at tol = 1e-12."""
        box = bd_box(0.7, 0.3, 0.0)
        for tol in (0.0, 1e-13):
            with pytest.raises(OutOfRange, match="tol must be finite"):
                search_lhs_bounded(box, pauli_axes(2), 4, tol=tol)
        assert isinstance(search_lhs_bounded(box, pauli_axes(2), 4, tol=1e-12), LhvLhsModel)


def one_class_box(rng, i, n, dirs):
    """The box of a random one-class model on Bob directions `dirs`: a
    product state's on Pauli or random Alice axes (even i), or a random
    stochastic Alice table's with a random pure or mixed Bob state."""
    if i % 2:
        return random_model_box(rng, 1, dirs, "stochastic")
    a, b = random_unit_vectors(rng, 2) * rng.uniform(0.0, 1.0, size=(2, 1))
    alice = pauli_axes(n) if i % 4 == 0 else MeasurementSet(random_unit_vectors(rng, n))
    return box_from_state(np.kron(state_from_bloch(a), state_from_bloch(b)), alice, dirs).p


class TestOneClassModels:
    def test_search_finds_a_model_at_every_dimension(self):
        """Falsification: the box of a random one-class model, on Pauli or
        random Bob directions, gets a verified model from search_lhs_bounded
        at every d in [1, 2^n]: a one-class model is a model at every d."""
        rng = np.random.default_rng(229)
        for i in range(24):
            n = 2 + i % 2
            dirs = pauli_axes(n) if i % 8 < 4 else MeasurementSet(random_unit_vectors(rng, n))
            box = Box(n, one_class_box(rng, i // 2, n, dirs))
            for d in range(1, 2**n + 1):
                result = search_lhs_bounded(box, dirs, d)
                assert isinstance(result, LhvLhsModel), (i, d)
                assert verify_lhv_lhs(result, box, 1e-9)[0], (i, d)

    def test_certified_classical_at_every_dimension(self):
        """The box of the product of Alice's (0.6, 0.3, 0) and Bob's
        (0.2, 0.5, 0) on Pauli axes, and of random one-class models on Pauli
        Bob axes, is CLASSICAL_AT_DIMENSION at every d_A, with a verified
        model."""
        rng = np.random.default_rng(233)
        for i in range(13):
            n = 2 + i % 2
            if i < 2:
                p = box_from_state(product_state(), pauli_axes(n), pauli_axes(n)).p
            else:
                p = one_class_box(rng, i // 2, n, pauli_axes(n))
            box = Box(n, p)
            for d_a in range(1, 2**n + 1):
                cert = certify_quantumness(box, n, d_a)
                assert cert.verdict == CLASSICAL_AT_DIMENSION, (i, d_a)
                assert verify_lhv_lhs(cert.model, box, 1e-9)[0], (i, d_a)

    def test_product_lane_reason_proves_nothing_above_one_class(self):
        """Two deterministic classes of weight 1/2 on Pauli axes at n = 3
        that differ only on x = 0, with Bob states 5.6e-8 apart along z-hat:
        Cov has the one entry (0, 2) = 2.8e-8, within the margin, so the
        product lane runs at every d, and the product misses the box by
        7e-9 > 5 tol, a sound reason at d = 1.  At every d >= 2 that reason
        is discarded and the box's own two-class model is found."""
        strategies = deterministic_strategies(3)
        pair = [s for s in strategies if s[1:] == strategies[0][1:]]
        tables = np.stack([strategy_table(s) for s in pair])
        states = np.array([0.2, 0.3, -0.1]) + np.outer([1.0, -1.0], [0.0, 0.0, 2.8e-8])
        box = LhvLhsModel(2, np.array([0.5, 0.5]), tables, states, pauli_axes(3)).reconstruct_box()
        ctx = _SearchContext(box, pauli_axes(3), 1e-9)
        assert ctx.svals[1] < 1e-15 < ctx.svals[0] <= ctx.margin
        assert ctx.product_lane() == (None, "reconstruction_residual")
        trace = search_lhs_bounded(box, pauli_axes(3), 1)
        assert trace.sound and trace.exhaustive
        for d in range(2, 9):
            result = search_lhs_bounded(box, pauli_axes(3), d)
            assert isinstance(result, LhvLhsModel), d
            assert verify_lhv_lhs(result, box, 1e-9)[0], d


class TestCertificates:
    def test_tolerance_checked_before_the_witness(self):
        """certify_quantumness rejects tol = 0 whether the witness decides the
        box (V = 0.9) or the search would (V = 0.5)."""
        for v in (0.9, 0.5):
            with pytest.raises(OutOfRange, match="tol must be finite"):
                certify_quantumness(white_noise_bb84(v), 2, tol=0.0)

    def test_verdict_quartet(self):
        """The four verdicts on their canonical representatives."""
        assert certify_quantumness(white_noise_bb84(0.9), 2).verdict == (
            WITNESSED_STEERABLE
        )
        assert certify_quantumness(white_noise_bb84(0.5), 2).verdict == (
            SUPERUNSTEERABLE
        )
        assert certify_quantumness(white_noise_bb84(0.0), 2).verdict == (
            CLASSICAL_AT_DIMENSION
        )
        undecided = certify_quantumness(bd_box(1.0, 0.3, -0.3, n=3), 3)
        assert undecided.verdict == UNDECIDED
        assert undecided.functional == pytest.approx(
            FROZEN["functional_1_03_m03_n3"], abs=1e-13
        )

    def test_witnessed_skips_search(self):
        """A functional above threshold returns with an empty trace."""
        cert = certify_quantumness(white_noise_bb84(0.95), 2)
        assert cert.verdict == WITNESSED_STEERABLE
        assert cert.model is None and cert.trace == ()

    def test_superunsteerable_carries_both_certificates(self):
        """SUPERUNSTEERABLE returns the d=4 model plus the d=2 trace."""
        cert = certify_quantumness(white_noise_bb84(0.5), 2)
        assert isinstance(cert.model, LhvLhsModel)
        assert cert.model.dimension == 4
        assert len(cert.trace) > 0
        ok, dev = verify_lhv_lhs(cert.model, white_noise_bb84(0.5), 1e-9)
        assert ok, dev

    def test_classical_carries_small_model(self):
        """CLASSICAL_AT_DIMENSION returns a model at the asked dimension."""
        cert = certify_quantumness(white_noise_bb84(0.0), 2)
        assert isinstance(cert.model, LhvLhsModel)
        assert cert.model.dimension <= 2

    def test_witness_boundary(self):
        """The witness fires just above the steering threshold, not below."""
        v0 = 1.0 / np.sqrt(2.0)
        assert certify_quantumness(white_noise_bb84(v0), 2).verdict != (
            WITNESSED_STEERABLE
        )
        assert certify_quantumness(white_noise_bb84(v0 - 2e-9), 2).verdict != (
            WITNESSED_STEERABLE
        )
        assert certify_quantumness(white_noise_bb84(v0 + 2e-9), 2).verdict == (
            WITNESSED_STEERABLE
        )

    def test_three_setting_superunsteerable(self):
        """A separable triple needs d > 2 for three settings but gets one at 8."""
        cert = certify_quantumness(bd_box(0.3, 0.3, -0.3, n=3), 3)
        assert cert.verdict == SUPERUNSTEERABLE
        assert cert.model.dimension == 8

    def test_setting_count_must_match(self):
        """certify_quantumness refuses a box whose n disagrees."""
        with pytest.raises(DimensionMismatch):
            certify_quantumness(white_noise_bb84(0.5), 3)

    def test_one_validation_per_certificate(self, monkeypatch):
        """certify_quantumness validates the box once, whichever verdict and
        however many searches: both searches share its context and skip
        re-validating."""
        calls = []
        validate = Box.validate

        def counting_validate(box):
            calls.append(box)
            return validate(box)

        monkeypatch.setattr(Box, "validate", counting_validate)
        boxes = [
            (white_noise_bb84(0.9), 2, WITNESSED_STEERABLE),
            (white_noise_bb84(0.5), 2, SUPERUNSTEERABLE),
            (white_noise_bb84(0.0), 2, CLASSICAL_AT_DIMENSION),
            (bd_box(1.0, 0.3, -0.3, n=3), 3, UNDECIDED),
            (bd_box(0.3, 0.3, -0.3, n=3), 3, SUPERUNSTEERABLE),
        ]
        for box, n, verdict in boxes:
            calls.clear()
            assert certify_quantumness(box, n).verdict == verdict
            assert calls == [box], verdict

    def test_diagonal_norm_skips_the_top_search(self, monkeypatch):
        """A d_A trace retired by the diagonal norm, which rules out a model
        at every dimension, is the certificate's whole answer: one search,
        no (3, 8) labels, and the UNDECIDED certificate of that trace, while
        the skipped top search would only have repeated the reason."""
        calls = []
        search = decompose.search_lhs_bounded
        monkeypatch.setattr(decompose, "search_lhs_bounded",
                            lambda *args, **kwargs: calls.append(args[2]) or search(*args, **kwargs))
        for c, d_A in (((0.7, -0.6, 0.4), 3), ((1.0, 0.3, -0.3), 2), ((1.0, 0.3, -0.3), 3)):
            box = bd_box(*c, n=3)
            _case_table.cache_clear()
            calls.clear()
            cert = certify_quantumness(box, 3, d_A=d_A)
            assert calls == [d_A] and "labels" not in vars(_case_table(3, 8))
            first = search(box, pauli_axes(3), d_A)
            assert first.cases.tail == "diagonal_correlator_norm_exceeds_one"
            assert first.sound and first.exhaustive
            want = Certificate(UNDECIDED, d_A, cert.functional, None, first.cases)
            assert json.dumps(cert.to_json_dict()) == json.dumps(want.to_json_dict())
            assert search(box, pauli_axes(3), 8).cases.tail == first.cases.tail

    def test_direct_search_still_validates(self):
        """A direct search_lhs_bounded call validates its box itself."""
        good = white_noise_bb84(0.5).p
        for p in (good * 1.01, np.full((2, 2, 2, 2), 0.25 * (1 + 4e-6))):
            for d in (1, 2, 4):
                with pytest.raises(InvalidBox, match="normalization"):
                    search_lhs_bounded(Box(2, p), pauli_axes(2), d)

    def test_json_serialization(self):
        """Certificates serialize with verdict, functional, model, and trace."""
        cert = certify_quantumness(white_noise_bb84(0.5), 2)
        doc = cert.to_json_dict()
        assert doc["verdict"] == SUPERUNSTEERABLE
        assert doc["d_A"] == 2
        assert isinstance(doc["model"], dict)
        assert all(set(e) == {"case", "violated"} for e in doc["trace"])

    def test_pauli_set_is_one_read_only_constant(self, monkeypatch):
        """A certificate's searches run on one read-only Pauli set per n,
        built on first use: a warm certificate builds no MeasurementSet and
        runs no is_mub, and its model holds that set, while pauli_axes still
        returns a fresh, writable set each call, which a search checks."""
        made, checked = [], []
        post_init, is_mub = MeasurementSet.__post_init__, MeasurementSet.is_mub
        monkeypatch.setattr(MeasurementSet, "__post_init__",
                            lambda dirs: made.append(dirs) or post_init(dirs))
        monkeypatch.setattr(MeasurementSet, "is_mub", lambda dirs: checked.append(dirs) or is_mub(dirs))
        for n, box in ((2, white_noise_bb84(0.5)), (3, bd_box(0.3, 0.3, -0.3, n=3))):
            axes = _pauli_set(n)
            assert _pauli_set(n) is axes and not axes.directions.flags.writeable
            assert np.array_equal(axes.directions, pauli_axes(n).directions)
            made.clear()
            checked.clear()
            cert = certify_quantumness(box, n)
            assert cert.verdict == SUPERUNSTEERABLE and made == checked == []
            assert cert.model.bob_directions is axes
            fresh = pauli_axes(n)
            assert fresh is not pauli_axes(n) and fresh.directions.flags.writeable
            assert search_lhs_bounded(box, fresh, 2**n).bob_directions is fresh
            assert checked == [fresh]
