"""Bounded-dimension model search and the four-way certificate."""

import itertools
import math

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
from unsteer.decompose import CaseTrace, _case_labels, _Interior, _SearchContext

from oracles import (
    FROZEN,
    coefficient_blocks_loops,
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
        """The cached label table is the enumerate-then-sort listing."""
        assert list(_case_labels(n, d)) == search_case_labels(n, d)

    @pytest.mark.parametrize("n", [2, 3])
    def test_blocks_match_loop_oracle(self, n):
        """The broadcast coefficient blocks equal the row-by-row loop bit for
        bit, zero signs included."""
        rng = np.random.default_rng(79 + n)
        for _ in range(5):
            dirs = MeasurementSet(random_unit_vectors(rng, n))
            ctx = _SearchContext(bd_box(0.3, 0.2, -0.1, n=n), dirs, 1e-9)
            want = coefficient_blocks_loops(deterministic_strategies(n), dirs.directions)
            assert list(ctx.blocks) == list(want)
            for strat, block in want.items():
                assert ctx.blocks[strat].tobytes() == block.tobytes()

    @pytest.mark.parametrize(
        "forced, calls", [("unresolved", 1), ("negative_weight", 1)]
    )
    def test_top_assignment_solved_once(self, monkeypatch, forced, calls):
        """At d = 2^n the all-distinct assignment is solved once and no other
        assignment is: its answer, a sound rejection or unresolved, is every
        case's."""
        solved = []

        def least_squares(ctx, assignment):
            solved.append(assignment)
            return None, forced, None

        monkeypatch.setattr(_SearchContext, "_least_squares", least_squares)
        trace = search_lhs_bounded(bd_box(0.5, 0.4, -0.3), pauli_axes(2), 4)
        top = deterministic_strategies(2)
        assert solved[0] == top and solved.count(top) == 1
        assert len(solved) == len(set(solved)) == calls
        assert [label for label, _ in trace.cases] == search_case_labels(2, 4)
        assert {reason for _, reason in trace.cases} == {forced}
        assert trace.sound == trace.exhaustive == (forced != "unresolved")


def forced_traces(n, d):
    """(labels, head, tail) over the (n, d) label table: a head of every
    phase-1 reason, forced to cycle through three reasons, and no head."""
    labels = _case_labels(n, d)
    cycle = ("negative_weight", "reconstruction_residual", "bloch_norm_exceeds_weight")
    head = tuple(cycle[i % 3] for i in range(math.comb(2**n + d - 1, d)))
    return [(labels, head, "unresolved"), (labels, (), "correlator_rank_exceeds_dimension")]


def pairs_of(labels, head, tail):
    """The trace as the tuple of (label, reason) pairs it stands for."""
    return tuple(zip(labels, head + (tail,) * (len(labels) - len(head))))


class TestCaseTrace:
    @pytest.mark.parametrize(
        "n, d", [(n, d) for n in (2, 3) for d in range(1, 2**n + 1)]
    )
    def test_json_matches_the_pairs(self, n, d):
        """to_json_dict expands the trace to one {"case", "violated"} dict
        per pair, in order, with or without a head."""
        for labels, head, tail in forced_traces(n, d):
            cert = Certificate(UNDECIDED, d, 0.5, None, CaseTrace(labels, head, tail))
            want = [{"case": c, "violated": v} for c, v in pairs_of(labels, head, tail)]
            assert cert.to_json_dict()["trace"] == want

    @pytest.mark.parametrize(
        "n, d", [(n, d) for n in (2, 3) for d in range(1, 2**n + 1)]
    )
    def test_reads_as_the_tuple_of_pairs(self, n, d):
        """Iteration, len, indices at both ends and around the head/tail
        boundary, slices, equality and hash match the tuple of pairs."""
        for labels, head, tail in forced_traces(n, d):
            cases, pairs = CaseTrace(labels, head, tail), pairs_of(labels, head, tail)
            assert list(cases) == list(pairs) and len(cases) == len(pairs)
            k = len(head)
            for i in {0, 1, k - 1, k, k + 1, len(pairs) - 1} & set(range(len(pairs))):
                assert cases[i] == pairs[i] and cases[i - len(pairs)] == pairs[i]
            assert cases[-1] == pairs[-1]
            assert cases[:3] == pairs[:3] and cases[::-7] == pairs[::-7]
            assert cases == pairs and pairs == cases and hash(cases) == hash(pairs)
            assert cases != pairs[:-1] and cases != list(pairs)
            for index in (len(pairs), -len(pairs) - 1):
                with pytest.raises(IndexError):
                    cases[index]

    def test_search_holds_the_cached_labels(self):
        """A returned trace holds the cached label table itself, fetched when
        the trace is built: under a blanket reason with no head, and below 2^n
        with every phase-1 reason in the head."""
        blanket = search_lhs_bounded(bd_box(0.5, 0.4, -0.3), pauli_axes(2), 2)
        assert blanket.cases.labels is _case_labels(2, 2)
        assert blanket.cases.head == ()
        assert blanket.cases.tail == "correlator_rank_exceeds_dimension"
        phase1 = search_lhs_bounded(bd_box(0.5, 0.4, -0.3), pauli_axes(2), 3)
        assert phase1.cases.labels is _case_labels(2, 3)
        assert len(phase1.cases.head) == math.comb(4 + 3 - 1, 3)
        assert phase1.cases.tail == "unresolved" and not phase1.sound


def one_assignment_at_a_time(box, dirs, d, tol=1e-9):
    """Reference search below 2^n: phase 1 as ctx._least_squares on each
    assignment in enumeration order, each refined before the next is tried,
    then the same blanket, labels and flags as search_lhs_bounded."""
    ctx = _SearchContext(box, dirs, tol)
    blanket = ctx.universal_reason(d)
    if blanket is None:
        model = ctx.construct_two_class()
        if model is not None:
            return model
    reasons = []
    if blanket is None:
        for assignment in itertools.combinations_with_replacement(ctx.strategies, d):
            model, reason, job = ctx._least_squares(assignment)
            if job is not None:
                model = ctx._refine(*job[1:])
            if model is not None:
                return model
            reasons.append(reason)
    labels = _case_labels(box.n, d)
    reasons += [blanket or "unresolved"] * (len(labels) - len(reasons))
    sound = "unresolved" not in reasons
    return InfeasibilityTrace(d, tuple(zip(labels, reasons)), sound, sound and blanket is not None)


def record_refinements(monkeypatch):
    """Patch _SearchContext._refine to record each outermost call as
    (worst cone violation of its least-squares point, assignment)."""
    calls, depth = [], []
    refine = _SearchContext._refine

    def recording_refine(ctx, assignment, a_mat, z0):
        if not depth:
            d = len(assignment)
            violation = (np.linalg.norm(z0[d:].reshape(d, 3), axis=1) - z0[:d]).max()
            calls.append((float(violation), assignment))
        depth.append(assignment)
        try:
            return refine(ctx, assignment, a_mat, z0)
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

    def test_plain_least_squares_model_needs_no_refinement(self, monkeypatch):
        """Two-class deterministic-Alice model boxes at n = 2, d = 3: an
        early strategy set's least-squares point is not unique and leaves the
        cones, a later one's is a model.  That later model, the first over
        the distinct strategy sets in order of first appearance, is returned,
        and no refinement runs."""
        calls = record_refinements(monkeypatch)
        rng = np.random.default_rng(2)
        for i in range(12):
            box = Box(2, random_model_box(rng, 2, pauli_axes(2), "deterministic"))
            result = search_lhs_bounded(box, pauli_axes(2), 3)
            assert calls == [], i
            ctx = _SearchContext(box, pauli_axes(2), 1e-9)
            keys = dict.fromkeys(
                tuple(dict.fromkeys(assignment))
                for assignment in itertools.combinations_with_replacement(ctx.strategies, 3)
            )
            first = next(
                model for model, _, _ in map(ctx._least_squares, keys) if model is not None
            )
            assert result.to_json_dict() == first.to_json_dict(), i

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
        """An UNDECIDED box at n = 2, d_A = 3: phase 1 hands _least_squares
        each nonempty strategy set of size <= 3 once, in order of first
        appearance, and never a repeated strategy; the refinements'
        zero-weight retries read the stored answers and solve nothing again.
        The trace keeps every label."""
        solved = []
        least_squares = _SearchContext._least_squares

        def recording(ctx, assignment):
            solved.append(assignment)
            return least_squares(ctx, assignment)

        monkeypatch.setattr(_SearchContext, "_least_squares", recording)
        cert = certify_quantumness(bd_box(0.5, 0.4, -0.3), 2, d_A=3)
        assert cert.verdict == UNDECIDED
        strategies = deterministic_strategies(2)
        subsets = [
            subset
            for size in (1, 2, 3)
            for subset in itertools.combinations(strategies, size)
        ]
        assert all(len(set(assignment)) == len(assignment) for assignment in solved)
        assert len(subsets) == 14 and set(solved) == set(subsets)
        assert solved == list(dict.fromkeys(
            tuple(dict.fromkeys(assignment))
            for assignment in itertools.combinations_with_replacement(strategies, 3)
        ))
        assert len(cert.trace) == len(_case_labels(2, 3)) == 26
        assert [label for label, _ in cert.trace] == list(_case_labels(2, 3))

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
            model, reason, job = ctx._least_squares(ctx.strategies)
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

    def test_product_lane_bloch_norm_proof(self):
        """Uniform Alice with p(b=0|y) = 1 on three orthogonal axes needs a
        Bob Bloch vector of norm sqrt(3), which the d = 1 lane rejects."""
        p = np.zeros((3, 3, 2, 2))
        p[:, :, :, 0] = 0.5
        trace = search_lhs_bounded(Box(3, p), pauli_axes(3), 1)
        assert isinstance(trace, InfeasibilityTrace)
        assert trace.sound and trace.exhaustive
        assert "bloch_norm_exceeds_weight" in {reason for _, reason in trace.cases}

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

    def test_json_serialization(self):
        """Certificates serialize with verdict, functional, model, and trace."""
        cert = certify_quantumness(white_noise_bb84(0.5), 2)
        doc = cert.to_json_dict()
        assert doc["verdict"] == SUPERUNSTEERABLE
        assert doc["d_A"] == 2
        assert isinstance(doc["model"], dict)
        assert all(set(e) == {"case", "violated"} for e in doc["trace"])
