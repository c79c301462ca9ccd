"""Convex splits, hidden-state models, and bounded-dimension simulability.

This module carries the package's core mathematics: steering cost and
Schroedinger strength of the white-noise family, canonical two- and
three-setting splits of Bell-diagonal states and their boxes, the explicit
d=2 and d=4 hidden-state model constructions, and an enumerative feasibility
search that certifies when a box cannot be simulated classically at a given
hidden-variable dimension.

Soundness policy of the search: a case is rejected only with a reason that is
an actual proof — a nonzero linear residual, a unique solution violating the
weight/Bloch cones, or a model-universal obstruction: the diagonal norm of
the correlator matrix, or the rank or a row norm of its covariance.  Whenever
a case cannot be proved infeasible and no model is found, the trace says so
and downstream certification returns UNDECIDED rather than overclaiming.

Five facts the search leans on (all exercised by the test suite):

* The covariance C - <A><B>^T of any d-class model, stochastic Alice
  included, has rank at most d - 1: the weighted class deviations from the
  mean sum to zero, which collapses one of the d dyads.
* With orthonormal Bob directions, any model of any dimension satisfies
  sum_y C(y, y)^2 <= 1 (Cauchy-Schwarz over the hidden variable).
* At the top dimension d = 2^n every model, stochastic Alice included,
  coarse-grains onto deterministic Alice classes (Bloch vectors mix
  convexly), so the all-distinct assignment alone decides feasibility:
  phase 1 there runs over that one set.  When its least-squares point leaves
  the cones, an SLSQP refinement searches the solution space; one it cannot
  finish leaves the top dimension unresolved, never rejected.
* A slot assignment that repeats a deterministic Alice strategy has a model
  exactly when its set of distinct strategies does, with no more classes.
  Each class's variables (q_l, s_l) lie in the cone |s_l| <= q_l, which is
  closed under addition: two classes with the same strategy merge into one
  by adding them, and one class splits into two halves.  Both systems'
  matrices have the same column space, so their least-squares residuals
  agree too, and a unique distinct-set solution outside the cones rules out
  the repeated assignment as well.  Phase 1 therefore solves each distinct
  set once, and a refinement retries on its subset's set, never a repeat.
* A set's system matrix depends only on Bob's directions and the set, never
  on the box.  So each is factored once per process, by one batched SVD per
  set size under lstsq's rank rule, into a read-only table of its
  pseudo-inverse, rank and null space, beside one table per (n, d) of the
  case labels and each assignment's set.  Phase 1 is one batched solve: a
  product per size for the points, one for the residuals, and one cone test
  over all sets at once.  A refinement moves in the table's null space, and
  verification alone decides its end point.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .boxes import (
    ATOL_BOX,
    Box,
    MeasurementSet,
    box_from_state,
    correlator_matrix,
    deterministic_strategies,
    pauli_axes,
    steering_functional,
    strategy_table,
    white_noise_bb84,
)
from .errors import (
    DimensionMismatch,
    InvalidModel,
    OutOfRange,
    PhaseDomainError,
    PreconditionViolated,
)
from .states import BellDiagonalParams, _canonical_head, _check_n, bell_diagonal

SQRT2 = float(np.sqrt(2.0))

WEIGHT_SLACK = 1e-10
BLOCH_SLACK = 1e-10
DEFAULT_TOL = 1e-9
ATOL_CANONICAL = 1e-12

WITNESSED_STEERABLE = "WITNESSED_STEERABLE"
SUPERUNSTEERABLE = "SUPERUNSTEERABLE"
CLASSICAL_AT_DIMENSION = "CLASSICAL_AT_DIMENSION"
UNDECIDED = "UNDECIDED"


def _check_tol(tol: float) -> None:
    """A search tolerance is finite and no finer than the bound every box is
    validated to; below it a residual proof compares rounding against zero."""
    if not ATOL_BOX <= tol < np.inf:
        raise OutOfRange(f"tol must be finite and >= {ATOL_BOX:g}, got {tol}")


_BETA_01 = BellDiagonalParams(1.0, 1.0, -1.0)


@dataclass(frozen=True)
class ConvexSplit:
    """weight * steerable_part + (1 - weight) * unsteerable_part.

    Parts are either both boxes or both 4x4 density matrices; for
    state-level splits the correlation triples of the parts are carried
    alongside the matrices.
    """

    weight: float
    steerable_part: object
    unsteerable_part: object
    steerable_params: BellDiagonalParams | None = None
    unsteerable_params: BellDiagonalParams | None = None

    def reconstruct(self):
        """The convex combination, in the same representation as the parts."""
        w = self.weight
        if isinstance(self.steerable_part, Box):
            p = w * self.steerable_part.p + (1.0 - w) * self.unsteerable_part.p
            return Box(self.steerable_part.n, p)
        return w * np.asarray(self.steerable_part) + (1.0 - w) * np.asarray(
            self.unsteerable_part
        )


@dataclass(frozen=True)
class LhvLhsModel:
    """Shared randomness lambda, Alice response tables, Bob hidden qubits.

    weights: (d,) nonnegative, summing to 1.
    alice_tables: (d, n, 2) row-stochastic P(a | x, lambda).
    bob_states: (d, 3) Bloch vectors of norm <= 1.
    bob_directions: the n Bob observables the model is expressed in.
    """

    dimension: int
    weights: np.ndarray
    alice_tables: np.ndarray
    bob_states: np.ndarray
    bob_directions: MeasurementSet

    def reconstruct_box(self) -> Box:
        """p(ab|xy) = sum_l w_l P(a|x,l) (1 + (-1)^b <r_l, dir_y>) / 2."""
        dirs = self.bob_directions.directions
        overlaps = np.asarray(self.bob_states, dtype=float) @ dirs.T  # (d, n)
        bob = np.stack([(1.0 + overlaps) / 2.0, (1.0 - overlaps) / 2.0], axis=-1)
        p = np.einsum(
            "l,lxa,lyb->xyab",
            np.asarray(self.weights, dtype=float),
            np.asarray(self.alice_tables, dtype=float),
            bob,
        )
        return Box(self.bob_directions.n, p)

    def to_json_dict(self) -> dict:
        return {
            "dimension": int(self.dimension),
            "weights": np.asarray(self.weights).tolist(),
            "alice_tables": np.asarray(self.alice_tables).tolist(),
            "bob_states": np.asarray(self.bob_states).tolist(),
            "bob_directions": self.bob_directions.directions.tolist(),
        }


@dataclass(frozen=True, eq=False, repr=False)
class CaseTrace(Sequence):
    """The (label, reason) pairs of a failed search, stored as the search
    finds them: `labels` is the search's case-label tuple, `head` the reasons
    of its first cases (the phase-1 reasons, none under a blanket reason)
    and `tail` the one reason of every later case.  It equals, and hashes
    like, the tuple of its pairs."""

    labels: tuple[str, ...]
    head: tuple[str, ...]
    tail: str

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __iter__(self):
        rest = itertools.islice(self.labels, len(self.head), None)
        return itertools.chain(
            zip(self.labels, self.head), zip(rest, itertools.repeat(self.tail))
        )

    def __eq__(self, other):
        if not isinstance(other, (tuple, CaseTrace)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class InfeasibilityTrace:
    """Per-case rejection record of a failed bounded search.

    sound: every listed rejection is a proof.
    exhaustive: the analysis covers *all* models at this dimension, not just
    the enumerated cases; only a sound and exhaustive trace may be read as a
    certificate of infeasibility.
    """

    dimension: int
    cases: CaseTrace
    sound: bool
    exhaustive: bool


@dataclass(frozen=True)
class Certificate:
    """Outcome of certify_quantumness."""

    verdict: str
    d_A: int
    functional: float
    model: LhvLhsModel | None
    trace: CaseTrace | tuple[()]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "d_A": int(self.d_A),
            "functional": float(self.functional),
            "model": self.model.to_json_dict() if self.model is not None else None,
            "trace": [{"case": c, "violated": v} for c, v in self.trace],
        }


# ---------------------------------------------------------------------------
# White-noise family
# ---------------------------------------------------------------------------


def steering_cost_bb84(v: float) -> float:
    """Minimal extremal-steerable weight, max(0, (sqrt(2) V - 1) / (sqrt(2) - 1)).

    Raises:
        OutOfRange: unless 0 <= V <= 1.
    """
    if not 0.0 <= v <= 1.0:
        raise OutOfRange(f"V must lie in [0, 1], got {v}")
    return max(0.0, (SQRT2 * v - 1.0) / (SQRT2 - 1.0))


def steering_cost_split_bb84(v: float) -> ConvexSplit:
    """The cost-optimal split: the V=1 box against the V=1/sqrt(2) box."""
    return ConvexSplit(
        steering_cost_bb84(v), white_noise_bb84(1.0), white_noise_bb84(1.0 / SQRT2)
    )


def schrodinger_strength_bb84(v: float) -> tuple[float, ConvexSplit]:
    """Maximal extremal-steerable weight V, with the split against white noise.

    Raises:
        OutOfRange: unless 0 <= V <= 1.
    """
    if not 0.0 <= v <= 1.0:
        raise OutOfRange(f"V must lie in [0, 1], got {v}")
    return v, ConvexSplit(v, white_noise_bb84(1.0), white_noise_bb84(0.0))


# ---------------------------------------------------------------------------
# Canonical Bell-diagonal splits
# ---------------------------------------------------------------------------


def _require_canonical(params: BellDiagonalParams, n: int) -> None:
    """The precondition of the n-setting split and model: a canonical
    triple, with c3 <= 0 (within ATOL_CANONICAL) at n = 3, where a positive
    c3 leaves a remainder that is not separable; then a physical one."""
    _check_n(n)
    c1, c2, c3 = params.c1, params.c2, params.c3
    if c1 < -ATOL_CANONICAL or c2 < -ATOL_CANONICAL:
        raise PreconditionViolated(
            f"canonical triple needs c1, c2 >= 0, got ({c1}, {c2}, {c3})"
        )
    if not (c1 >= c2 - ATOL_CANONICAL and c2 >= abs(c3) - ATOL_CANONICAL):
        raise PreconditionViolated(
            f"canonical triple needs c1 >= c2 >= |c3|, got ({c1}, {c2}, {c3})"
        )
    if n == 3 and c3 > ATOL_CANONICAL:
        raise PreconditionViolated(
            f"three-setting split and model require c3 <= 0, got c3 = {c3}"
        )
    params.validate()


def schrodinger_strength_bd(params: BellDiagonalParams, n: int) -> float:
    """Schroedinger strength |c2'| (n=2) or |c3'| (n=3) of the canonical form.

    Raises:
        UnphysicalParams: for unphysical triples.
        UnsupportedN: for n outside {2, 3}.
    """
    return abs(float(_canonical_head(params, n)[-1]))


def two_set_remainder(params: BellDiagonalParams) -> BellDiagonalParams:
    """Separable remainder triple of the two-setting split."""
    c1, c2, c3 = params.c1, params.c2, params.c3
    if c2 >= 1.0:
        return BellDiagonalParams(0.0, 0.0, 0.0)
    return BellDiagonalParams((c1 - c2) / (1.0 - c2), 0.0, (c2 + c3) / (1.0 - c2))


def three_set_remainder(params: BellDiagonalParams) -> BellDiagonalParams:
    """Separable remainder triple of the three-setting split."""
    c1, c2, c3 = params.c1, params.c2, params.c3
    if c3 <= -1.0:
        return BellDiagonalParams(0.0, 0.0, 0.0)
    return BellDiagonalParams((c1 + c3) / (1.0 + c3), (c2 + c3) / (1.0 + c3), 0.0)


def _canonical_split(params: BellDiagonalParams, n: int) -> ConvexSplit:
    """tau = w |beta_01><beta_01| + (1 - w) rho_sep, with w = c2 at n = 2 and
    w = |c3| at n = 3, under the preconditions of _require_canonical."""
    _require_canonical(params, n)
    if n == 2:
        weight, rem = params.c2, two_set_remainder(params)
    else:
        weight, rem = abs(min(params.c3, 0.0)), three_set_remainder(params)
    return ConvexSplit(
        weight,
        bell_diagonal(_BETA_01),
        bell_diagonal(rem),
        steerable_params=_BETA_01,
        unsteerable_params=rem,
    )


def canonical_split_2set(params: BellDiagonalParams) -> ConvexSplit:
    """tau = c2 |beta_01><beta_01| + (1 - c2) rho_sep for canonical triples.

    Raises:
        PreconditionViolated: for non-canonical input.
        UnphysicalParams: for unphysical input.
    """
    return _canonical_split(params, 2)


def canonical_split_3set(params: BellDiagonalParams) -> ConvexSplit:
    """tau = |c3| |beta_01><beta_01| + (1 - |c3|) rho_sep for canonical c3 <= 0.

    Raises:
        PreconditionViolated: for non-canonical input, or for c3 > 0 where
        the construction's remainder stops being separable.
        UnphysicalParams: for unphysical input.
    """
    return _canonical_split(params, 3)


def canonical_box_split(params: BellDiagonalParams, n: int) -> ConvexSplit:
    """Box-level split of the aligned-Pauli box of a canonical triple.

    Both parts are the boxes of the state-split parts under the same aligned
    measurement axes, so the convex combination reproduces the target box
    entrywise (the Born rule is linear in the state).

    Raises:
        UnsupportedN: for n outside {2, 3}; preconditions as in the state splits.
    """
    state_split = _canonical_split(params, n)
    axes = pauli_axes(n)
    return ConvexSplit(
        state_split.weight,
        box_from_state(state_split.steerable_part, axes, axes),
        box_from_state(state_split.unsteerable_part, axes, axes),
        steerable_params=state_split.steerable_params,
        unsteerable_params=state_split.unsteerable_params,
    )


# ---------------------------------------------------------------------------
# Explicit hidden-state models
# ---------------------------------------------------------------------------


def build_lhs_model_2set(params: BellDiagonalParams) -> LhvLhsModel:
    """Two-state model reproducing the box of the two-setting remainder.

    lambda in {0, 1} with weights 1/2: Alice answers lambda deterministically
    on x = 0 and uniformly on x = 1; Bob holds the pure qubit with Bloch
    vector ((-1)^lambda c1', 0, sqrt(1 - c1'^2)) where c1' = (c1-c2)/(1-c2).

    Raises:
        PreconditionViolated: for non-canonical input.
    """
    _require_canonical(params, 2)
    c1p = two_set_remainder(params).c1
    z = float(np.sqrt(max(0.0, 1.0 - c1p * c1p)))
    alice = np.stack([strategy_table((bit, 0)) for bit in (0, 1)])
    alice[:, 1] = 0.5
    bob = np.array([[c1p, 0.0, z], [-c1p, 0.0, z]])
    return LhvLhsModel(2, np.array([0.5, 0.5]), alice, bob, pauli_axes(2))


def three_set_model_parameters(params: BellDiagonalParams) -> dict:
    """Geometry of the four-state model: d1, d2, f, and the phases.

    f = sqrt((1-c1)(1+c1+2 c3) - (c2+c3)^2) / (1+c3), computed in the
    algebraically identical pure-state form sqrt(1 - d1^2 - d2^2); the four
    phases are (phi0, pi+phi0, pi-phi0, -phi0) with
    sin(phi0) = (c2+c3) / sqrt((1-c1)(1+c1+2 c3)).

    Raises:
        PhaseDomainError: when the arcsine argument exceeds 1 in magnitude.
    """
    rem = three_set_remainder(params)
    d1, d2 = rem.c1, rem.c2
    denom_sq = (1.0 - params.c1) * (1.0 + params.c1 + 2.0 * params.c3)
    numer = params.c2 + params.c3
    if denom_sq > 1e-28:
        ratio = numer / float(np.sqrt(denom_sq))
        if abs(ratio) > 1.0 + 1e-12:
            raise PhaseDomainError(
                f"arcsine argument {ratio:.6g} out of [-1, 1] for triple "
                f"({params.c1}, {params.c2}, {params.c3})"
            )
        phi0 = float(np.arcsin(np.clip(ratio, -1.0, 1.0)))
    else:
        phi0 = 0.0
    f = float(np.sqrt(max(0.0, 1.0 - d1 * d1 - d2 * d2)))
    pi = float(np.pi)
    return {
        "d1": d1,
        "d2": d2,
        "f": f,
        "phi0": phi0,
        "phases": (phi0, pi + phi0, pi - phi0, -phi0),
    }


def build_lhs_model_3set(params: BellDiagonalParams) -> LhvLhsModel:
    """Four-state model reproducing the box of the three-setting remainder.

    lambda in {0..3} with weights 1/4: Alice answers the two bits of lambda
    deterministically on x in {0, 1} and uniformly on x = 2; Bob holds pure
    qubits with Bloch vectors (+-d1, +-d2, -+f) that average to zero.

    Raises:
        PreconditionViolated: for non-canonical input or c3 > 0.
        PhaseDomainError: propagated from the phase geometry.
    """
    _require_canonical(params, 3)
    geo = three_set_model_parameters(params)
    d1, d2, f = geo["d1"], geo["d2"], geo["f"]
    alice = np.stack([strategy_table((*bits, 0)) for bits in deterministic_strategies(2)])
    alice[:, 2] = 0.5
    bob = np.array(
        [
            [d1, d2, -f],
            [d1, -d2, f],
            [-d1, d2, f],
            [-d1, -d2, -f],
        ]
    )
    return LhvLhsModel(4, np.full(4, 0.25), alice, bob, pauli_axes(3))


def verify_lhv_lhs(model: LhvLhsModel, target: Box, tol: float) -> tuple[bool, float]:
    """Structural validation plus entrywise reconstruction check.

    Returns:
        (reconstructs within tol, max entrywise deviation).

    Raises:
        InvalidModel: for structural defects (counts off the dimension, an
        entry not finite, negative weight, non-stochastic table, Bloch norm
        above 1) — distinct from a mere mismatch.
        DimensionMismatch: when the model and target setting counts differ.
    """
    d, n = model.dimension, model.bob_directions.n
    w = np.asarray(model.weights, dtype=float)
    tables = np.asarray(model.alice_tables, dtype=float)
    states = np.asarray(model.bob_states, dtype=float)
    if d < 1 or (w.shape, tables.shape, states.shape) != ((d,), (d, n, 2), (d, 3)):
        raise InvalidModel(f"dimension {d} on {n} settings expects weights, tables and states of "
                           f"({d},), ({d}, {n}, 2), ({d}, 3); got {w.shape}, {tables.shape}, {states.shape}")
    if not all(np.isfinite(part).all() for part in (w, tables, states)):
        raise InvalidModel("model entry is not finite")
    if w.min() < -WEIGHT_SLACK:
        raise InvalidModel(f"negative weight {w.min():.3g}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise InvalidModel(f"weights sum to {w.sum()}, expected 1")
    if tables.min() < -WEIGHT_SLACK:
        raise InvalidModel("negative response probability in an Alice table")
    if np.abs(tables.sum(axis=2) - 1.0).max() > 1e-9:
        raise InvalidModel("non-stochastic Alice response table")
    norms = np.linalg.norm(states, axis=1)
    if norms.max() > 1.0 + BLOCH_SLACK:
        raise InvalidModel(f"Bloch norm {norms.max():.6g} exceeds 1")
    if model.bob_directions.n != target.n:
        raise DimensionMismatch(
            f"model has {model.bob_directions.n} settings, target has {target.n}"
        )
    deviation = float(np.abs(model.reconstruct_box().p - target.p).max())
    return deviation <= tol, deviation


# ---------------------------------------------------------------------------
# Bounded-dimension feasibility search
# ---------------------------------------------------------------------------


def _sorted_partitions(items: tuple, k: int):
    """Partitions of `items` into k nonempty classes, in sorted order: items[0]
    with each subset of the rest that leaves at least k - 1 items, in sorted
    tuple order, then what is left in k - 1 classes."""
    if k == 1:
        yield (items,)
        return
    rest = items[1:]
    subsets = (itertools.combinations(rest, r) for r in range(len(rest) - k + 2))
    for subset in sorted(itertools.chain.from_iterable(subsets)):
        left = tuple(item for item in rest if item not in subset)
        for tail in _sorted_partitions(left, k - 1):
            yield ((items[0], *subset), *tail)


@functools.lru_cache(maxsize=None)
def _case_table(n: int, d: int):
    """(labels, sizes, set_of, order, locate) of a search at (n, d), from one
    enumeration of its slot assignments.  labels: every case label in trace
    order, the phase-1 assignments lexicographically, then the phase-2
    groupings sorted by (d', subset, partition); strategy names are
    equal-length bit strings, so they sort as the strategies do.  sizes: the
    sizes whose _set_group sets, concatenated, phase 1 solves (the
    all-distinct set alone at d = 2^n).  set_of: each assignment's set of
    distinct strategies as an index among them.  order: the indices in order
    of first appearance.  locate: each (group, row, set)."""
    strategies, top = deterministic_strategies(n), d == 2**n
    names = {s: "".join(map(str, s)) for s in strategies}
    assignments = tuple(itertools.combinations_with_replacement(strategies, d))
    labels = ["deterministic:" + "+".join(map(names.get, a)) for a in assignments]
    for d_prime in range(d + 1, len(strategies) + 1):
        for subset in itertools.combinations(names.values(), d_prime):
            labels += (
                "grouped:" + "|".join(map(",".join, partition))
                for partition in _sorted_partitions(subset, d)
            )
    sizes = (d,) if top else tuple(range(1, d + 1))
    locate = tuple((g, row, key) for g, k in enumerate(sizes)
                   for row, key in enumerate(itertools.combinations(strategies, k)))
    index = {key: i for i, (*_, key) in enumerate(locate)}
    set_of = np.array([index[tuple(dict.fromkeys(a))] for a in ([strategies] if top else assignments)])
    order = np.array(list(dict.fromkeys(set_of.tolist())))
    set_of.flags.writeable = order.flags.writeable = False
    return tuple(labels), sizes, set_of, order, locate


@functools.lru_cache(maxsize=12)  # every size of one n = 2 and one n = 3 direction set
def _set_group(directions: bytes, n: int, k: int):
    """(sets, a_stack, pinv_stack, ranks, vt_stack) of every k-strategy set's
    system on the n Bob directions given by their float64 bytes, in
    itertools.combinations order, stacked, read-only.  A strategy's block has
    the columns q_l, then s_l in R^3, and row (x, y, a, b) 0.5 * (1, (-1)^b
    dir_y) where the strategy answers a on x, else zero; the last row makes
    the weights sum to 1.  A set's matrix is its blocks' q columns, then their
    s columns.  One batched SVD of the stack gives each pseudo-inverse, rank
    (lstsq's rule: sigma > eps * max(rows, columns) * sigma_0) and V^T, whose
    rows from the rank on span the null space a refinement moves in.  No
    matrix depends on the box: a size is factored once, when first needed."""
    dirs = np.frombuffer(directions).reshape(n, 3)
    strategies = deterministic_strategies(n)
    entries = np.empty((n, 2, 4))  # (y, b, column)
    entries[..., 0] = 0.5
    entries[..., 1:] = np.array([0.5, -0.5])[:, None] * dirs[:, None]
    answers = np.array(strategies)[:, :, None] == np.arange(2)  # (s, x, a)
    blocks = np.zeros((len(strategies), 4 * n * n + 1, 4))
    blocks[:, :-1] = np.where(
        answers[:, :, None, :, None, None], entries[:, None, :, :], 0.0
    ).reshape(len(strategies), 4 * n * n, 4)
    blocks[:, -1, 0] = 1.0
    sets = tuple(itertools.combinations(strategies, k))
    members = blocks[np.array(list(itertools.combinations(range(len(strategies)), k)))]
    a_stack = np.concatenate([  # (set, row, column), from members' (set, l, row, column)
        members[..., 0].transpose(0, 2, 1),
        members[..., 1:].transpose(0, 2, 1, 3).reshape(len(sets), -1, 3 * k),
    ], axis=2)
    u, sv, vt_stack = np.linalg.svd(a_stack, full_matrices=False)
    kept = sv > np.finfo(float).eps * max(a_stack.shape[1:]) * sv[:, :1]
    ranks = kept.sum(axis=1)
    inverse = np.divide(1.0, sv, out=np.zeros_like(sv), where=kept)
    pinv_stack = (vt_stack.transpose(0, 2, 1) * inverse[:, None]) @ u.transpose(0, 2, 1)
    a_stack.flags.writeable = pinv_stack.flags.writeable = ranks.flags.writeable = False
    vt_stack.flags.writeable = False
    return sets, a_stack, pinv_stack, ranks, vt_stack


def _cone_codes(z: np.ndarray, k: int):
    """(codes, worst) of points z (..., 4k) over k classes: code 1 where a
    weight q_l is negative, else 2 where a Bloch part |s_l| exceeds its
    weight, else 4 (inside every cone); worst is max_l(|s_l| - q_l)."""
    q, s = z[..., :k], z[..., k:].reshape(*z.shape[:-1], k, 3)
    norms = np.sqrt((s * s).sum(axis=-1))
    codes = np.where((norms > q + BLOCH_SLACK).any(axis=-1), 2, 4)
    return np.where(q.min(axis=-1) < -WEIGHT_SLACK, 1, codes), (norms - q).max(axis=-1)


# Phase-1 reasons by code, in the precedence of their tests; 4 is inside the cones.
_REASONS = np.array(["reconstruction_residual", "negative_weight", "bloch_norm_exceeds_weight",
                     "unresolved", ""], dtype=object)


class _Interior(Exception):
    """Carries a refinement's trial point inside every cone out of SLSQP."""


class _SearchContext:
    """Shared precomputation for one box, used by both of a certificate's searches."""

    def __init__(self, box: Box, bob_dirs: MeasurementSet, tol: float):
        self.box = box
        self.n = box.n
        self.dirs = bob_dirs
        self.dir_bytes = bob_dirs.directions.tobytes()
        self.tol = tol
        corr = correlator_matrix(box)
        alice, bob = box.alice_marginal(), box.bob_marginal()
        self.cov = corr - np.outer(alice[:, 0] - alice[:, 1], bob[:, 0] - bob[:, 1])
        self.cov_u, self.svals, self.cov_vt = np.linalg.svd(self.cov)
        # How far sigma_i(Cov) moves when the box moves by tol (universal_reason).
        self.margin = self.n * (12.0 + 16.0 * tol) * tol
        self.uniform_alice = np.abs(alice - 0.5).max() <= 1e-9
        self.uniform_bob = np.abs(bob - 0.5).max() <= 1e-9
        self.orthonormal = bob_dirs.is_mub()
        self.diag_norm = float(np.sqrt((np.diag(corr) ** 2).sum()))

    # Built on first use: a search retired by a blanket reason never reads it.
    @functools.cached_property
    def rhs(self) -> np.ndarray:
        """The box's entries, then the weights' sum 1."""
        return np.concatenate([self.box.p.reshape(-1), [1.0]])

    # -- model-universal obstruction -----------------------------------------

    def universal_reason(self, d: int) -> str | None:
        """A reason no model of dimension at most d reproduces the box.

        With orthonormal directions every model obeys sum_y C(y,y)^2 <= 1.
        Any d-class model, stochastic Alice included, has covariance
        Cov = C - <A><B>^T = sum_l w_l (E_l - E)(F_l - F)^T, with E_l and F_l
        the class's Alice and Bob expectations and E, F their means.  The
        weighted centred terms sum to zero, so rank(Cov) <= d - 1.  At d = 2,
        Cov = w_0 w_1 (E_0 - E_1)(F_0 - F_1)^T; with orthonormal directions
        |F_0 - F_1| <= 2, so every row has norm <= 1/4 * 2 * 2 = 1.  A box
        within tol of the model's moves each Cov entry by at most
        12 tol + 16 tol^2, so sigma_d(Cov) and every row norm by at most n
        times that.  At d = 1 the covariance checks run only on uniform Alice
        marginals, leaving the others to the product lane's reasons."""
        if self.orthonormal and self.diag_norm > 1.0 + 8.0 * self.tol:
            return "diagonal_correlator_norm_exceeds_one"
        if d == 1 and not self.uniform_alice:
            return None
        if d <= self.n and self.svals[d - 1] > self.margin:
            return "correlator_rank_exceeds_dimension"
        rows = np.linalg.norm(self.cov, axis=1)
        if d <= 2 and self.orthonormal and rows.max() > 1.0 + self.margin:
            return "correlator_row_norm_exceeds_one"
        return None

    # -- per-case solving ----------------------------------------------------

    def _solve(self, groups, order, locate):
        """Phase 1 over set groups, each a _set_group table of one size: a
        product per group gives the points, another the residuals, and each
        set (groups concatenated; `locate`) a reason code.  Points in the
        cones are verified in `order`; the first model returns (model, None,
        None).  Else (None, reasons, jobs): a non-unique point left without a
        model is "unresolved", with the job (worst cone violation, set, null
        basis of its system, z)."""
        points, codes = [], []
        for sets, a_stack, pinv_stack, *_ in groups:
            z = pinv_stack @ self.rhs
            residual = np.abs((a_stack @ z[:, :, None])[:, :, 0] - self.rhs).max(axis=1)
            code, worst = _cone_codes(z, len(sets[0]))
            points.append((z, worst))
            codes.append(np.where(residual > self.tol, 0, code))
        codes = np.concatenate(codes)  # indices into _REASONS
        for g, row, key in (locate[i] for i in order[codes[order] == 4]):
            model = self._model_from_solution(key, points[g][0][row])
            if model is not None:
                return model, None, None
        job = ~np.concatenate([r == 4 * len(sets[0]) for sets, *_, r, _ in groups]) & (codes > 0)
        codes[job | (codes == 4)] = 3
        jobs = [(float(points[g][1][row]), key, groups[g][4][row, groups[g][3][row]:].T,
                 points[g][0][row]) for g, row, key in (locate[i] for i in order[job[order]])]
        return None, _REASONS[codes], jobs

    def _least_squares(self, key):
        """(model, reason, job) of one sorted distinct strategy set, from its table row."""
        group = _set_group(self.dir_bytes, self.n, len(key))
        row = group[0].index(key)
        one = [tuple(part[row : row + 1] for part in group)]
        model, reasons, jobs = self._solve(one, np.zeros(1, np.intp), [(0, 0, key)])
        return model, "" if model is not None else reasons[0], jobs[0] if jobs else None

    def _model_from_solution(self, assignment, z) -> LhvLhsModel | None:
        """The model of a point z, weights clipped at zero, if it verifies."""
        d = len(assignment)
        q = np.clip(z[:d], 0.0, None)
        s = z[d:].reshape(d, 3)
        # Class l's Bloch vector s_l / q_l, pulled back onto the unit sphere
        # when longer; a class of weight 1e-14 or less keeps the zero vector.
        # Each radius is a dot product, rounded as np.linalg.norm of one row.
        states = np.divide(s, q[:, None], out=np.zeros((d, 3)), where=q[:, None] > 1e-14)
        radii = np.sqrt(states[:, None, :] @ states[:, :, None])[:, 0]
        np.divide(states, radii, out=states, where=radii > 1.0)
        tables = (np.array(assignment)[:, :, None] == np.arange(2)).astype(float)
        return self._verified(LhvLhsModel(d, q / q.sum(), tables, states, self.dirs))

    def _verified(self, model: LhvLhsModel) -> LhvLhsModel | None:
        ok, _ = verify_lhv_lhs(model, self.box, self.tol)
        return model if ok else None

    def _refine(self, assignment, null, z0) -> LhvLhsModel | None:
        """Minimize the worst cone violation t over the solution affine space
        z0 + span(null), null from _set_group, subject to t + q_l - |s_l| >= 0
        for every class (so q_l + t >= 0); verification alone accepts the end
        point.  Can only ever *find* models, never prove their absence."""
        # Imported here, as in rac.optimize_rac, so a search that never
        # refines loads no scipy.
        from scipy import optimize

        d, k = len(assignment), null.shape[1]
        null_q = null[:d]
        null_s = null[d:].reshape(d, 3, k)

        def split(x):
            z = z0 + null @ x[:k]
            s = z[d:].reshape(d, 3)
            # Smoothing far below BLOCH_SLACK keeps the norm differentiable.
            return z[:d], s, np.sqrt((s * s).sum(axis=1) + 1e-30)

        def margins(x):
            q, _, norms = split(x)
            if (q - norms).min() > BLOCH_SLACK:
                raise _Interior(x.copy())
            return x[k] + q - norms

        def margins_jac(x):
            _, s, norms = split(x)
            jac = np.ones((d, k + 1))
            jac[:, :k] = null_q - np.einsum("li,lik->lk", s / norms[:, None], null_s)
            return jac

        objective_grad = np.eye(k + 1)[k]
        # A box on the cone boundary has its optimum at t = 0 and is
        # approached slowly: ftol, an absolute change in t, must lie far
        # below BLOCH_SLACK, and a few hundred iterations may be needed.  A
        # model needs no margin, so the first point inside every cone ends it.
        try:
            x0 = np.zeros(k + 1)
            x0[k] = max(0.0, float(-margins(x0).min())) + 1e-6
            x = optimize.minimize(
                lambda x: x[k], x0, jac=lambda x: objective_grad, method="SLSQP",
                constraints=[{"type": "ineq", "fun": margins, "jac": margins_jac}],
                options={"maxiter": 1000, "ftol": 1e-16},
            ).x
        except _Interior as interior:
            x = interior.args[0]
        z = z0 + null @ x[:k]
        model = self._model_from_solution(assignment, z)
        keep = z[:d] > WEIGHT_SLACK
        if model is not None or keep.all() or not keep.any():
            return model
        # Classes left at zero weight sit at a cone apex, where the norm is
        # not differentiable and SLSQP stalls; solve once more without them.
        # A model with fewer classes is still a model of dimension at most d,
        # and repeated strategies merge into one class (module docstring).
        subset = tuple(dict.fromkeys(itertools.compress(assignment, keep)))
        model, _, job = self._least_squares(subset)
        return model if job is None else self._refine(*job[1:])

    # -- constructive feasibility lanes --------------------------------------

    def product_lane(self) -> tuple[LhvLhsModel | None, str | None]:
        """One class: the box can only be the product of its own marginals.

        Returns (model, None) when the product model verifies; a one-class
        model is a model at every d.  Otherwise the reason is sound for d = 1
        whenever it is not None: any one-class model within
        tol of the box has its Alice table pinned to the Alice marginal and
        its Bob statistics pinned to the Bob marginal (both to a small
        multiple of tol), so a large enough defect in the forced candidate
        is a proof.  It is None inside the grey zone where nothing sound can
        be said.
        """
        alice = self.box.alice_marginal()
        bob = self.box.bob_marginal()
        bias = bob[:, 0] - bob[:, 1]
        r = np.linalg.lstsq(self.dirs.directions, bias, rcond=None)[0]
        nr = float(np.linalg.norm(r))
        if nr <= 1.0 + BLOCH_SLACK:
            state = r / nr if nr > 1.0 else r
            model = self._verified(LhvLhsModel(1, np.ones(1), alice[None], state[None], self.dirs))
            if model is not None:
                return model, None
        residual = float(np.abs(self.dirs.directions @ r - bias).max())
        if residual > 4.0 * self.tol:
            return None, "reconstruction_residual"
        if nr > 1.0 + BLOCH_SLACK + 8.0 * self.tol:
            return None, "bloch_norm_exceeds_weight"
        product = np.einsum("xa,yb->xyab", alice, bob)
        if float(np.abs(product - self.box.p).max()) > 5.0 * self.tol:
            return None, "reconstruction_residual"
        return None, None

    def construct_two_class(self) -> LhvLhsModel | None:
        """Rank-1 boxes with uniform marginals, where Cov = C: split by the
        dominant setting's answer and mirror the Bob states across the
        origin.  A covariance within tol of zero is left to the product lane."""
        if not (self.uniform_alice and self.uniform_bob) or self.svals[0] <= self.tol:
            return None
        if self.svals.shape[0] > 1 and self.svals[1] > 16.0 * self.tol:
            return None
        u, v = self.svals[0] * self.cov_u[:, 0], self.cov_vt[0]
        alpha = float(np.abs(u).max())
        e_a = u / alpha
        if e_a[int(np.argmax(np.abs(u)))] < 0.0:
            e_a, v = -e_a, -v
        target = alpha * v
        r = np.linalg.lstsq(self.dirs.directions, target, rcond=None)[0]
        if float(np.linalg.norm(r)) > 1.0 + BLOCH_SLACK:
            return None
        table = np.stack([(1.0 + e_a) / 2.0, (1.0 - e_a) / 2.0], axis=-1)
        tables, states = np.stack([table, table[:, ::-1]]), np.stack([r, -r])
        return self._verified(LhvLhsModel(2, np.array([0.5, 0.5]), tables, states, self.dirs))


def search_lhs_bounded(
    box: Box, bob_dirs: MeasurementSet, d: int, tol: float = DEFAULT_TOL, *, _context=None
) -> LhvLhsModel | InfeasibilityTrace:
    """Search for a hidden-state model of dimension at most d.

    Phase 1 assigns deterministic Alice strategies to the d slots, repeats
    allowed, and gives each assignment the answer of its set of distinct
    strategies (the all-distinct set alone at d = 2^n): the least-squares
    point, in q_l = p(l) and s_l = p(l) * (Bloch vector of Bob's hidden
    state), of every set at once from the process-wide table, which must
    also meet q_l >= 0 and |s_l| <= q_l.  Phase 2 covers stochastic Alice
    responses by grouping d' <= 2^n deterministic strategies into d classes
    sharing a Bob state each.

    Before phase 1 the product lane runs at d = 1, and at every d where
    sigma_1(Cov) is within the margin of zero, as for every box within tol
    of a one-class model (a model at every d); then, at d >= 2, the rank-1
    two-class lane on uniform marginals.  A blanket reason retires every
    case at once: a model-universal correlator obstruction; at d = 1 the
    product-lane proof; or else, at d = 2^n, phase 1's one answer: a sound
    rejection, or "unresolved" when neither a model nor a proof came out.
    Otherwise the points inside the cones are verified in order of first
    appearance, then the non-unique ones left without a model are refined
    in their table's null space, least worst cone violation max_l(|s_l| -
    q_l) first, ties in that order; verification alone accepts an end
    point, and a refinement only finds models, so the trace is as if each
    set were solved in turn.  Every other case takes the blanket reason or
    is reported unresolved, in a CaseTrace over the (n, d) labels.  A
    certificate passes its context as _context.

    Returns:
        A verified LhvLhsModel, or an InfeasibilityTrace listing every case
        with the constraint it violates.  The trace's sound/exhaustive flags
        state exactly how much the rejection proves; at 1 < d < 2^n only a
        correlator obstruction makes a trace exhaustive.

    Raises:
        InvalidBox, DimensionMismatch, OutOfRange: on malformed input, a
            tol below ATOL_BOX included.
    """
    if _context is None:
        _check_tol(tol)
        box.validate()
        if bob_dirs.n != box.n:
            raise DimensionMismatch(f"box has {box.n} settings, directions have {bob_dirs.n}")
    d_top = 2 ** box.n
    if not 1 <= d <= d_top:
        raise OutOfRange(f"d must lie in [1, {d_top}], got {d}")
    ctx = _context or _SearchContext(box, bob_dirs, tol)
    # One reason that retires every case at once, when there is one.
    blanket = ctx.universal_reason(d)

    # Constructive fast lanes (every returned model has been re-verified).
    # A one-class model is a model at every d, and a box within tol of one
    # has sigma_1(Cov) within the margin; a sound product-lane reason covers
    # every one-class model, so it retires every case at d = 1 alone.
    model = None
    if blanket is None and (d == 1 or ctx.svals[0] <= ctx.margin):
        model, reason = ctx.product_lane()
        blanket = reason if d == 1 else None
    if model is None and blanket is None and d > 1:
        model = ctx.construct_two_class()
    if model is not None:
        return model

    labels, sizes, set_of, order, locate = _case_table(box.n, d)
    # At the top dimension the all-distinct assignment is fully general, so
    # phase 1 runs over it alone and its answer is every case's.
    reasons = ()
    if blanket is None:
        groups = [_set_group(ctx.dir_bytes, box.n, k) for k in sizes]
        model, reasons, jobs = ctx._solve(groups, order, locate)
        if model is not None:
            return model
        for job in sorted(jobs, key=lambda job: job[0]):
            model = ctx._refine(*job[1:])
            if model is not None:
                return model
        reasons = tuple(reasons[set_of])
        if d == d_top:
            blanket, reasons = reasons[0], ()

    cases = CaseTrace(labels, reasons, blanket or "unresolved")
    sound = "unresolved" not in cases.head and cases.tail != "unresolved"
    return InfeasibilityTrace(d, cases, sound, sound and blanket is not None)


def certify_quantumness(
    box: Box, n: int, d_A: int = 2, tol: float = DEFAULT_TOL
) -> Certificate:
    """Classify a box as witnessed-steerable, superunsteerable, classical at
    the given dimension, or undecided.

    The steering functional is evaluated first; a value above 1 + 1e-9 is a
    direct witness and no search runs.  Otherwise the bounded search runs at
    d_A: a model means CLASSICAL_AT_DIMENSION, and a sound exhaustive
    infeasibility combined with a model at the unconstrained dimension 2^n
    means SUPERUNSTEERABLE.  Anything the search cannot settle soundly is
    reported UNDECIDED, never guessed.

    Raises:
        InvalidBox, DimensionMismatch, OutOfRange: on malformed input.
    """
    _check_tol(tol)
    box.validate()
    if box.n != n:
        raise DimensionMismatch(f"box has {box.n} settings, expected {n}")
    d_top = 2 ** n
    if not 1 <= d_A <= d_top:
        raise OutOfRange(f"d_A must lie in [1, {d_top}], got {d_A}")
    functional = steering_functional(box, n)
    if functional > 1.0 + 1e-9:
        return Certificate(WITNESSED_STEERABLE, d_A, functional, None, ())
    ctx = _SearchContext(box, pauli_axes(n), tol)
    first = search_lhs_bounded(box, ctx.dirs, d_A, tol, _context=ctx)
    if isinstance(first, LhvLhsModel):
        return Certificate(CLASSICAL_AT_DIMENSION, d_A, functional, first, ())
    if first.sound and first.exhaustive and d_A < d_top:
        top = search_lhs_bounded(box, ctx.dirs, d_top, tol, _context=ctx)
        if isinstance(top, LhvLhsModel):
            return Certificate(SUPERUNSTEERABLE, d_A, functional, top, first.cases)
    return Certificate(UNDECIDED, d_A, functional, None, first.cases)
