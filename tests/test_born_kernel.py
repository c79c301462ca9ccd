"""The Born-rule kernel: bit identity with the per-product path, and every
input check of the public Born-layer functions.

`boxes._born_products` multiplies all Kronecker products into rho with one
matrix product, and `boxes._born_traces` reads traces from the real
diagonal.  The references below run the path those replace: one 4x4
`np.kron(A, B) @ rho` per product and `np.trace(...).real`.  Equality is
asserted bit for bit, signed zeros included.
"""

import itertools

import numpy as np
import pytest

from unsteer import (
    BellDiagonalParams,
    DegenerateAxis,
    DimensionMismatch,
    MeasurementSet,
    NonUnitDirection,
    PreconditionViolated,
    RacSpec,
    UnphysicalParams,
    UnsupportedN,
    assemblage_from_state,
    bd_eigenvalues,
    bell_diagonal,
    box_from_state,
    canonical_split_2set,
    canonical_split_3set,
    optimal_rac_spec,
    rac_efficiency_bd,
    simulate_rac,
    steering_functional,
    white_noise_bb84,
)
from unsteer.boxes import _born_traces
from unsteer.states import IDENTITY_2, _projectors

from oracles import random_physical_triple, random_unit_vectors

# Pauli directions with both signs: their projectors hold exact and signed zeros.
_SIGNED_AXES = np.concatenate([np.eye(3), -np.eye(3)])


def same_bits(a, b) -> bool:
    """Equal arrays with equal sign bits; complex arrays compared as floats."""
    a, b = np.asarray(a), np.asarray(b)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        a, b = a.astype(complex).view(float), b.astype(complex).view(float)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b)
    )


def reference_traces(rho, alice_ops, bob_ops) -> np.ndarray:
    """Tr[np.kron(A, B) @ rho] per operator pair, one 4x4 product each."""
    x, a = alice_ops.shape[:2]
    y, b = bob_ops.shape[:2]
    out = np.empty((x, y, a, b))
    for i, j, k, l in itertools.product(range(x), range(y), range(a), range(b)):
        out[i, j, k, l] = np.trace(np.kron(alice_ops[i, k], bob_ops[j, l]) @ rho).real
    return out


def reference_sigma(rho, alice_ops) -> np.ndarray:
    """Tr_A[np.kron(A, I) @ rho] per operator, indexed [a, x]."""
    x, a = alice_ops.shape[:2]
    sigma = np.empty((a, x, 2, 2), dtype=complex)
    for i, k in itertools.product(range(x), range(a)):
        op = np.kron(alice_ops[i, k], IDENTITY_2) @ rho
        sigma[k, i] = op.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    return sigma


def random_triple(rng) -> BellDiagonalParams:
    """A physical triple; about half the draws have one or two components 0."""
    zeros = rng.choice(3, size=rng.integers(1, 3), replace=False) if rng.random() < 0.5 else []
    while True:
        c = [float(v) for v in random_physical_triple(rng)]
        for i in zeros:
            c[i] = 0.0
        params = BellDiagonalParams(*c)
        if min(bd_eigenvalues(params)) >= 0.0:
            return params


def random_directions(rng, n) -> np.ndarray:
    if rng.random() < 0.3:
        return _SIGNED_AXES[rng.choice(6, size=n)]
    return random_unit_vectors(rng, n)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_box_and_assemblage(self, n):
        rng = np.random.default_rng(2900 + n)
        for _ in range(150):
            rho = bell_diagonal(random_triple(rng))
            alice = MeasurementSet(random_directions(rng, n))
            bob = MeasurementSet(random_directions(rng, n))
            expected = reference_traces(
                rho, _projectors(alice.directions), _projectors(bob.directions)
            )
            assert same_bits(box_from_state(rho, alice, bob).p, expected)
            sigma = reference_sigma(rho, _projectors(alice.directions))
            assert same_bits(assemblage_from_state(rho, alice).sigma, sigma)

    @pytest.mark.parametrize("n", [2, 3])
    def test_simulate_rac(self, n):
        rng = np.random.default_rng(2910 + n)
        bits = np.array(list(itertools.product((0, 1), repeat=n)))
        for trial in range(150):
            params = random_triple(rng)
            try:
                spec = optimal_rac_spec(params, n)
            except DegenerateAxis:
                spec = RacSpec(n, params, random_unit_vectors(rng, 2**n))
            if trial % 3 == 0:
                spec = RacSpec(n, params, random_directions(rng, 2**n))
            p = reference_traces(
                bell_diagonal(spec.params),
                _projectors(spec.encodings),
                _projectors(np.eye(3)[:n]),
            )
            table = np.where(bits == 0, p[..., 0, 0] + p[..., 1, 1], p[..., 0, 1] + p[..., 1, 0])
            result = simulate_rac(spec)
            assert same_bits(result.table, table)
            assert same_bits(result.p_min, table.min())

    @pytest.mark.parametrize("shape", [(), (5,), (2, 2, 2, 2), (3, 3, 2, 2), (8, 3, 2, 2)])
    def test_trace_helper_matches_np_trace(self, shape):
        rng = np.random.default_rng(len(shape))
        for _ in range(200):
            parts = rng.normal(size=(2, *shape, 4, 4))
            # Spread magnitudes so that any other summation order rounds differently.
            stack = (parts[0] + 1j * parts[1]) * 10.0 ** rng.integers(-4, 5, size=(*shape, 4, 4))
            expected = np.trace(stack, axis1=-2, axis2=-1).real
            assert same_bits(_born_traces(stack), expected)


def _scaled_set(directions) -> MeasurementSet:
    """A valid set whose directions leave the unit sphere after construction."""
    bad = MeasurementSet(np.array(directions, dtype=float))
    bad.directions[...] *= 1.0 + 1e-10
    return bad


def _scaled_spec(n) -> RacSpec:
    spec = optimal_rac_spec(BellDiagonalParams(0.6, 0.5, -0.4), n)
    spec.encodings[...] *= 1.0 + 1e-10
    return spec


_RHO = bell_diagonal(BellDiagonalParams(0.6, 0.5, -0.4))
_PAULI_3 = np.eye(3)
_UNPHYSICAL = BellDiagonalParams(0.9, 0.9, 0.9)
_NAN = BellDiagonalParams(float("nan"), 0.2, 0.1)

# (call, named error) for every input check of the Born-layer public functions.
CHECKS = {
    "bell_diagonal unphysical": (lambda: bell_diagonal(_UNPHYSICAL), UnphysicalParams),
    "bell_diagonal nan": (lambda: bell_diagonal(_NAN), UnphysicalParams),
    "box rho shape": (
        lambda: box_from_state(np.eye(2), MeasurementSet(_PAULI_3), MeasurementSet(_PAULI_3)),
        DimensionMismatch,
    ),
    "box setting counts": (
        lambda: box_from_state(_RHO, MeasurementSet(_PAULI_3), MeasurementSet(_PAULI_3[:2])),
        DimensionMismatch,
    ),
    "box alice scaled": (
        lambda: box_from_state(_RHO, _scaled_set(_PAULI_3), MeasurementSet(_PAULI_3)),
        NonUnitDirection,
    ),
    "box bob scaled": (
        lambda: box_from_state(_RHO, MeasurementSet(_PAULI_3), _scaled_set(_PAULI_3)),
        NonUnitDirection,
    ),
    "set construction": (
        lambda: MeasurementSet(_PAULI_3 * (1.0 + 1e-10)),
        DimensionMismatch,
    ),
    "assemblage rho shape": (
        lambda: assemblage_from_state(np.eye(2), MeasurementSet(_PAULI_3)),
        DimensionMismatch,
    ),
    "assemblage scaled": (
        lambda: assemblage_from_state(_RHO, _scaled_set(_PAULI_3[:2])),
        NonUnitDirection,
    ),
    "simulate scaled n=2": (lambda: simulate_rac(_scaled_spec(2)), NonUnitDirection),
    "simulate scaled n=3": (lambda: simulate_rac(_scaled_spec(3)), NonUnitDirection),
    "simulate unphysical": (
        lambda: simulate_rac(RacSpec(2, _UNPHYSICAL, np.eye(3)[[0, 0, 1, 1]])),
        UnphysicalParams,
    ),
    "simulate nan": (
        lambda: simulate_rac(RacSpec(3, _NAN, _SIGNED_AXES[[0, 1, 2, 3, 4, 5, 0, 1]])),
        UnphysicalParams,
    ),
    "spec construction": (
        lambda: RacSpec(2, _NAN, np.eye(3)[[0, 0, 1, 1]] * (1.0 + 1e-10)),
        NonUnitDirection,
    ),
    "spec unphysical": (lambda: optimal_rac_spec(_UNPHYSICAL, 2), UnphysicalParams),
    "spec nan": (lambda: optimal_rac_spec(_NAN, 3), UnphysicalParams),
    "spec n": (lambda: optimal_rac_spec(BellDiagonalParams(0.6, 0.5, -0.4), 4), UnsupportedN),
    "spec unphysical before n": (lambda: optimal_rac_spec(_UNPHYSICAL, 4), UnphysicalParams),
    "spec degenerate": (
        lambda: optimal_rac_spec(BellDiagonalParams(0.6, 0.0, 0.0), 2),
        DegenerateAxis,
    ),
    "spec n before degenerate": (
        lambda: optimal_rac_spec(BellDiagonalParams(0.6, 0.0, 0.0), 1),
        UnsupportedN,
    ),
    "efficiency unphysical": (lambda: rac_efficiency_bd(_UNPHYSICAL, 3), UnphysicalParams),
    "efficiency nan": (lambda: rac_efficiency_bd(_NAN, 2), UnphysicalParams),
    "efficiency n": (
        lambda: rac_efficiency_bd(BellDiagonalParams(0.6, 0.5, -0.4), 5),
        UnsupportedN,
    ),
    "split2 non-canonical": (
        lambda: canonical_split_2set(BellDiagonalParams(0.4, 0.6, -0.2)),
        PreconditionViolated,
    ),
    "split2 negative": (
        lambda: canonical_split_2set(BellDiagonalParams(-0.6, 0.5, 0.4)),
        PreconditionViolated,
    ),
    "split2 unphysical": (lambda: canonical_split_2set(_UNPHYSICAL), UnphysicalParams),
    "split2 nan": (lambda: canonical_split_2set(_NAN), PreconditionViolated),
    "split3 non-canonical": (
        lambda: canonical_split_3set(BellDiagonalParams(0.6, 0.3, -0.5)),
        PreconditionViolated,
    ),
    "split3 positive c3": (
        lambda: canonical_split_3set(BellDiagonalParams(0.6, 0.5, 0.4)),
        PreconditionViolated,
    ),
    "split3 unphysical": (
        lambda: canonical_split_3set(BellDiagonalParams(1.0, 1.0, -0.9)),
        UnphysicalParams,
    ),
    "functional n": (lambda: steering_functional(white_noise_bb84(0.5), 3), DimensionMismatch),
}


class TestNoCheckLost:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_raises_named_error(self, name):
        call, error = CHECKS[name]
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("split", [canonical_split_2set, canonical_split_3set])
    def test_splits_return_their_own_beta01(self, split):
        params = BellDiagonalParams(0.6, 0.5, -0.4)
        first, second = split(params).steerable_part, split(params).steerable_part
        assert first is not second and not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        expected = bell_diagonal(BellDiagonalParams(1.0, 1.0, -1.0))
        first[0, 0] = 7.0
        assert same_bits(second, expected)
        assert same_bits(split(params).steerable_part, expected)
