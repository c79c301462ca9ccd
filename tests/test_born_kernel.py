"""The Born-rule kernel: bit identity with the per-product path, the scalar
input kernels against the numpy rules they replaced, and every input check
of the public Born-layer functions.

`boxes._born_products` multiplies all Kronecker products into rho with one
matrix product, and `boxes._born_traces` reads traces from the real
diagonal.  The references below run the path those replace: one 4x4
`np.kron(A, B) @ rho` per product and `np.trace(...).real`.  Equality is
asserted bit for bit, signed zeros included.  The same holds for
`rac._encodings`; `states._is_unit` and the closed-form PSD test of
`Assemblage.validate` must give the numpy rule's verdicts.
"""

import itertools
import math

import numpy as np
import pytest

from unsteer import (
    Assemblage,
    BellDiagonalParams,
    DegenerateAxis,
    DimensionMismatch,
    InvalidBox,
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
from unsteer.boxes import _born_traces, _clear_of_psd_floor
from unsteer.rac import _encodings
from unsteer.states import ATOL_MATRIX, IDENTITY_2, _is_unit, _projectors

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


def reference_is_unit(vectors) -> bool:
    """The numpy rule that states._is_unit replaces."""
    v = np.atleast_2d(vectors)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(v * v, axis=-1))
        return bool((np.abs(norms - 1.0) <= ATOL_MATRIX).all())


def reference_first_negative(sig):
    """The eigvalsh rule that Assemblage.validate applied to every stack: the
    first (a, x), a-major, with an eigenvalue below -1e-10, or None."""
    negative = np.argwhere(np.linalg.eigvalsh(sig).min(axis=-1) < -1e-10)
    return tuple(int(i) for i in negative[0]) if negative.size else None


def reference_encodings(c: np.ndarray) -> np.ndarray:
    """The numpy rule that rac._encodings replaces."""
    n = len(c)
    with np.errstate(over="ignore"):
        inv = 1.0 / np.ldexp(c, -math.frexp(min(map(abs, c.tolist())))[1])
    scale = float(np.sqrt(np.sum(inv**2)))
    bits = np.array(list(itertools.product((0, 1), repeat=n)))
    out = np.zeros((2**n, 3))
    out[:, :n] = np.where(bits == 1, -1.0, 1.0) * inv / scale
    return out


def _ulp_steps(value: float, k: int) -> float:
    """value moved by k ulps (k may be negative)."""
    toward = math.inf if k > 0 else -math.inf
    for _ in range(abs(k)):
        value = math.nextafter(value, toward)
    return value


def _block(lam_min: float, lam_max: float, axis, upper_phase=None) -> np.ndarray:
    """lam_max P + lam_min (I - P) for the projector P on a unit axis; with
    upper_phase, the upper off-diagonal becomes an unrelated entry of that
    phase, so the block is not Hermitian (eigvalsh reads only the lower one)."""
    mid, half = (lam_max + lam_min) / 2.0, (lam_max - lam_min) / 2.0
    x, y, z = axis
    block = np.array(
        [[mid + half * z, half * complex(x, -y)], [half * complex(x, y), mid - half * z]]
    )
    if upper_phase is not None:
        block[0, 1] = upper_phase * abs(block[1, 0]) * 3.0
    return block


class TestScalarKernels:
    """Each plain-float kernel against the numpy rule it replaced."""

    def test_is_unit_matches_numpy_rule(self):
        rng = np.random.default_rng(3001)
        rows = list(random_unit_vectors(rng, 300))
        # Rows whose norm sits at 1 +- 1e-12, give or take a few ulps.
        for u in random_unit_vectors(rng, 60):
            for edge in (1.0 + 1e-12, 1.0 - 1e-12):
                rows += [u * _ulp_steps(edge, k) for k in range(-4, 5)]
        rows += [np.array(r) for r in [
            [math.nan, 0.0, 0.0], [0.0, math.nan, 1.0], [math.inf, 0.0, 0.0],
            [-math.inf, 0.0, 0.0], [0.0, 0.0, math.inf], [1e200, 0.0, 0.0],
            [-1e200, 1.0, 0.0], [0.0, 1e200, -1e200], [5e-324, 1.0, 0.0],
            [1.0, -5e-324, 2.2e-308], [-0.0, 0.0, 1.0], [-0.0, -1.0, -0.0],
            [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1e-200, 1e-200, 1.0],
            [1.0, 1.0, 1.0], [math.sqrt(0.5), -math.sqrt(0.5), 0.0],
        ]]
        verdicts = [_is_unit(row) for row in rows]
        assert verdicts == [reference_is_unit(row) for row in rows]
        assert 200 < sum(verdicts) < len(rows)
        stack = np.array(rows)
        for size in (1, 2, 3, 8):
            for start in range(0, len(rows) - size, 7):
                part = stack[start:start + size]
                assert _is_unit(part) == reference_is_unit(part)
        # Every shape the callers pass: one row, a set, and a (x, a, 3) stack.
        assert _is_unit(stack[0]) == reference_is_unit(stack[0])
        assert _is_unit(stack[:12].reshape(2, 2, 3, 3)) == reference_is_unit(stack[:12])

    def test_psd_kernel_never_clears_a_block_eigvalsh_rejects(self):
        """A block the closed form clears has no eigvalsh eigenvalue below
        -1e-10; near the floor it defers, at any scale up to 1e8."""
        rng = np.random.default_rng(3002)
        cleared = deferred = 0
        for trial in range(4000):
            scale = 10.0 ** rng.uniform(-3, 8)
            guard = 1e-13 * scale
            lam_min = rng.choice([
                _ulp_steps(-1e-10, int(rng.integers(-6, 7))),
                -1e-10 + guard * rng.uniform(0.5, 4.0),
                rng.uniform(-2.0, 2.0) * guard,
                rng.uniform(0.0, 0.5) * scale,
                -rng.uniform(0.0, 1e-3) * scale,
            ])
            axis = random_unit_vectors(rng, 1)[0]
            if trial % 5 == 0:
                axis = np.eye(3)[trial % 3] * (1.0 if trial % 2 else -1.0)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi)) if trial % 4 == 0 else None
            block = _block(lam_min, scale, axis, phase)
            if trial % 7 == 0:
                block = block + 1j * np.diag(rng.normal(size=2))  # eigvalsh reads real parts
            stack = block[None, None]
            if _clear_of_psd_floor(stack):
                cleared += 1
                assert reference_first_negative(stack) is None, block
            else:
                deferred += 1
        assert cleared > 1000 and deferred > 1000

    def test_psd_kernel_reads_the_lower_entry(self):
        lower = np.array([[0.5, 0.0], [0.6, 0.5]], dtype=complex)[None, None]
        upper = np.array([[0.5, 0.6], [0.0, 0.5]], dtype=complex)[None, None]
        assert np.linalg.eigvalsh(lower).min() == pytest.approx(-0.1)
        assert not _clear_of_psd_floor(lower) and reference_first_negative(lower) == (0, 0)
        assert _clear_of_psd_floor(upper) and reference_first_negative(upper) is None

    def test_validate_names_the_block_eigvalsh_names(self):
        """Assemblages with one block's smaller eigenvalue at -1e-10 give or
        take a few ulps, or a few guards: validate accepts exactly when
        eigvalsh finds no negative block, and names the same first block."""
        rng = np.random.default_rng(3003)
        raised = 0
        for trial in range(600):
            n = 2 + trial % 2
            a_bad, x_bad = int(rng.integers(2)), int(rng.integers(n))
            lam = rng.choice([
                _ulp_steps(-1e-10, int(rng.integers(-6, 7))),
                -1e-10 + 1e-13 * rng.uniform(-3.0, 3.0),
                -1e-10 * rng.uniform(0.0, 2.0),
            ])
            first = [_block(0.1, 0.4, u) for u in random_unit_vectors(rng, n)]
            # The named block's complement is PSD; so is every other pair.
            first[x_bad] = _block(lam, 0.4, random_unit_vectors(rng, 1)[0])
            blocks = np.array([first, [np.eye(2) / 2 - b for b in first]])
            sigma = blocks if a_bad == 0 else blocks[::-1].copy()
            want = reference_first_negative(sigma)
            if want is None:
                Assemblage(sigma).validate()
                continue
            raised += 1
            assert want == (a_bad, x_bad)
            with pytest.raises(InvalidBox, match=rf"sigma\({want[0]}\|{want[1]}\) is not"):
                Assemblage(sigma).validate()
        assert 100 < raised < 500

    def test_encodings_match_numpy_rule(self):
        rng = np.random.default_rng(3004)
        cases = []
        for _ in range(1500):
            n = int(rng.integers(2, 4))
            signs = rng.choice([-1.0, 1.0], size=n)
            cases.append(signs * 10.0 ** rng.uniform(-320, 0, size=n))
        # Ratios near the overflow edge of the scaled inverse, and 2^1074.
        for _ in range(400):
            n = int(rng.integers(2, 4))
            small = math.ldexp(rng.uniform(0.5, 1.0), int(rng.integers(-1072, -960)))
            e = math.frexp(small)[1]
            big = [math.ldexp(rng.uniform(0.5, 1.0), 1024 + e + int(rng.integers(-2, 3)))
                   for _ in range(n - 1)]
            c = np.array([small, *big]) * rng.choice([-1.0, 1.0], size=n)
            cases.append(rng.permutation(c))
        cases += [np.array(c) for c in [
            [5e-324, 1.0], [-5e-324, 1.0, -1.0], [5e-324, -5e-324, 1.0],
            [1.0, 1.0, -1.0], [0.5, 0.25], [2.2250738585072014e-308, -1.0, 0.3],
        ]]
        zeros = 0
        for c in cases:
            got = _encodings(c)
            assert same_bits(got, reference_encodings(c)), c
            zeros += int((got[:, : len(c)] == 0.0).any())
        assert zeros > 100
        with pytest.raises(DegenerateAxis):
            _encodings(np.array([0.6, -0.0]))


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
    "set shape (2, 2)": (lambda: MeasurementSet(np.eye(2)), DimensionMismatch),
    "set shape (1, 4)": (lambda: MeasurementSet(np.eye(4)[:1]), DimensionMismatch),
    "set shape (0, 3)": (lambda: MeasurementSet(np.empty((0, 3))), DimensionMismatch),
    "set shape (1, 1, 3)": (lambda: MeasurementSet(_PAULI_3[None, :1]), DimensionMismatch),
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
