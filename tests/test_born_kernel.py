"""The Born-rule kernel: bit identity with the per-product path, the scalar
input kernels against the numpy rules they replaced, and every input check
of the public Born-layer functions.

`boxes._born_products` multiplies all Kronecker products into rho with one
matrix product, and `boxes._born_traces` reads traces from the real
diagonal.  The references below run the path those replace: one 4x4
`np.kron(A, B) @ rho` per product and `np.trace(...).real`.  Equality is
asserted bit for bit, signed zeros included.  The same holds for
`rac._encodings` and the closed-form projector stack of
`states._projectors`; the unit-norm rule of that stack (and so of every
`MeasurementSet` and `RacSpec`), the closed-form PSD test and the
plain-float passes of `Box.validate` and `Assemblage.validate` must give
the numpy rules' verdicts, and the validators their messages.
"""

import copy
import dataclasses
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest

from unsteer import (
    Assemblage,
    BellDiagonalParams,
    Box,
    DegenerateAxis,
    DimensionMismatch,
    InvalidBox,
    InvalidModel,
    MeasurementSet,
    NonUnitDirection,
    PreconditionViolated,
    Projector,
    RacSpec,
    UnphysicalParams,
    UnsupportedN,
    assemblage_from_state,
    bd_eigenvalues,
    bell_diagonal,
    box_from_state,
    build_lhs_model_2set,
    canonical_split_2set,
    canonical_split_3set,
    optimal_rac_spec,
    pauli_axes,
    projector_matrix,
    rac_efficiency_bd,
    simulate_rac,
    steering_functional,
    verify_lhv_lhs,
    white_noise_bb84,
)
from unsteer.boxes import (
    ATOL_BOX,
    _born_traces,
    _clear_assemblage,
    _clear_box,
    _clear_of_psd_floor,
)
from unsteer.rac import _encodings
from unsteer.states import (
    ATOL_MATRIX,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _projectors,
)

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
    """The numpy unit-norm rule that _projectors' plain-float pass replaces."""
    v = np.atleast_2d(vectors)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.add.reduce(v * v, axis=-1))
        return bool((np.abs(norms - 1.0) <= ATOL_MATRIX).all())


def accepts(build, vectors) -> bool:
    """Whether build(vectors) returns rather than raising NonUnitDirection."""
    try:
        build(vectors)
    except NonUnitDirection:
        return False
    return True


def reference_first_negative(sig):
    """The eigvalsh rule that Assemblage.validate applied to every stack: the
    first (a, x), a-major, with an eigenvalue below -1e-10, or None."""
    negative = np.argwhere(np.linalg.eigvalsh(sig).min(axis=-1) < -1e-10)
    return tuple(int(i) for i in negative[0]) if negative.size else None


def clears_psd_floor(stack) -> bool:
    """_clear_of_psd_floor on every block of a stack, fed the entries that
    eigvalsh reads: the real diagonal and the lower entry's modulus."""
    return all(
        _clear_of_psd_floor(s00.real, s11.real, abs(s10))
        for s00, _, s10, s11 in stack.reshape(-1, 4).tolist()
    )


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
        """_projectors, MeasurementSet and RacSpec accept exactly the rows
        and stacks the numpy rule accepts, and raise NonUnitDirection for
        the rest."""
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
        verdicts = [accepts(_projectors, row) for row in rows]
        assert verdicts == [reference_is_unit(row) for row in rows]
        assert [accepts(MeasurementSet, row) for row in rows] == verdicts
        assert 200 < sum(verdicts) < len(rows)
        stack = np.array(rows)
        for size in (1, 2, 3, 4, 8):
            for start in range(0, len(rows) - size, 7):
                part = stack[start:start + size]
                want = reference_is_unit(part)
                assert accepts(_projectors, part) == accepts(MeasurementSet, part) == want
                if size in (4, 8):
                    n = 2 if size == 4 else 3
                    assert accepts(lambda enc: RacSpec(n, _UNPHYSICAL, enc), part) == want
        # Every shape the callers pass: one row, a set, and a (x, a, 3) stack.
        assert accepts(_projectors, stack[0]) == reference_is_unit(stack[0])
        assert accepts(_projectors, stack[:12].reshape(2, 2, 3, 3)) == reference_is_unit(stack[:12])

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
            if clears_psd_floor(stack):
                cleared += 1
                assert reference_first_negative(stack) is None, block
            else:
                deferred += 1
        assert cleared > 1000 and deferred > 1000

    def test_psd_kernel_reads_the_lower_entry(self):
        lower = np.array([[0.5, 0.0], [0.6, 0.5]], dtype=complex)[None, None]
        upper = np.array([[0.5, 0.6], [0.0, 0.5]], dtype=complex)[None, None]
        assert np.linalg.eigvalsh(lower).min() == pytest.approx(-0.1)
        assert not clears_psd_floor(lower) and reference_first_negative(lower) == (0, 0)
        assert clears_psd_floor(upper) and reference_first_negative(upper) is None

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


def reference_projectors(directions) -> np.ndarray:
    """The broadcast rule that states._projectors replaces: n.sigma summed
    from 0 term by term, x first, then (I + (-1)^a n.sigma)/2."""
    v = np.asarray(directions, dtype=float)[..., None, None]
    n_sigma = (
        0 + v[..., 0, :, :] * SIGMA_X + v[..., 1, :, :] * SIGMA_Y + v[..., 2, :, :] * SIGMA_Z
    )
    signs = np.array([1.0, -1.0])[:, None, None]
    return (IDENTITY_2 + signs * n_sigma[..., None, :, :]) / 2.0


def signed_zero_rows() -> np.ndarray:
    """Unit rows with one or two components +-0.0, in every sign pattern."""
    rows = []
    r = math.sqrt(0.5)
    for sx, sy, sz in itertools.product((1.0, -1.0), repeat=3):
        rows += [
            [sx * 0.0, sy * 0.6, sz * 0.8], [sx * 0.6, sy * 0.0, sz * 0.8],
            [sx * 0.6, sy * 0.8, sz * 0.0], [sx * r, sy * r, sz * 0.0],
            [sx * 1.0, sy * 0.0, sz * 0.0], [sx * 0.0, sy * 1.0, sz * 0.0],
            [sx * 0.0, sy * 0.0, sz * 1.0],
        ]
    return np.array(rows)


class TestProjectorStack:
    """The closed-form projector stack against the broadcast rule, bit for
    bit, signed zeros included."""

    def test_signed_axes_and_zeros(self):
        for rows in (_SIGNED_AXES, signed_zero_rows()):
            assert same_bits(_projectors(rows), reference_projectors(rows))
            for row in rows:
                assert same_bits(_projectors(row), reference_projectors(row))

    def test_random_stacks(self):
        rng = np.random.default_rng(3101)
        zeros = signed_zero_rows()
        for _ in range(10_000):
            size = int(rng.integers(1, 9))
            rows = random_unit_vectors(rng, size)
            pick = rng.random(size) < 0.2
            rows[pick] = zeros[rng.integers(len(zeros), size=int(pick.sum()))]
            assert same_bits(_projectors(rows), reference_projectors(rows)), rows

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 2), (3, 1)])
    def test_stacked_shapes(self, shape):
        rng = np.random.default_rng(3102 + shape[0])
        rows = random_unit_vectors(rng, shape[0] * shape[1]).reshape(*shape, 3)
        stack = _projectors(rows)
        assert stack.shape == (*shape, 2, 2, 2)
        assert same_bits(stack, reference_projectors(rows))

    def test_projector_matrix(self):
        rng = np.random.default_rng(3103)
        rows = np.concatenate([_SIGNED_AXES, signed_zero_rows(), random_unit_vectors(rng, 50)])
        for row in rows:
            for outcome in (0, 1, 2, -1):
                want = reference_projectors(row)[outcome % 2]
                assert same_bits(projector_matrix(Projector(row, outcome)), want)


def reference_box_error(p: np.ndarray):
    """The numpy checks of Box.validate on a (n, n, 2, 2) table: the message
    of the first one violated, or None."""
    if p.min() < -ATOL_BOX or p.max() > 1.0 + ATOL_BOX:
        return f"entry out of [0,1]: min {p.min():.3g}, max {p.max():.3g}"
    totals = p.sum(axis=(2, 3))
    if not np.abs(totals - 1.0).max() <= ATOL_BOX:
        x, y = np.unravel_index(np.argmax(np.abs(totals - 1.0)), totals.shape)
        return f"normalization violated at (x,y)=({x}, {y}): sum={totals[x, y]}"
    alice = p.sum(axis=3)
    if np.abs(alice - alice[:, :1, :]).max() > ATOL_BOX:
        return "no-signaling violated: Alice marginal depends on y"
    bob = p.sum(axis=2)
    if np.abs(bob - bob[:1, :, :]).max() > ATOL_BOX:
        return "no-signaling violated: Bob marginal depends on x"
    return None


def reference_assemblage_error(sig: np.ndarray):
    """The numpy checks of Assemblage.validate on a (2, n, 2, 2) stack: the
    message of the first one violated, or None."""
    if not np.isfinite(sig).all():
        return "assemblage has a non-finite entry"
    reduced = sig.sum(axis=0)
    if np.abs(reduced - reduced[:1]).max() > ATOL_BOX:
        return "assemblage signals: sum_a sigma(a|x) depends on x"
    traces = np.einsum("axii->x", sig).real
    if not np.abs(traces - 1.0).max() <= ATOL_BOX:
        return f"assemblage traces sum to {traces}, expected 1"
    first = reference_first_negative(sig)
    return None if first is None else f"sigma({first[0]}|{first[1]}) is not positive semidefinite"


def verdict(value):
    """The message validate raises for a Box or an Assemblage, or None."""
    try:
        value.validate()
    except InvalidBox as exc:
        return str(exc)
    return None


def deterministic_box(f, g) -> np.ndarray:
    """p(ab|xy) of the deterministic strategies a = f(x), b = g(y)."""
    n = len(f)
    p = np.zeros((n, n, 2, 2))
    for x, y in itertools.product(range(n), repeat=2):
        p[x, y, f[x], g[y]] = 1.0
    return p


def moved_boxes(rng, n):
    """Valid tables with one check at its bound, give or take 1-4 ulps, or a
    non-finite entry."""
    steps = [k for k in range(-4, 5) if k]
    for _ in range(6):
        f, g = rng.integers(2, size=n), rng.integers(2, size=n)
        p = deterministic_box(f, g)
        x, y, a, b = (int(v) for v in rng.integers([n, n, 2, 2]))
        for k in steps:
            q = p.copy()  # an entry at -1e-12 or 1 + 1e-12, its total moved too
            q[x, y, a, b] = _ulp_steps(-ATOL_BOX if q[x, y, a, b] == 0.0 else 1.0 + ATOL_BOX, k)
            yield q
            eps = _ulp_steps(ATOL_BOX, k)
            q = p.copy()  # p(1 - g(y)|y) = -eps at every x: entries at -1e-12
            for i in range(n):
                q[i, y, f[i], 1 - g[y]] = -eps
                q[i, y, f[i], g[y]] = 1.0 + eps
            yield q
            eps = _ulp_steps(1.0 + ATOL_BOX, k) - 1.0
            q = p.copy()  # every 1 at 1 + eps and two 0s at -eps/2: entries at 1 + 1e-12
            for i, j in itertools.product(range(n), repeat=2):
                q[i, j, f[i], g[j]] = 1.0 + eps
                q[i, j, f[i], 1 - g[j]] = q[i, j, 1 - f[i], g[j]] = -eps / 2.0
            yield q
    for _ in range(12):
        d = random_directions(rng, n)
        rho, axes = bell_diagonal(random_triple(rng)), MeasurementSet(d)
        p = box_from_state(rho, axes, axes).p
        x, y, a, b = (int(v) for v in rng.integers([n, n, 2, 2]))
        for k in steps:
            q = p.copy()  # one total at 1 +- 1e-12
            q[x, y, a, b] = _ulp_steps(q[x, y, a, b] + rng.choice([-1.0, 1.0]) * ATOL_BOX, k)
            yield q
            delta = _ulp_steps(ATOL_BOX, k)
            q = p.copy()  # Alice's marginal moved, the total kept
            q[x, y, a, 0] += delta
            q[x, y, 1 - a, 0] -= delta
            yield q
            q = p.copy()  # Bob's marginal moved, the total kept
            q[x, y, 0, b] += delta
            q[x, y, 0, 1 - b] -= delta
            yield q
        for index in itertools.product(range(n), range(n), (0, 1), (0, 1)):
            for bad in (math.nan, math.inf, -math.inf):
                q = p.copy()
                q[index] = bad
                yield q


def moved_assemblages(rng, n):
    """Valid stacks with one check at its bound, give or take 1-4 ulps, or a
    non-finite entry, as complex128 and, for real stacks, float64."""
    steps = [k for k in range(-4, 5) if k]
    for trial in range(12):
        d = random_directions(rng, n)
        if trial % 4 == 0:
            d[:, 1] = 0.0  # x-z plane: a real stack
            d[(d == 0.0).all(axis=1), 2] = 1.0
            d /= np.linalg.norm(d, axis=1, keepdims=True)
        sig = assemblage_from_state(bell_diagonal(random_triple(rng)), MeasurementSet(d)).sigma
        if trial % 4 == 0:
            assert not sig.imag.any()
            sig = np.ascontiguousarray(sig.real)
        x = int(rng.integers(n))
        for k in steps:
            s = sig.copy()  # every trace at 1 +- 1e-12 +- k ulps of 1, no signaling added
            s[0, :, 0, 0] += rng.choice([-1.0, 1.0]) * (_ulp_steps(1.0 + ATOL_BOX, k) - 1.0)
            yield s
            delta = _ulp_steps(ATOL_BOX, k)
            s = sig.copy()  # a signaling offset in an upper entry
            s[0, x, 0, 1] += delta
            yield s
            s = sig.copy()  # a signaling offset on the diagonal, trace kept
            s[1, x, 0, 0] += delta
            s[1, x, 1, 1] -= delta
            yield s
            if sig.dtype == complex:
                s = sig.copy()  # a complex offset of modulus near 1e-12
                s[1, x, 1, 0] += delta * complex(0.6, 0.8)
                yield s
        for i in range(sig.size * (2 if sig.dtype == complex else 1)):
            for bad in (math.nan, math.inf, -math.inf):
                s = sig.copy()
                s.view(float).reshape(-1)[i] = bad  # a real or imaginary part
                yield s
    for _ in range(40):  # one block's smaller eigenvalue at -1e-10
        first = [_block(0.1, 0.4, u) for u in random_unit_vectors(rng, n)]
        lam = _ulp_steps(-1e-10, int(rng.integers(-4, 5)))
        first[int(rng.integers(n))] = _block(lam, 0.4, random_unit_vectors(rng, 1)[0])
        yield np.array([first, [np.eye(2) / 2 - b for b in first]])


class TestValidatorKernels:
    """Box.validate and Assemblage.validate clear tables in plain floats; on
    every table moved to a bound, validate gives the numpy checks' verdict
    and message, so the fast path never accepts what they reject."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_box_verdicts_match_numpy_checks(self, n):
        rng = np.random.default_rng(3110 + n)
        accepted = rejected = 0
        for p in moved_boxes(rng, n):
            want = reference_box_error(p)
            assert verdict(Box(n, p)) == want, p
            accepted += want is None
            rejected += want is not None
        assert accepted > 100 and rejected > 200

    @pytest.mark.parametrize("n", [2, 3])
    def test_assemblage_verdicts_match_numpy_checks(self, n):
        rng = np.random.default_rng(3120 + n)
        accepted = rejected = 0
        for sig in moved_assemblages(rng, n):
            want = reference_assemblage_error(sig)
            assert verdict(Assemblage(sig)) == want, sig
            accepted += want is None
            rejected += want is not None
        assert accepted > 50 and rejected > 200

    def test_fast_paths_clear_valid_tables(self):
        """State-made boxes and assemblages pass the plain-float checks;
        single-precision stacks get the numpy checks' verdict."""
        rng = np.random.default_rng(3130)
        for n in (2, 3):
            for _ in range(50):
                rho = bell_diagonal(random_triple(rng))
                alice = MeasurementSet(random_directions(rng, n))
                bob = MeasurementSet(random_directions(rng, n))
                assert _clear_box(box_from_state(rho, alice, bob).p)
                assert _clear_assemblage(assemblage_from_state(rho, alice).sigma)
        sig = assemblage_from_state(_RHO, MeasurementSet(np.eye(3)[[0, 2]])).sigma.real
        for single in (sig.astype(np.float32), sig.astype(np.complex64)):
            assert verdict(Assemblage(single)) == reference_assemblage_error(single)


def _scaled_set(directions) -> MeasurementSet:
    """A valid set, scaled off the unit sphere after construction.  Its
    directions are read-only, so the write raises numpy's ValueError before
    any Born-layer call sees the set."""
    bad = MeasurementSet(np.array(directions, dtype=float))
    bad.directions[...] *= 1.0 + 1e-10
    return bad


def _scaled_spec(n) -> RacSpec:
    """_scaled_set for a spec's encodings."""
    spec = optimal_rac_spec(BellDiagonalParams(0.6, 0.5, -0.4), n)
    spec.encodings[...] *= 1.0 + 1e-10
    return spec


_RHO = bell_diagonal(BellDiagonalParams(0.6, 0.5, -0.4))
_HUGE = np.array([[1e200, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1e200], [1.0, 0.0, 0.0]])
_MODEL = build_lhs_model_2set(BellDiagonalParams(0.5, 0.5, 0.0))
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
        ValueError,
    ),
    "box bob scaled": (
        lambda: box_from_state(_RHO, MeasurementSet(_PAULI_3), _scaled_set(_PAULI_3)),
        ValueError,
    ),
    "set construction": (
        lambda: MeasurementSet(_PAULI_3 * (1.0 + 1e-10)),
        NonUnitDirection,
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
        ValueError,
    ),
    "simulate scaled n=2": (lambda: simulate_rac(_scaled_spec(2)), ValueError),
    "simulate scaled n=3": (lambda: simulate_rac(_scaled_spec(3)), ValueError),
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


def _overflowing(dtype, *index) -> np.ndarray:
    """A valid (2, 2, 2, 2) stack of I/4 blocks with 1.7e308 at each index:
    two of them sum past the float range."""
    sig = np.array([np.eye(2) / 4.0] * 4, dtype=dtype).reshape(2, 2, 2, 2)
    for i in index:
        sig[i] = 1.7e308
    return sig


def _model_with(**parts):
    """verify_lhv_lhs on _MODEL with some parts replaced, against its own box."""
    return verify_lhv_lhs(dataclasses.replace(_MODEL, **parts), _MODEL.reconstruct_box(), 1e-9)


# (call, named error, message) for finite inputs that overflow a check.
HUGE = {
    "set": (lambda: MeasurementSet(_HUGE), NonUnitDirection, "e\\+200"),
    "projectors": (lambda: _projectors(_HUGE[1:3]), NonUnitDirection, "e\\+200"),
    "spec": (lambda: RacSpec(2, _UNPHYSICAL, _HUGE), NonUnitDirection, "e\\+200"),
    **{
        f"assemblage signals {dtype.__name__}": (
            lambda dtype=dtype: Assemblage(_overflowing(dtype, (0, 1, 0, 1), (1, 1, 0, 1))).validate(),
            InvalidBox,
            "^assemblage signals: ",
        )
        for dtype in (complex, float)
    },
    **{
        f"assemblage traces {dtype.__name__}": (
            lambda dtype=dtype: Assemblage(_overflowing(dtype, np.s_[:, :, 0, 0])).validate(),
            InvalidBox,
            "^assemblage traces sum to \\[inf inf\\], expected 1$",
        )
        for dtype in (complex, float)
    },
    "model bloch": (
        lambda: _model_with(bob_states=np.array([[1e200, 0.0, 0.0], [0.0, 0.0, 1.0]])),
        InvalidModel,
        "^Bloch norm inf exceeds 1$",
    ),
    "model weights": (
        lambda: _model_with(weights=np.array([1.7e308, 1.7e308])),
        InvalidModel,
        "^weights sum to inf, expected 1$",
    ),
    "model table": (
        lambda: _model_with(alice_tables=np.array([[[1.7e308, 1.7e308], [0.5, 0.5]]] * 2)),
        InvalidModel,
        "^non-stochastic Alice response table$",
    ),
}


class TestNoCheckLost:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_raises_named_error(self, name):
        call, error = CHECKS[name]
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("site", sorted(HUGE))
    def test_huge_component_raises_without_warning(self, site):
        """Finite entries whose squares or sums overflow: with warnings as
        errors, the unit checks, Assemblage.validate's numpy checks and
        verify_lhv_lhs still raise their named error and message."""
        call, error, message = HUGE[site]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
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


class TestCheckedOnce:
    """A MeasurementSet and a RacSpec are values checked at construction:
    read-only arrays, their own copy of the caller's data, and copies and
    pickles that rebuild through the constructor."""

    def test_arrays_are_read_only(self):
        spec = optimal_rac_spec(BellDiagonalParams(0.6, 0.5, -0.4), 3)
        for value in (MeasurementSet(_PAULI_3), pauli_axes(2), spec):
            given = value.encodings if value is spec else value.directions
            for array in (given, value._stack):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_source_arrays_stay_the_callers(self, n):
        """Writing into the arrays a set and a spec were built from, even
        off the unit sphere, leaves every output bit for bit."""
        rng = np.random.default_rng(3200 + n)
        source, encodings = random_unit_vectors(rng, n), random_unit_vectors(rng, 2**n)
        alice, bob = MeasurementSet(source), MeasurementSet(source[::-1])
        spec = RacSpec(n, BellDiagonalParams(0.6, 0.5, -0.4), encodings)

        def outputs():
            return (box_from_state(_RHO, alice, bob).p,
                    assemblage_from_state(_RHO, alice).sigma, simulate_rac(spec).table)

        before = outputs()
        source *= 1.0 + 1e-10
        encodings[::-1] *= -1.0 - 1e-10
        assert not np.shares_memory(alice.directions, source)
        assert not np.shares_memory(spec.encodings, encodings)
        assert all(same_bits(a, b) for a, b in zip(outputs(), before))

    @pytest.mark.parametrize("kind", ["set", "pauli", "spec"])
    def test_copies_rebuild_read_only_values(self, kind):
        """copy.copy, copy.deepcopy and pickle at every protocol give a new
        value with read-only arrays and an equal, newly built stack."""
        value = {
            "set": lambda: MeasurementSet(random_unit_vectors(np.random.default_rng(3210), 3)),
            "pauli": lambda: pauli_axes(3),
            "spec": lambda: optimal_rac_spec(BellDiagonalParams(0.6, 0.5, -0.4), 3),
        }[kind]()
        name = "encodings" if kind == "spec" else "directions"
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(value) and other is not value
            assert not getattr(other, name).flags.writeable and not other._stack.flags.writeable
            assert same_bits(getattr(other, name), getattr(value, name))
            assert same_bits(other._stack, value._stack) and other._stack is not value._stack
            if kind == "spec":
                assert (other.n, other.params) == (value.n, value.params)
