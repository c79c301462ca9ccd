"""Joint probability boxes: construction from states and measurements,
deterministic response tables, assemblages, correlators, and the linear
steering witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidBox,
    OutOfRange,
)
from .states import (
    BellDiagonalParams,
    DensityMatrix,
    IDENTITY_2,
    _check_n,
    _is_unit,
    _projectors,
)

ATOL_BOX = 1e-12
ATOL_MUB = 1e-9

_AXES = np.eye(3)
# (-1)^(a+b) for (a, b) = 00, 01, 10, 11.
_CORRELATOR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True)
class MeasurementSet:
    """n projective qubit observables given as Bloch directions.

    Outcome b of a measurement along n-hat carries eigenvalue (-1)^b.  An
    outcome relabeling (b -> 1-b) is represented by negating the direction,
    so the flip convention is recorded in the set itself rather than assumed
    globally.
    """

    directions: np.ndarray  # shape (n, 3)

    def __post_init__(self):
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "directions", dirs)
        if dirs.ndim != 2 or dirs.shape[0] < 1 or dirs.shape[1] != 3:
            raise DimensionMismatch(
                f"measurement directions must have shape (n, 3) with n >= 1, got {dirs.shape}"
            )
        if not _is_unit(dirs):
            norms = np.array([math.hypot(*row) for row in dirs.tolist()])
            raise DimensionMismatch(f"measurement directions must be unit vectors, norms {norms}")

    @property
    def n(self) -> int:
        return self.directions.shape[0]

    def is_mub(self) -> bool:
        """Pairwise orthogonality of the directions (qubit MUB condition)."""
        g = self.directions @ self.directions.T
        return bool(np.all(np.abs(g - np.eye(self.n)) <= ATOL_MUB))


def pauli_axes(n: int) -> MeasurementSet:
    """The aligned Pauli set: x-hat, y-hat (and z-hat for n = 3)."""
    _check_n(n)
    return MeasurementSet(_AXES[:n].copy())


@dataclass(frozen=True)
class Box:
    """Binary-outcome joint conditional probability table p[x][y][a][b].

    Invariants (checked by validate): entries in [0,1], each p(.|xy)
    normalized, and no-signaling in both directions, all at 1e-12.
    """

    n: int
    p: np.ndarray  # shape (n, n, 2, 2)

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))

    def validate(self) -> "Box":
        """Return self if all Box invariants hold; numpy decides rejections.

        Raises:
            InvalidBox: naming the violated constraint.
        """
        if self.n not in (2, 3):
            raise InvalidBox(f"settings_per_side must be 2 or 3, got {self.n}")
        if self.p.shape != (self.n, self.n, 2, 2):
            raise InvalidBox(f"table shape {self.p.shape} != {(self.n, self.n, 2, 2)}")
        if _clear_box(self.p):
            return self
        if self.p.min() < -ATOL_BOX or self.p.max() > 1.0 + ATOL_BOX:
            raise InvalidBox(
                f"entry out of [0,1]: min {self.p.min():.3g}, max {self.p.max():.3g}"
            )
        totals = self.p.sum(axis=(2, 3))
        # Written as not <= so that a NaN fails; np.allclose would add rtol.
        if not np.abs(totals - 1.0).max() <= ATOL_BOX:
            x, y = np.unravel_index(np.argmax(np.abs(totals - 1.0)), totals.shape)
            raise InvalidBox(f"normalization violated at (x,y)=({x}, {y}): sum={totals[x, y]}")
        alice = self.p.sum(axis=3)  # p(a|x) as seen with each y
        if np.abs(alice - alice[:, :1, :]).max() > ATOL_BOX:
            raise InvalidBox("no-signaling violated: Alice marginal depends on y")
        bob = self.p.sum(axis=2)  # p(b|y) as seen with each x
        if np.abs(bob - bob[:1, :, :]).max() > ATOL_BOX:
            raise InvalidBox("no-signaling violated: Bob marginal depends on x")
        return self

    def alice_marginal(self) -> np.ndarray:
        """p(a|x), shape (n, 2)."""
        return self.p.sum(axis=3)[:, 0, :]

    def bob_marginal(self) -> np.ndarray:
        """p(b|y), shape (n, 2)."""
        return self.p.sum(axis=2)[0, :, :]


@dataclass(frozen=True)
class Assemblage:
    """Unnormalized conditional Bob states sigma[a][x], shape (2, n, 2, 2)."""

    sigma: np.ndarray

    def validate(self) -> "Assemblage":
        """Return self if sigma is a finite (2, n, 2, 2) stack, no-signaling,
        of unit total trace, with no block eigenvalue below -1e-10.  What
        _clear_assemblage accepts returns at once; numpy decides rejections.

        Raises:
            InvalidBox: naming the violated constraint; for a block that is
                not positive semidefinite, the first one in a-major order.
        """
        sig = np.asarray(self.sigma)
        if sig.ndim != 4 or sig.shape[0] != 2 or sig.shape[1] < 1 or sig.shape[2:] != (2, 2):
            raise InvalidBox(f"assemblage shape {sig.shape} is not (2, n, 2, 2) with n >= 1")
        if sig.dtype in (np.float64, np.complex128) and _clear_assemblage(sig):
            return self
        # First: NaN passes every comparison below, and inf makes them warn.
        if not np.isfinite(sig).all():
            raise InvalidBox("assemblage has a non-finite entry")
        reduced = sig.sum(axis=0)  # (n, 2, 2)
        if np.abs(reduced - reduced[:1]).max() > ATOL_BOX:
            raise InvalidBox("assemblage signals: sum_a sigma(a|x) depends on x")
        traces = np.einsum("axii->x", sig).real
        if not np.abs(traces - 1.0).max() <= ATOL_BOX:
            raise InvalidBox(f"assemblage traces sum to {traces}, expected 1")
        # Not >=, so that the NaN of an overflowing block is named too.
        negative = np.argwhere(~(np.linalg.eigvalsh(sig).min(axis=-1) >= -1e-10))
        if negative.size:
            a, x = negative[0]
            raise InvalidBox(f"sigma({a}|{x}) is not positive semidefinite")
        return self


def _clear_box(p: np.ndarray) -> bool:
    """Whether a float table surely passes Box.validate, in plain floats;
    False leaves it to numpy.  Bounds are the same comparisons (NaN fails),
    and a marginal is a two-term sum, exact in any order.  Four entries in
    [-1e-12, 1 + 1e-12] totalling 1 +- 1e-12 have magnitudes summing below
    1 + 1e-11: two orders of adding them differ by < 2 * 1.5 eps of that,
    and t - 1 is exact, so 1e-15 inside the bound is inside it for numpy.
    """
    n, lo, hi = p.shape[0], -ATOL_BOX, 1.0 + ATOL_BOX
    rows = p.reshape(-1, 4).tolist()  # row x*n + y: p(00), p(01), p(10), p(11)
    for k, (p00, p01, p10, p11) in enumerate(rows):
        q00, q01, q10, q11 = rows[k - k % n]  # (x, 0)
        r00, r01, r10, r11 = rows[k % n]  # (0, y)
        if not (
            lo <= p00 <= hi and lo <= p01 <= hi and lo <= p10 <= hi and lo <= p11 <= hi
            and abs((p00 + p01) + (p10 + p11) - 1.0) <= ATOL_BOX - 1e-15
            and abs((p00 + p01) - (q00 + q01)) <= ATOL_BOX
            and abs((p10 + p11) - (q10 + q11)) <= ATOL_BOX
            and abs((p00 + p10) - (r00 + r10)) <= ATOL_BOX
            and abs((p01 + p11) - (r01 + r11)) <= ATOL_BOX
        ):
            return False
    return True


def _clear_assemblage(sig: np.ndarray) -> bool:
    """The _clear_box of Assemblage.validate, on a float64 or complex128 stack.
    A NaN or inf entry makes a signaling difference (at its x or x = 0) NaN
    or inf.  The sums over a are exact, and parts within 1e-12/2 give a
    modulus under 0.71e-12, past 1e-12 by no rounding of numpy's hypot.  A
    block _clear_of_psd_floor clears has diagonal entries above -1e-10, so
    a trace is cleared at the band of _clear_box, by its argument.
    """
    zeroth, first = sig.reshape(2, -1, 4).tolist()
    base = [u + v for u, v in zip(zeroth[0], first[0])]  # sum over a at x = 0
    for p, q in zip(zeroth, first):
        for s00, _, s10, s11 in (p, q):
            if not _clear_of_psd_floor(s00.real, s11.real, math.hypot(s10.real, s10.imag)):
                return False
        if not abs((p[0].real + p[3].real) + (q[0].real + q[3].real) - 1.0) <= ATOL_BOX - 1e-15:
            return False
        for diff in (u + v - w for u, v, w in zip(p, q, base)):
            if not (abs(diff.real) <= ATOL_BOX / 2 and abs(diff.imag) <= ATOL_BOX / 2):
                return False
    return True


def _clear_of_psd_floor(a: float, d: float, b: float) -> bool:
    """Whether the Hermitian block eigvalsh reads, real diagonal a, d and
    lower entry of modulus b, surely has no eigenvalue below -1e-10; False
    leaves it to eigvalsh.  Its smaller eigenvalue is (a + d)/2 -
    hypot((a - d)/2, b); this formula and LAPACK each round it by a small
    multiple of eps times the largest entry s, so a value 1e-13 s (about
    450 eps s) above -1e-10 is one eigvalsh also puts at or above -1e-10.
    """
    smaller = (a + d) / 2.0 - math.hypot((a - d) / 2.0, b)
    return smaller >= -1e-10 + 1e-13 * max(abs(a), abs(d), b)


def _born_products(
    rho: DensityMatrix, alice_ops: np.ndarray, bob_ops: np.ndarray
) -> np.ndarray:
    """(A_a^x (x) B_b^y) rho for stacks alice_ops (X, A, 2, 2) and bob_ops
    (Y, B, 2, 2), shape (X, Y, A, B, 4, 4): the package's one Born-rule site.

    Its trace (_born_traces) is p(ab|xy); with Bob's identity as his only
    operator, its partial trace over Alice is sigma(a|x).  All Kronecker
    products are rows of one (X*Y*A*B*4, 4) matrix, multiplied into rho by
    one GEMM.  Each entry is still the length-4 dot product of a Kronecker
    row and a column of rho that np.kron(A, B) @ rho forms, through the same
    kernel, so it keeps its bits; that holds per BLAS build, and
    tests/test_born_kernel.py checks it.  An einsum contraction does not.
    """
    x, a = alice_ops.shape[:2]
    y, b = bob_ops.shape[:2]
    joint = (
        alice_ops[:, None, :, None, :, None, :, None]
        * bob_ops[None, :, None, :, None, :, None, :]
    )
    return (joint.reshape(-1, 4) @ rho).reshape(x, y, a, b, 4, 4)


def _born_traces(products: np.ndarray) -> np.ndarray:
    """np.trace(products, axis1=-2, axis2=-1).real of a (..., 4, 4) complex
    stack, bit for bit: read from the real diagonal and summed in the order
    numpy sums four complex entries, (d0 + d1) + (d2 + d3)."""
    d = products.real.diagonal(axis1=-2, axis2=-1)
    return (d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3])


def box_from_state(rho: DensityMatrix, alice: MeasurementSet, bob: MeasurementSet) -> Box:
    """Born-rule box p(ab|xy) = Tr[(Pi_a^x (x) Pi_b^y) rho].

    Raises:
        DimensionMismatch: when rho is not 4x4 or the sets differ in length.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"state must be 4x4, got {rho.shape}")
    if alice.n != bob.n:
        raise DimensionMismatch(f"setting counts differ: {alice.n} vs {bob.n}")
    products = _born_products(rho, _projectors(alice.directions), _projectors(bob.directions))
    return Box(alice.n, _born_traces(products)).validate()


def white_noise_bb84(v: float) -> Box:
    """The white-noise family p(ab|xy) = (1 + (-1)^(a+b+xy) delta_xy V)/4, n = 2.

    Raises:
        OutOfRange: unless 0 <= V <= 1.
    """
    if not 0.0 <= v <= 1.0:
        raise OutOfRange(f"V must lie in [0, 1], got {v}")
    p = np.empty((2, 2, 2, 2))
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        p[x, y, a, b] = (1.0 + (-1.0) ** (a + b + x * y) * (1.0 if x == y else 0.0) * v) / 4.0
    return Box(2, p)


def deterministic_strategies(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^n deterministic outcome assignments x -> a, lexicographic."""
    return tuple(itertools.product((0, 1), repeat=n))


def strategy_table(strategy: tuple[int, ...]) -> np.ndarray:
    """Response table (n, 2) of a deterministic strategy."""
    n = len(strategy)
    table = np.zeros((n, 2))
    for x, a in enumerate(strategy):
        table[x, a] = 1.0
    return table


def assemblage_from_state(rho: DensityMatrix, alice: MeasurementSet) -> Assemblage:
    """sigma(a|x) = Tr_A[(Pi_a^x (x) I) rho].

    Raises:
        DimensionMismatch: when rho is not 4x4.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"state must be 4x4, got {rho.shape}")
    products = _born_products(rho, _projectors(alice.directions), IDENTITY_2[None, None])
    sigma = products[:, 0, :, 0].reshape(alice.n, 2, 2, 2, 2, 2).trace(axis1=2, axis2=4)
    return Assemblage(sigma.swapaxes(0, 1)).validate()


def correlator(box: Box, x: int, y: int) -> float:
    """Two-point correlator sum_ab (-1)^(a+b) p(ab|xy).

    Raises:
        IndexOutOfRange: for invalid setting indices.
    """
    if not (0 <= x < box.n and 0 <= y < box.n):
        raise IndexOutOfRange(f"(x, y) = ({x}, {y}) outside n = {box.n}")
    return float(correlator_matrix(box)[x, y])


def correlator_matrix(box: Box) -> np.ndarray:
    """All correlators sum_ab (-1)^(a+b) p(ab|xy) as an (n, n) matrix."""
    return (box.p.reshape(box.n, box.n, 4) * _CORRELATOR_SIGNS).sum(axis=-1)


def steering_functional(box: Box, n: int) -> float:
    """(1/sqrt(n)) sum_k |<A_k B_k>| — the linear witness maximized over Bob
    outcome relabelings; a value above 1 certifies steerability.
    """
    if box.n != n:
        raise DimensionMismatch(f"box has {box.n} settings per side, asked for n = {n}")
    diag = np.abs(np.diag(correlator_matrix(box)))
    return float(np.add.reduce(diag) / np.sqrt(n))


def estimate_params_from_box(box: Box) -> BellDiagonalParams:
    """Read (c1, c2[, c3]) off the diagonal correlators of an aligned-Pauli box.

    For n = 2 the third component is unobserved and reported as 0; the
    returned triple is deliberately unvalidated (it may be unphysical even
    when the source state was physical).
    """
    c = np.diag(correlator_matrix(box)).tolist()
    while len(c) < 3:
        c.append(0.0)
    return BellDiagonalParams(c[0], c[1], c[2])


def box_to_json_dict(box: Box) -> dict:
    """JSON form {"n": ..., "p": nested lists indexed [x][y][a][b]}."""
    return {"n": box.n, "p": box.p.tolist()}


def _json_floats(value) -> np.ndarray:
    """JSON numbers in nested lists as a float array; ValueError for any other
    leaf, strings and booleans included, OverflowError past the float range."""
    leaves = np.asarray(value, dtype=object)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in leaves.flat):
        raise ValueError("it holds a value that is not a number")
    return leaves.astype(float)


def box_from_json_dict(data: dict) -> Box:
    """Parse and fully validate a box from its JSON form.

    Raises:
        InvalidBox: with a diagnostic naming the violated constraint.
    """
    if not isinstance(data, dict) or "n" not in data or "p" not in data:
        raise InvalidBox('box JSON must be an object with keys "n" and "p"')
    n = data["n"]
    if n not in (2, 3):
        raise InvalidBox(f'"n" must be 2 or 3, got {n!r}')
    try:
        p = _json_floats(data["p"])
    except (ValueError, OverflowError) as exc:
        raise InvalidBox(f'"p" is not a numeric array: {exc}') from exc
    if p.shape != (n, n, 2, 2):
        raise InvalidBox(f'"p" has shape {p.shape}, expected {(n, n, 2, 2)}')
    return Box(int(n), p).validate()
