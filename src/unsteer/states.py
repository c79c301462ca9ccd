"""Two-qubit Bell-diagonal states: construction, spectra, separability,
geometric discord, and a product-preserving canonical form.

All operators are dense 2x2 or 4x4 complex arrays; everything here is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonUnitDirection, UnphysicalParams, UnsupportedN

ComplexMatrix = np.ndarray
"""Dense complex matrix (2x2 or 4x4)."""

DensityMatrix = np.ndarray
"""Hermitian, unit-trace, positive-semidefinite complex matrix."""

# Tolerances: unit norm of Bloch directions at 1e-12, eigenvalue floor at
# -1e-10 to absorb floating-point noise in user-supplied triples.
ATOL_MATRIX = 1e-12
ATOL_EIG = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# The terms of every Bell-diagonal matrix: I (x) I and sigma_i (x) sigma_i.
_IDENTITY_4 = np.kron(IDENTITY_2, IDENTITY_2)
_PAULI_PAIRS = tuple(np.kron(sigma, sigma) for sigma in PAULIS)
# (-1)^outcome for outcomes 0 and 1, shaped to scale a stack of 2x2 matrices.
_OUTCOME_SIGNS = np.array([1.0, -1.0])[:, None, None]


@dataclass(frozen=True)
class BellDiagonalParams:
    """Diagonal correlation triple (c1, c2, c3) of a Bell-diagonal state.

    A plain value: construction does not enforce physicality, because
    estimated triples (e.g. from a two-setting box) may legitimately fall
    outside the state tetrahedron.  Call validate() where physicality is
    required.
    """

    c1: float
    c2: float
    c3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=float)

    def validate(self) -> "BellDiagonalParams":
        """Return self if all four eigenvalues are >= -ATOL_EIG, else raise.

        Raises:
            UnphysicalParams: naming the offending eigenvalue, or the triple
                when a component is not finite (NaN passes every comparison).
        """
        if not all(map(math.isfinite, (self.c1, self.c2, self.c3))):
            raise UnphysicalParams(
                f"triple ({self.c1}, {self.c2}, {self.c3}) is unphysical: "
                "components must be finite"
            )
        lam = _eigenvalues(self)
        labels = ("lambda_00", "lambda_01", "lambda_10", "lambda_11")
        k = lam.index(min(lam))
        if lam[k] < -ATOL_EIG:
            raise UnphysicalParams(
                f"triple ({self.c1}, {self.c2}, {self.c3}) is unphysical: "
                f"{labels[k]} = {lam[k]:.6g} < 0"
            )
        return self


@dataclass(frozen=True)
class Projector:
    """Rank-1 qubit projector onto outcome `outcome` of the observable n.sigma."""

    direction: np.ndarray  # unit 3-vector
    outcome: int  # 0 or 1; outcome b carries eigenvalue (-1)^b


@dataclass(frozen=True)
class CanonicalFormRecord:
    """Original and canonical triples plus the transform steps between them.

    transform steps are ("permute", (i, j, k)) — reorder components — and
    ("flip", (i, j)) — negate components i and j together.  Both preserve the
    product c1*c2*c3, mirroring what local unitaries can do to the
    correlation matrix.
    """

    original: BellDiagonalParams
    canonical: BellDiagonalParams
    transform: tuple


def bell_state(a: int, b: int) -> np.ndarray:
    """Bell state vector (|0,b> + (-1)^a |1, 1-b>)/sqrt(2).

    Args:
        a, b: bits selecting the phase and parity.

    Returns:
        Length-4 complex unit vector in the computational basis.
    """
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("a and b must be bits")
    vec = np.zeros(4, dtype=complex)
    vec[b] = 1.0
    vec[2 + (1 - b)] = (-1.0) ** a
    return vec / np.sqrt(2.0)


def bd_eigenvalues(params: BellDiagonalParams) -> np.ndarray:
    """Eigenvalues (lambda_00, lambda_01, lambda_10, lambda_11).

    lambda_ab = (1 + (-1)^a c1 - (-1)^(a+b) c2 + (-1)^b c3) / 4.  Unphysical
    triples simply yield negative entries; no validation here.
    """
    return np.array(_eigenvalues(params))


def _eigenvalues(params: BellDiagonalParams) -> tuple:
    """bd_eigenvalues as a tuple of scalars, which validate reads without
    building an array."""
    c1, c2, c3 = params.c1, params.c2, params.c3
    return (
        (1.0 + c1 - c2 + c3) / 4.0,
        (1.0 + c1 + c2 - c3) / 4.0,
        (1.0 - c1 + c2 + c3) / 4.0,
        (1.0 - c1 - c2 - c3) / 4.0,
    )


def bell_diagonal(params: BellDiagonalParams) -> DensityMatrix:
    """Density matrix (1/4)(I (x) I + sum_i c_i sigma_i (x) sigma_i).

    Raises:
        UnphysicalParams: when any eigenvalue is below -1e-10.
    """
    params.validate()
    xx, yy, zz = _PAULI_PAIRS
    return (_IDENTITY_4 + params.c1 * xx + params.c2 * yy + params.c3 * zz) / 4.0


def geometric_discord(params: BellDiagonalParams) -> float:
    """Geometric discord (c2'^2 + c3'^2)/2 of the canonical form."""
    cf = canonical_form(params).canonical
    return (cf.c2 ** 2 + cf.c3 ** 2) / 2.0


def is_separable_bd(params: BellDiagonalParams) -> bool:
    """Separability of a physical Bell-diagonal state.

    True iff the largest eigenvalue is at most 1/2 (within 1e-12).

    Raises:
        UnphysicalParams: for unphysical triples.
    """
    params.validate()
    return float(bd_eigenvalues(params).max()) <= 0.5 + 1e-12


def canonical_form(params: BellDiagonalParams) -> CanonicalFormRecord:
    """Sort the triple by |c| descending and make c1, c2 >= 0.

    Only component permutations and paired sign flips are used, so the
    product c1*c2*c3 is preserved exactly; in particular the sign of c3' is
    fixed by the sign of the original product and is not forced negative.
    """
    values = [params.c1, params.c2, params.c3]
    steps: list[tuple] = []

    order = sorted(range(3), key=lambda i: (-abs(values[i]), i))
    if order != [0, 1, 2]:
        values = [values[i] for i in order]
        steps.append(("permute", tuple(order)))

    if values[0] < 0.0 and values[1] < 0.0:
        values[0], values[1] = -values[0], -values[1]
        steps.append(("flip", (0, 1)))
    elif values[0] < 0.0:
        values[0], values[2] = -values[0], -values[2]
        steps.append(("flip", (0, 2)))
    elif values[1] < 0.0:
        values[1], values[2] = -values[1], -values[2]
        steps.append(("flip", (1, 2)))

    canonical = BellDiagonalParams(*(v + 0.0 for v in values))
    return CanonicalFormRecord(params, canonical, tuple(steps))


def apply_canonical_transform(params: BellDiagonalParams, transform) -> BellDiagonalParams:
    """Replay canonical_form transform steps on a triple."""
    values = [params.c1, params.c2, params.c3]
    for kind, arg in transform:
        if kind == "permute":
            values = [values[i] for i in arg]
        elif kind == "flip":
            i, j = arg
            values[i], values[j] = -values[i], -values[j]
        else:
            raise ValueError(f"unknown transform step {kind!r}")
    return BellDiagonalParams(*(v + 0.0 for v in values))


def _check_n(n: int) -> None:
    """The one settings-count check of every code, split and closed form."""
    if n not in (2, 3):
        raise UnsupportedN(f"n must be 2 or 3, got {n}")


def _canonical(params: BellDiagonalParams, n: int) -> BellDiagonalParams:
    """The canonical triple, after UnphysicalParams and UnsupportedN checks."""
    params.validate()
    _check_n(n)
    return canonical_form(params).canonical


def _canonical_head(params: BellDiagonalParams, n: int) -> np.ndarray:
    """The first n canonical components of a triple, after the checks of
    _canonical: the input of every n-setting closed form."""
    return _canonical(params, n).as_array()[:n]


def _is_unit(vectors: np.ndarray) -> bool:
    """Whether every row of a (..., 3) array has norm within ATOL_MATRIX of 1
    (NaN and inf fail): the one unit-norm bound of measurement sets, RAC
    encodings and projectors.

    Summed in plain floats, x first, as np.add.reduce (and so
    np.linalg.norm) adds three squares, so every norm keeps its bits."""
    return all(
        abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= ATOL_MATRIX
        for x, y, z in vectors.reshape(-1, 3).tolist()
    )


def _n_sigma(vectors: np.ndarray) -> np.ndarray:
    """n.sigma for every row n of a (..., 3) array, shape (..., 2, 2).

    Summed from 0 term by term, x first, as the scalar formula is, so that
    every entry keeps its bits, signed zeros included."""
    v = np.asarray(vectors, dtype=float)[..., None, None]
    return 0 + v[..., 0, :, :] * SIGMA_X + v[..., 1, :, :] * SIGMA_Y + v[..., 2, :, :] * SIGMA_Z


def _projectors(directions: np.ndarray) -> np.ndarray:
    """(I + (-1)^a n.sigma)/2 for every row n of a (..., 3) array and outcome
    a, shape (..., 2, 2, 2).

    Raises:
        DimensionMismatch: when the rows are not 3-vectors.
        NonUnitDirection: when some |n| deviates from 1 by more than 1e-12.
    """
    dirs = np.asarray(directions, dtype=float)
    if dirs.shape[-1:] != (3,):
        raise DimensionMismatch(f"directions must be 3-vectors, got shape {dirs.shape}")
    if not _is_unit(dirs):
        raise NonUnitDirection(f"direction {dirs} has norm {np.linalg.norm(dirs, axis=-1)}")
    return (IDENTITY_2 + _OUTCOME_SIGNS * _n_sigma(dirs)[..., None, :, :]) / 2.0


def projector_matrix(p: Projector) -> ComplexMatrix:
    """(I + (-1)^outcome n.sigma)/2 for a unit direction n.

    Raises:
        DimensionMismatch: when n is not a 3-vector.
        NonUnitDirection: when |n| deviates from 1 by more than 1e-12.
    """
    return _projectors(p.direction)[p.outcome % 2]


def state_from_bloch(r: np.ndarray) -> DensityMatrix:
    """Qubit state (I + r.sigma)/2; positive-semidefinite iff |r| <= 1."""
    return (IDENTITY_2 + _n_sigma(r)) / 2.0


def partial_transpose(rho: ComplexMatrix) -> ComplexMatrix:
    """Partial transpose of a two-qubit operator over the second qubit."""
    return np.asarray(rho).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def is_ppt(rho: ComplexMatrix) -> bool:
    """Whether the partial transpose of rho is positive semidefinite.

    For two qubits this decides separability.
    """
    eigs = np.linalg.eigvalsh(partial_transpose(rho))
    return float(eigs.min()) >= -ATOL_EIG
