"""Random access codes assisted by Bell-diagonal states.

Closed-form worst-case efficiencies for the 2->1 and 3->1 codes, an exact
Born-rule protocol simulation, a multi-start encoding optimizer, and the
grid sweeps over separable states that locate the optimal resources and the
discord/efficiency non-monotonicity witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import _born_products, _born_traces, deterministic_strategies, pauli_axes
from .errors import DegenerateAxis, DimensionMismatch, OutOfRange
from .states import (
    BellDiagonalParams,
    _canonical,
    _canonical_head,
    _check_n,
    _projectors,
    bell_diagonal,
)

CSV_HEADER = "c1,c2,c3,separable,strength_n,efficiency_n,discord"

# Smallest grid step of a sweep or a bb84 curve: an n=3 sweep at 0.005 already
# has 457,945 rows, and a step near zero has no finite grid at all.
MIN_STEP = 0.005

# The 2^n input strings of an n-bit code as rows of bits, most significant first.
_INPUT_BITS = {n: np.array(deterministic_strategies(n)) for n in (2, 3)}


@dataclass(frozen=True)
class RacSpec:
    """A concrete n->1 protocol: state, encodings, and decoding convention.

    encodings: (2^n, 3) unit vectors, row index = integer value of the input
    string x (most significant bit first).  Decoding is b_i = a XOR b; the
    signed encodings built here make that correct on every axis.  Checked
    once at construction, as a MeasurementSet is; simulate_rac reads the stack.
    """

    n: int
    params: BellDiagonalParams
    encodings: np.ndarray  # read-only
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        enc = np.array(self.encodings, dtype=float, ndmin=2)
        _check_n(self.n)
        if enc.shape != (2 ** self.n, 3):
            raise DimensionMismatch(
                f"expected {2 ** self.n} encoding directions of length 3, "
                f"got shape {enc.shape}"
            )
        stack = _projectors(enc)
        enc.flags.writeable = stack.flags.writeable = False
        object.__setattr__(self, "encodings", enc)
        object.__setattr__(self, "_stack", stack)

    def __reduce__(self):
        return type(self), (self.n, self.params, self.encodings)


@dataclass(frozen=True)
class RacResult:
    """Worst-case success probability and the per-input-per-bit table."""

    p_min: float
    table: np.ndarray  # (2^n, n), entry [x, i] = Pr(guessed bit i = x_i)


def rac_classical_bound(n: int) -> float:
    """Best classical worst-case success: 2/3 for the 2->1 code, 1/2 for 3->1.

    Raises:
        UnsupportedN: for any other n.
    """
    _check_n(n)
    return 2.0 / 3.0 if n == 2 else 0.5


def rac_efficiency_bd(params: BellDiagonalParams, n: int) -> float:
    """Worst-case success (1/2)(1 + 1/sqrt(sum_i 1/c_i'^2)) of the optimal code.

    Evaluated on the canonical triple; extended by continuity to 1/2 when any
    of the first n canonical components vanishes.

    Raises:
        UnphysicalParams: for unphysical triples.
        UnsupportedN: for n outside {2, 3}.
    """
    return float(_efficiency(_canonical_head(params, n)))


def _efficiency(c: np.ndarray) -> np.ndarray:
    """(1/2)(1 + 1/sqrt(sum_i c_i^-2)) over the last axis.  A zero or tiny
    component makes the sum infinite, which gives the 1/2 limit."""
    with np.errstate(divide="ignore", over="ignore"):
        return 0.5 * (1.0 + 1.0 / np.sqrt((c ** -2.0).sum(axis=-1)))


def encoding_directions(params: BellDiagonalParams, n: int) -> np.ndarray:
    """The (2^n, 3) optimal encoding directions m(x) of the canonical triple.

    m_i(x) = (-1)^{x_i} (1/c_i') / sqrt(sum_j 1/c_j'^2) for i < n, remaining
    components zero; the signed 1/c_i' factor makes the plain a-XOR-b decoding
    correct on every axis, including a negative c_3'.

    Raises:
        DegenerateAxis: when some relevant c_i' = 0.
        UnsupportedN: for n outside {2, 3}.
    """
    return _encodings(_canonical_head(params, n))


def _encodings(c: np.ndarray) -> np.ndarray:
    """encoding_directions of the first n canonical components c."""
    values = c.tolist()
    if 0.0 in values:
        raise DegenerateAxis(
            f"encoding undefined when a relevant axis vanishes, canonical {tuple(values)}"
        )
    # Scaling by a power of two is exact, so tiny components invert without
    # overflow and others give the same bits; a component whose scaled value
    # overflows has inverse 0, signed as 1/inf is.
    shift = -math.frexp(min(map(abs, values)))[1]
    inv = []
    for v in values:
        try:
            inv.append(1.0 / math.ldexp(v, shift))
        except OverflowError:
            inv.append(math.copysign(0.0, v))
    total = 0.0
    for v in inv:
        total += v * v  # first to last, as np.sum adds two or three terms
    scale = math.sqrt(total)
    unit = [v / scale for v in inv]
    pad = [0.0] * (3 - len(unit))
    # Row x negates the components whose bit of x is 1, most significant first.
    signs = itertools.product((1.0, -1.0), repeat=len(unit))
    return np.array([[s * u for s, u in zip(row, unit)] + pad for row in signs])


def optimal_rac_spec(params: BellDiagonalParams, n: int) -> RacSpec:
    """RacSpec with the canonical triple and its optimal signed encodings.

    Raises:
        DegenerateAxis, UnphysicalParams, UnsupportedN: as in the parts.
    """
    canonical = _canonical(params, n)
    encodings = _encodings(canonical.as_array()[:n])
    return RacSpec(n=n, params=canonical, encodings=encodings)


def simulate_rac(spec: RacSpec) -> RacResult:
    """Exact Born-rule evaluation of the protocol; no sampling anywhere.

    For each input x Alice measures m(x) . sigma on her half and communicates
    the outcome a; for target bit i Bob measures sigma_i, getting b, and
    guesses a XOR b.  The table entry is the probability that the guess
    equals x_i; P_min is its minimum.
    """
    rho = bell_diagonal(spec.params)
    p = _born_traces(_born_products(rho, spec._stack, pauli_axes(spec.n)._stack))  # [x, i, a, b]
    bits = _INPUT_BITS[spec.n]
    # The guess a XOR b is right when it equals x_i; a = 0 is summed first.
    table = np.where(bits == 0, p[..., 0, 0] + p[..., 1, 1], p[..., 0, 1] + p[..., 1, 0])
    return RacResult(float(table.min()), table)


def _success_row(c: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Per-bit success of input 0, from the correlator form of the Born rule:
    Pr(a XOR b = 0) = (1 + m_i c_i) / 2."""
    n = len(c)
    return (1.0 + direction[:n] * c) / 2.0


def _unit_from_angles(theta: float, phi: float) -> np.ndarray:
    s = np.sin(theta)
    return np.array([s * np.cos(phi), s * np.sin(phi), np.cos(theta)])


def _angles(m: np.ndarray) -> tuple[float, float]:
    return float(np.arccos(np.clip(m[2], -1.0, 1.0))), float(np.arctan2(m[1], m[0]))


def optimize_rac(params: BellDiagonalParams, n: int) -> RacResult:
    """Maximize P_min over all encoding directions by multi-start local search.

    Input x's success row under the direction m_i -> (-1)^{x_i} m_i equals
    input 0's under m, so one search for input 0 (Nelder-Mead over sphere
    angles, from 20 deterministically seeded starts) gives every row of the
    table.  The heuristic encoding, when defined, is one more start, so the
    result is never worse than it beyond 1e-9; it is the first start, and its
    simplex is 1e-6 wide instead of scipy's default, since it only has to
    confirm that point.

    The closed form `rac_efficiency_bd` bounds every direction: for a unit m
    with t = min_i m_i c_i > 0, |m_i| >= t/|c_i| gives 1 >= t^2 sum_i c_i^-2,
    so (1 + t)/2 cannot exceed it (t <= 0 or a zero c_i is trivial).  The
    search stops at the first start whose best value is within 1e-12 of it.

    Raises:
        UnphysicalParams, UnsupportedN: on malformed input.
    """
    # Imported here so that the closed-form paths never load scipy.
    from scipy import optimize

    c = _canonical_head(params, n)
    bound = rac_efficiency_bd(params, n)
    rng = np.random.default_rng(0)
    starts = []  # (angles, initial simplex); None keeps scipy's default simplex
    try:
        heuristic = np.asarray(_angles(_encodings(c)[0]))
        starts.append((heuristic, heuristic + np.array([[0.0, 0.0], [1e-6, 0.0], [0.0, 1e-6]])))
    except DegenerateAxis:
        pass
    for _ in range(20):
        z = rng.normal(size=3)
        starts.append((np.asarray(_angles(z / np.linalg.norm(z))), None))
    best_value = -np.inf
    best_direction = np.array([0.0, 0.0, 1.0])
    for start, simplex in starts:
        res = optimize.minimize(
            lambda angles: -float(_success_row(c, _unit_from_angles(*angles)).min()),
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 600, "initial_simplex": simplex},
        )
        if -res.fun > best_value:
            best_value = -res.fun
            best_direction = _unit_from_angles(*res.x)
        if best_value >= bound - 1e-12:
            break
    table = np.tile(_success_row(c, best_direction), (2**n, 1))
    return RacResult(float(table.min()), table)


# ---------------------------------------------------------------------------
# Separable-state sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Grid evaluation over physical separable canonical triples.

    Rows are emitted in deterministic order: c1 ascending, then c2, then the
    |c3| magnitude, negative sign before positive.  The argmax fields use
    strictly-greater updates in that order, so ties go to the earliest row.
    """

    n: int
    step: float
    triples: np.ndarray  # (m, 3)
    strength: np.ndarray
    efficiency: np.ndarray
    discord: np.ndarray
    strength_argmax: BellDiagonalParams
    strength_max: float
    efficiency_argmax: BellDiagonalParams
    efficiency_max: float
    witness_pair: tuple[dict, dict] | None = field(default=None)

    @property
    def columns(self) -> np.ndarray:
        """(m, 6) table of c1, c2, c3, strength, efficiency, discord per row."""
        table = (self.triples, self.strength, self.efficiency, self.discord)
        return np.column_stack(table) + 0.0  # normalize any -0.0


def _separable_canonical_grid(step: float) -> np.ndarray:
    """All canonical triples on the step grid with c1 + c2 + |c3| <= 1, which
    for canonical triples is exactly 'physical and separable': i1 >= i2 >= i3
    with i1 + i2 + i3 <= s, the largest s with s * step <= 1 + 1e-12.  Row k
    of the run of an (i1, i2) has c3 = 0, -step, +step, -2 step, ..."""
    m = int(round(1.0 / step))
    s = int(np.flatnonzero(np.arange(3 * m + 1) * step <= 1.0 + 1e-12)[-1])
    i1, i2 = np.tril_indices(m + 1)
    runs = np.maximum(2 * np.minimum(i2, s - i1 - i2) + 1, 0)  # rows per (i1, i2)
    k = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
    mag = ((k + 1) >> 1) * step
    c3 = np.where(k & 1 == 1, -mag, mag)
    return np.column_stack([np.repeat(i1 * step, runs), np.repeat(i2 * step, runs), c3]) + 0.0


def _evaluate_grid(triples: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """(strength, efficiency, discord) columns of canonical grid triples."""
    c1, c2, c3 = triples[:, 0], triples[:, 1], triples[:, 2]
    strength = c2 if n == 2 else np.abs(c3)
    discord = (c2**2 + c3**2) / 2.0
    return strength, _efficiency(triples[:, :n]), discord


def _find_witness_pair(
    triples: np.ndarray, efficiency: np.ndarray, discord: np.ndarray
) -> tuple[dict, dict] | None:
    """First pair (in discord order) where higher discord buys strictly lower
    efficiency — the ordering disagreement that makes the two measures
    non-monotonic in each other."""

    def point(i) -> dict:
        return {
            "params": tuple(float(v) for v in triples[i]),
            "efficiency": float(efficiency[i]),
            "discord": float(discord[i]),
        }

    order = np.argsort(discord, kind="stable")
    best = order[0]
    for idx in order[1:]:
        if efficiency[idx] < efficiency[best] and discord[idx] > discord[best]:
            return point(best), point(idx)
        if efficiency[idx] > efficiency[best]:
            best = idx
    return None


def sweep_separable_max(n: int, step: float = 0.01) -> SweepReport:
    """Evaluate strength, efficiency, and discord over all separable canonical
    grid triples and report the maximizers plus a non-monotonicity witness.

    Raises:
        UnsupportedN: for n outside {2, 3}.
        OutOfRange: for step outside [MIN_STEP, 0.1].
    """
    _check_n(n)
    if not MIN_STEP <= step <= 0.1:
        raise OutOfRange(f"step must lie in [{MIN_STEP}, 0.1], got {step}")
    triples = _separable_canonical_grid(step)
    strength, efficiency, discord = _evaluate_grid(triples, n)
    i_strength = int(np.argmax(strength))
    i_efficiency = int(np.argmax(efficiency))
    return SweepReport(
        n=n,
        step=step,
        triples=triples,
        strength=strength,
        efficiency=efficiency,
        discord=discord,
        strength_argmax=BellDiagonalParams(*(float(v) for v in triples[i_strength])),
        strength_max=float(strength[i_strength]),
        efficiency_argmax=BellDiagonalParams(
            *(float(v) for v in triples[i_efficiency])
        ),
        efficiency_max=float(efficiency[i_efficiency]),
        witness_pair=_find_witness_pair(triples, efficiency, discord),
    )


def sweep_csv_lines(report: SweepReport) -> list[str]:
    """The sweep as CSV lines: mandatory header, 17-significant-digit floats,
    and a literal true/false separable column (the grid is separable by
    construction)."""
    columns = report.columns
    # Grid columns repeat heavily, so each distinct value is formatted once;
    # the constant separable column is one more entry of the same table.
    values, inverse = np.unique(columns, return_inverse=True)
    text = np.array(
        [format(v, ".17g") for v in values.tolist()] + ["true"], dtype=object
    )
    cells = np.insert(inverse.reshape(columns.shape), 3, len(values), axis=1)
    # Joining column lists through zip builds no per-row list, which would
    # otherwise leave tens of thousands of objects for the garbage collector.
    return [CSV_HEADER, *map(",".join, zip(*text[cells.T].tolist()))]
