"""Independent re-derivations used as oracles by the test suite.

Everything here is written from the definitions with plain loops and
np.kron, deliberately avoiding the package's own vectorized code paths, so
that agreement between the two is evidence rather than tautology.
"""

import itertools

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULIS = (SX, SY, SZ)


def bell_diagonal_direct(c1, c2, c3):
    """(1/4)(I + c1 XX + c2 YY + c3 ZZ) assembled term by term with kron."""
    rho = np.kron(ID2, ID2).astype(complex)
    for c, s in zip((c1, c2, c3), PAULIS):
        rho = rho + c * np.kron(s, s)
    return rho / 4.0


def qubit_projector(direction, outcome):
    """(I + (-1)^outcome n.sigma)/2 for a Bloch direction n."""
    n_sigma = sum(n_i * s for n_i, s in zip(direction, PAULIS))
    return (ID2 + (-1.0) ** outcome * n_sigma) / 2.0


def born_box(rho, alice_dirs, bob_dirs):
    """p(ab|xy) = Tr[rho (Pi_a^x (x) Pi_b^y)] with explicit kron loops."""
    n = len(alice_dirs)
    p = np.zeros((n, n, 2, 2))
    for x in range(n):
        for y in range(n):
            for a in (0, 1):
                for b in (0, 1):
                    pi = np.kron(
                        qubit_projector(alice_dirs[x], a),
                        qubit_projector(bob_dirs[y], b),
                    )
                    p[x, y, a, b] = np.trace(rho @ pi).real
    return p


def born_assemblage(rho, alice_dirs):
    """sigma(a|x) = Tr_A[(Pi_a^x (x) I) rho], the partial trace summed by loops."""
    n = len(alice_dirs)
    sigma = np.zeros((2, n, 2, 2), dtype=complex)
    for x in range(n):
        for a in (0, 1):
            op = np.kron(qubit_projector(alice_dirs[x], a), ID2) @ rho
            for i in (0, 1):
                for k in (0, 1):
                    for l in (0, 1):
                        sigma[a, x, k, l] += op[2 * i + k, 2 * i + l]
    return sigma


def rac_table_loops(rho, encodings, n):
    """Pr(a XOR b = x_i) for input x (most significant bit first) and target
    bit i, with Alice measuring encodings[x] and Bob the i-th Pauli axis."""
    table = np.zeros((2**n, n))
    for x in range(2**n):
        for i in range(n):
            bit = (x >> (n - 1 - i)) & 1
            for a in (0, 1):
                for b in (0, 1):
                    if a ^ b == bit:
                        pi = np.kron(
                            qubit_projector(encodings[x], a),
                            qubit_projector(np.eye(3)[i], b),
                        )
                        table[x, i] += np.trace(rho @ pi).real
    return table


def first_non_psd_loops(sigma):
    """The first (a, x), a-major, whose sigma(a|x) has an eigenvalue below
    -1e-10, or None."""
    for a in range(sigma.shape[0]):
        for x in range(sigma.shape[1]):
            if float(np.linalg.eigvalsh(sigma[a, x]).min()) < -1e-10:
                return a, x
    return None


def partial_transpose_loops(rho):
    """Transpose the second qubit by reindexing rho[ij,kl] -> rho[il,kj]."""
    pt = np.zeros_like(np.asarray(rho, dtype=complex))
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                for l in (0, 1):
                    pt[2 * i + j, 2 * k + l] = rho[2 * i + l, 2 * k + j]
    return pt


def model_box_loops(weights, alice_tables, bob_states, bob_dirs):
    """p(ab|xy) = sum_l w_l P(a|x,l) tr[Pi_b^y rho_l], summed with loops."""
    d = len(weights)
    n = len(bob_dirs)
    p = np.zeros((n, n, 2, 2))
    for lam in range(d):
        rho_l = (ID2 + sum(r_i * s for r_i, s in zip(bob_states[lam], PAULIS))) / 2.0
        for x in range(n):
            for y in range(n):
                for a in (0, 1):
                    for b in (0, 1):
                        born = np.trace(qubit_projector(bob_dirs[y], b) @ rho_l).real
                        p[x, y, a, b] += weights[lam] * alice_tables[lam, x, a] * born
    return p


def sweep_csv_loop(report):
    """Sweep CSV lines formatted one float at a time: header, the triple,
    a literal true, then strength, efficiency and discord, each as a
    17-significant-digit decimal with -0.0 written as 0."""
    lines = ["c1,c2,c3,separable,strength_n,efficiency_n,discord"]
    for row, s, e, d in zip(
        report.triples, report.strength, report.efficiency, report.discord
    ):
        lines.append(
            ",".join(
                [format(float(v) + 0.0, ".17g") for v in row]
                + ["true"]
                + [format(float(v) + 0.0, ".17g") for v in (s, e, d)]
            )
        )
    return lines


def set_partitions(items, k):
    """Partitions of a sorted list into exactly k nonempty classes, each
    class sorted and the classes ordered by their first member."""
    def all_partitions(rest):
        if not rest:
            yield []
            return
        head = rest[0]
        for tail in all_partitions(rest[1:]):
            yield [[head]] + tail
            for i in range(len(tail)):
                yield tail[:i] + [[head] + tail[i]] + tail[i + 1:]

    for partition in all_partitions(list(items)):
        if len(partition) == k:
            yield tuple(sorted(tuple(cls) for cls in partition))


def search_case_labels(n, d):
    """Case labels of a bounded search at (n, d), enumerated phase by phase
    and then sorted by (phase, assignment) and (phase, d', subset, partition)."""
    strategies = list(itertools.product((0, 1), repeat=n))

    def name(strategy):
        return "".join(str(bit) for bit in strategy)

    cases = []
    for assignment in itertools.combinations_with_replacement(strategies, d):
        label = "deterministic:" + "+".join(name(s) for s in assignment)
        cases.append(((0, assignment), label))
    for d_prime in range(d + 1, 2**n + 1):
        for subset in itertools.combinations(strategies, d_prime):
            for partition in set_partitions(subset, d):
                label = "grouped:" + "|".join(
                    ",".join(name(s) for s in cls) for cls in partition
                )
                cases.append(((1, d_prime, subset, partition), label))
    cases.sort(key=lambda case: case[0])
    return [label for _, label in cases]


def coefficient_blocks_loops(strategies, bob_dirs):
    """Per-strategy (4 n^2 + 1, 4) coefficient blocks of the search's linear
    system, filled one row (x, y, a, b) at a time."""
    n = len(bob_dirs)
    rows = 4 * n * n + 1
    blocks = {}
    for strat in strategies:
        block = np.zeros((rows, 4))
        r = 0
        for x in range(n):
            for y in range(n):
                for a in (0, 1):
                    for b in (0, 1):
                        if strat[x] == a:
                            block[r, 0] = 0.5
                            block[r, 1:4] = 0.5 * (-1.0) ** b * bob_dirs[y]
                        r += 1
        block[rows - 1, 0] = 1.0
        blocks[strat] = block
    return blocks


def least_squares_lstsq(p, bob_dirs, blocks, assignment, tol):
    """The search's answer for one distinct strategy set from one direct
    np.linalg.lstsq of its system, built from `blocks`, against the box p:
    (reason, rank, z).  The reason is "" for a point in every cone whose
    model reconstructs p within tol (summed with loops), a residual or cone
    proof for a unique solution, and "unresolved" otherwise."""
    d = len(assignment)
    a_mat = np.concatenate(
        [blocks[s][:, :1] for s in assignment] + [blocks[s][:, 1:] for s in assignment],
        axis=1,
    )
    rhs = np.append(np.asarray(p).reshape(-1), 1.0)
    z, _, rank, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    if np.abs(a_mat @ z - rhs).max() > tol:
        return "reconstruction_residual", rank, z
    q, s = z[:d], z[d:].reshape(d, 3)
    norms = np.sqrt((s * s).sum(axis=1))
    if q.min() < -1e-10:
        reason = "negative_weight"
    elif (norms > q + 1e-10).any():
        reason = "bloch_norm_exceeds_weight"
    else:
        q = np.clip(q, 0.0, None)
        states = np.zeros((d, 3))
        for l in range(d):
            if q[l] > 1e-14:
                states[l] = s[l] / q[l] / max(1.0, norms[l] / q[l])
        tables = np.array([[[1.0 - a, float(a)] for a in strat] for strat in assignment])
        box = model_box_loops(q / q.sum(), tables, states, bob_dirs)
        return ("" if np.abs(box - p).max() <= tol else "unresolved"), rank, z
    return (reason if rank == 4 * d else "unresolved"), rank, z


def random_physical_triple(rng):
    """Rejection-sample a triple with all four Bell eigenvalues >= 0."""
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        lam = np.array(
            [
                1.0 + c[0] - c[1] + c[2],
                1.0 + c[0] + c[1] - c[2],
                1.0 - c[0] + c[1] + c[2],
                1.0 - c[0] - c[1] - c[2],
            ]
        ) / 4.0
        if lam.min() >= 0.0:
            return tuple(float(v) for v in c)


def random_unit_vectors(rng, n):
    """n unit 3-vectors drawn from the normalized Gaussian ensemble."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Frozen expected values, computed once from the closed forms by hand.
FROZEN = {
    "spectrum_half_half_0": [0.25, 0.5, 0.25, 0.0],
    "lambda_01_at_06_05_m01": 0.55,
    "functional_bb84_09": 1.2727922061357857,  # sqrt(2) * 0.9
    "functional_third_triple_n3": 0.5773502691896258,  # 1/sqrt(3)
    "functional_1_03_m03_n3": 0.9237604307034013,  # 1.6/sqrt(3)
    "cost_bb84_09": 0.6585786437626907,  # (0.9 sqrt(2) - 1)/(sqrt(2) - 1)
    "eff2_half_half": 0.6767766952966369,  # (1 + 1/sqrt(8))/2
    "eff3_third_triple": 0.5962250448649377,  # (1 + 1/sqrt(27))/2
    "eff3_09_02_m01": 0.5445021358790734,
    "inv_sqrt2": 0.7071067811865475,
    "two_set_remainder_06_04_m02": (1.0 / 3.0, 0.0, 1.0 / 3.0),
    "three_set_remainder_05_04_m02": (0.375, 0.25, 0.0),
}
