"""Bell-diagonal state construction, spectra, canonical form, and PPT."""

import numpy as np
import pytest

from unsteer import (
    BellDiagonalParams,
    DimensionMismatch,
    Projector,
    UnphysicalParams,
    NonUnitDirection,
    apply_canonical_transform,
    bd_eigenvalues,
    bell_diagonal,
    bell_state,
    canonical_form,
    geometric_discord,
    is_ppt,
    is_separable_bd,
    partial_transpose,
    projector_matrix,
    state_from_bloch,
)
from unsteer.states import _projectors

from oracles import (
    FROZEN,
    bell_diagonal_direct,
    partial_transpose_loops,
    qubit_projector,
    random_physical_triple,
    random_unit_vectors,
)


class TestParamsValidation:
    def test_physical_triple_passes(self):
        """A triple inside the tetrahedron validates and returns itself."""
        p = BellDiagonalParams(0.5, 0.5, 0.0)
        assert p.validate() is p

    def test_unphysical_triple_names_offending_eigenvalue(self):
        """(0.9, 0.9, 0.9) pushes lambda_11 negative and the message says so."""
        with pytest.raises(UnphysicalParams, match="lambda_11"):
            BellDiagonalParams(0.9, 0.9, 0.9).validate()

    @pytest.mark.parametrize(
        "c", [(np.nan, 0.0, 0.0), (np.nan, np.nan, np.nan), (np.inf, np.inf, -np.inf)]
    )
    def test_non_finite_triple_rejected(self, c):
        """NaN eigenvalues pass every comparison, so finiteness is checked first."""
        with pytest.raises(UnphysicalParams, match="must be finite"):
            BellDiagonalParams(*c).validate()

    def test_vertex_states_are_physical(self):
        """All four Bell-state vertices of the tetrahedron validate."""
        for c3 in (1.0, -1.0):
            BellDiagonalParams(1.0, -c3, c3).validate()
            BellDiagonalParams(-1.0, c3, c3).validate()

    def test_as_array_matches_fields(self):
        """as_array returns (c1, c2, c3) in order."""
        arr = BellDiagonalParams(0.3, -0.2, 0.1).as_array()
        assert arr.tolist() == [0.3, -0.2, 0.1]


class TestSpectrum:
    def test_frozen_spectrum(self):
        """(1/2, 1/2, 0) has eigenvalues (1/4, 1/2, 1/4, 0)."""
        lam = bd_eigenvalues(BellDiagonalParams(0.5, 0.5, 0.0))
        assert lam == pytest.approx(FROZEN["spectrum_half_half_0"], abs=1e-15)

    def test_frozen_lambda_01(self):
        """lambda_01 of (0.6, 0.5, -0.1) equals (1 + c1 + c2 - c3)/4 = 0.55."""
        lam = bd_eigenvalues(BellDiagonalParams(0.6, 0.5, -0.1))
        assert lam[1] == pytest.approx(FROZEN["lambda_01_at_06_05_m01"], abs=1e-15)

    def test_spectrum_matches_dense_diagonalization(self):
        """bd_eigenvalues agrees with eigvalsh of the assembled matrix."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = random_physical_triple(rng)
            lam = np.sort(bd_eigenvalues(BellDiagonalParams(*c)))
            dense = np.linalg.eigvalsh(bell_diagonal_direct(*c))
            assert lam == pytest.approx(dense, abs=1e-12)


class TestBellBasis:
    def test_bell_states_orthonormal(self):
        """The four bell_state vectors form an orthonormal basis."""
        vs = [bell_state(a, b) for a in (0, 1) for b in (0, 1)]
        gram = np.array([[abs(np.vdot(u, v)) for v in vs] for u in vs])
        assert gram == pytest.approx(np.eye(4), abs=1e-15)

    def test_bell_diagonal_matches_direct_construction(self):
        """The precomputed Pauli pairs give the kron-per-term formula byte for
        byte, signed zeros included."""
        rng = np.random.default_rng(11)
        triples = [random_physical_triple(rng) for _ in range(100)]
        for c in triples + [(0.0, -0.0, 0.5), (-1.0, -1.0, -1.0)]:
            rho = bell_diagonal(BellDiagonalParams(*c))
            assert rho.tobytes() == bell_diagonal_direct(*c).tobytes()

    def test_bell_diagonal_is_a_state(self):
        """Unit trace, Hermitian, PSD for a physical triple."""
        rho = bell_diagonal(BellDiagonalParams(0.3, 0.2, -0.1))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert rho == pytest.approx(rho.conj().T, abs=1e-14)
        assert np.linalg.eigvalsh(rho).min() >= -1e-14


class TestCanonicalForm:
    def test_already_canonical_is_identity(self):
        """A canonical triple maps to itself with an empty transform."""
        rec = canonical_form(BellDiagonalParams(0.6, 0.4, -0.2))
        assert rec.canonical == BellDiagonalParams(0.6, 0.4, -0.2)
        assert rec.transform == ()

    def test_ordering_and_sign_rules(self):
        """Canonical output has c1 >= c2 >= |c3| with c1, c2 >= 0."""
        rng = np.random.default_rng(13)
        for _ in range(300):
            c = random_physical_triple(rng)
            canon = canonical_form(BellDiagonalParams(*c)).canonical
            assert canon.c1 >= canon.c2 >= abs(canon.c3) - 1e-15
            assert canon.c1 >= 0.0 and canon.c2 >= 0.0

    def test_transform_round_trip(self):
        """Applying the recorded transform to the input gives the canonical triple."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            c = random_physical_triple(rng)
            rec = canonical_form(BellDiagonalParams(*c))
            redone = apply_canonical_transform(rec.original, rec.transform)
            assert redone.as_array() == pytest.approx(
                rec.canonical.as_array(), abs=1e-15
            )

    def test_product_of_components_invariant(self):
        """c1*c2*c3 is preserved (flips come in pairs)."""
        rng = np.random.default_rng(19)
        for _ in range(200):
            c = random_physical_triple(rng)
            rec = canonical_form(BellDiagonalParams(*c))
            before = c[0] * c[1] * c[2]
            after = rec.canonical.c1 * rec.canonical.c2 * rec.canonical.c3
            assert after == pytest.approx(before, abs=1e-14)

    def test_spectrum_preserved_as_multiset(self):
        """The canonical state has the same eigenvalues as the original."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            c = random_physical_triple(rng)
            rec = canonical_form(BellDiagonalParams(*c))
            before = np.sort(bd_eigenvalues(rec.original))
            after = np.sort(bd_eigenvalues(rec.canonical))
            assert after == pytest.approx(before, abs=1e-14)

    def test_idempotent(self):
        """Canonicalizing a canonical triple changes nothing."""
        rng = np.random.default_rng(29)
        for _ in range(100):
            c = random_physical_triple(rng)
            once = canonical_form(BellDiagonalParams(*c)).canonical
            twice = canonical_form(once).canonical
            assert twice.as_array() == pytest.approx(once.as_array(), abs=0.0)


class TestSeparability:
    def test_separable_iff_max_eigenvalue_at_most_half(self):
        """Werner-type threshold: lambda_max <= 1/2 on random triples."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            c = random_physical_triple(rng)
            p = BellDiagonalParams(*c)
            assert is_separable_bd(p) == (
                bd_eigenvalues(p).max() <= 0.5 + 1e-12
            )

    def test_separability_matches_ppt_oracle(self):
        """For two qubits, PPT of the partial transpose decides separability."""
        rng = np.random.default_rng(37)
        for _ in range(200):
            c = random_physical_triple(rng)
            rho = bell_diagonal_direct(*c)
            ppt = np.linalg.eigvalsh(partial_transpose_loops(rho)).min() >= -1e-10
            assert is_separable_bd(BellDiagonalParams(*c)) == ppt

    def test_partial_transpose_matches_loop_oracle(self):
        """Vectorized partial transpose equals the reindexing definition."""
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = m @ m.conj().T
            rho = rho / np.trace(rho).real
            assert partial_transpose(rho) == pytest.approx(
                partial_transpose_loops(rho), abs=1e-14
            )

    def test_is_ppt_on_known_states(self):
        """Singlet fails PPT; the maximally mixed state passes."""
        assert not is_ppt(bell_diagonal(BellDiagonalParams(-1.0, -1.0, -1.0)))
        assert is_ppt(np.eye(4) / 4.0)


class TestDiscord:
    def test_closed_form(self):
        """Geometric discord is (c2'^2 + c3'^2)/2 on canonical triples."""
        assert geometric_discord(BellDiagonalParams(0.6, 0.4, -0.2)) == pytest.approx(
            (0.4**2 + 0.2**2) / 2.0, abs=1e-15
        )

    def test_invariant_under_canonicalization(self):
        """Discord only sees the canonical triple, not the input ordering."""
        rng = np.random.default_rng(43)
        for _ in range(200):
            c = random_physical_triple(rng)
            p = BellDiagonalParams(*c)
            canon = canonical_form(p).canonical
            assert geometric_discord(p) == pytest.approx(
                geometric_discord(canon), abs=1e-14
            )

    def test_zero_only_for_classical_axis_states(self):
        """Discord vanishes exactly when c2' = c3' = 0."""
        assert geometric_discord(BellDiagonalParams(0.7, 0.0, 0.0)) == 0.0
        assert geometric_discord(BellDiagonalParams(0.0, 0.0, 0.0)) == 0.0
        assert geometric_discord(BellDiagonalParams(0.5, 0.1, 0.0)) > 0.0


class TestProjectors:
    def test_projector_properties(self):
        """Each projector is idempotent and the two outcomes sum to identity."""
        rng = np.random.default_rng(47)
        for _ in range(50):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v)
            p0 = projector_matrix(Projector(v, 0))
            p1 = projector_matrix(Projector(v, 1))
            assert p0 @ p0 == pytest.approx(p0, abs=1e-14)
            assert p0 + p1 == pytest.approx(np.eye(2), abs=1e-14)

    def test_projector_stack_matches_oracle_bytes(self):
        """The broadcast stack holds qubit_projector(n_x, a) at [x, a] byte for
        byte, and projector_matrix reads it, for n = 2 and 3 random directions."""
        rng = np.random.default_rng(53)
        for n in (2, 3) * 20:
            dirs = random_unit_vectors(rng, n)
            stack = _projectors(dirs)
            assert stack.shape == (n, 2, 2, 2)
            for x in range(n):
                for a in (0, 1):
                    want = qubit_projector(dirs[x], a).tobytes()
                    assert stack[x, a].tobytes() == want
                    assert projector_matrix(Projector(dirs[x], a)).tobytes() == want

    def test_malformed_stack_rejected(self):
        """One non-unit row rejects the whole stack, and rows that are not
        3-vectors are a dimension mismatch rather than a truncated n.sigma."""
        with pytest.raises(NonUnitDirection):
            _projectors(np.array([[1.0, 0.0, 0.0], [0.0, 1.0 + 1e-9, 0.0]]))
        with pytest.raises(DimensionMismatch):
            projector_matrix(Projector(np.array([1.0, 0.0]), 0))

    def test_non_unit_direction_rejected(self):
        """A direction of norm != 1 raises NonUnitDirection."""
        with pytest.raises(NonUnitDirection):
            projector_matrix(Projector(np.array([1.0, 1.0, 0.0]), 0))

    def test_state_from_bloch_boundary(self):
        """Unit Bloch vectors give pure states; the origin gives I/2."""
        pure = state_from_bloch(np.array([0.0, 0.0, 1.0]))
        assert np.linalg.eigvalsh(pure) == pytest.approx([0.0, 1.0], abs=1e-14)
        assert state_from_bloch(np.zeros(3)) == pytest.approx(np.eye(2) / 2)
