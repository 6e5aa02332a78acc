"""Eigen-solvers and the canonical complex-spectrum ordering."""

import numpy as np
import pytest

from mmot.linalg import eig_general, eig_symmetric, sort_complex_spectrum


def sort_complex_spectrum_oracle(values):
    """The per-eigenvalue key tuples the array sort replaced."""
    values = np.asarray(values, dtype=complex)
    keys = np.array(
        [(-abs(z), abs(np.angle(z)), -z.imag, -z.real) for z in values],
        dtype=float,
    )
    order = np.lexsort(keys.T[::-1])
    return values[order]


SPECTRA = ["conjugate_pairs", "modulus_ties", "zeros", "real", "rounded", "eigvals"]


def as_multiset(values, digits=9):
    return sorted((round(z.real, digits), round(z.imag, digits)) for z in values)


class TestSortComplexSpectrum:
    def test_exact_integer_case(self):
        vals = np.array([1.0, -1.0, 1j, -1j, 2.0], dtype=complex)
        out = sort_complex_spectrum(vals)
        # modulus desc, then small |arg| first, then positive imag first
        np.testing.assert_array_equal(out, np.array([2.0, 1.0, 1j, -1j, -1.0]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=12) + 1j * rng.normal(size=12)
        out = sort_complex_spectrum(vals)
        out2 = sort_complex_spectrum(vals[rng.permutation(12)])
        np.testing.assert_array_equal(out, out2)

    def test_modulus_is_nonincreasing(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=20) + 1j * rng.normal(size=20)
        out = sort_complex_spectrum(vals)
        mods = np.abs(out)
        assert np.all(mods[:-1] >= mods[1:] - 1e-15)


    @pytest.mark.parametrize("case", SPECTRA)
    def test_order_matches_key_tuple_oracle(self, case):
        rng = np.random.default_rng(SPECTRA.index(case))
        for _ in range(50):
            k = int(rng.integers(1, 12))
            if case == "conjugate_pairs":
                z = rng.normal(size=k) + 1j * rng.normal(size=k)
                vals = np.concatenate([z, np.conj(z), rng.normal(size=2)])
            elif case == "modulus_ties":
                # equal moduli at many angles, both signs of each part
                angles = rng.choice([0, 1, 2, 3, 4, 6], size=k) * np.pi / 6
                vals = rng.choice([1.0, 2.0], size=k) * np.exp(1j * angles)
                vals = np.concatenate([vals, -vals, np.conj(vals), 1j * vals.real])
            elif case == "zeros":
                vals = np.concatenate([np.zeros(k), rng.normal(size=3),
                                       [complex(-0.0, 0.0), complex(0.0, -0.0)]])
            elif case == "real":
                vals = np.concatenate([rng.normal(size=k), -np.abs(rng.normal(size=3))])
            elif case == "rounded":
                vals = np.round(rng.normal(size=k) + 1j * rng.normal(size=k), 1)
                vals = np.concatenate([vals, np.conj(vals), -vals])
            else:
                vals = np.linalg.eigvals(rng.normal(size=(k, k)))
            vals = vals[rng.permutation(len(vals))]
            got = sort_complex_spectrum(vals)
            assert got.tobytes() == sort_complex_spectrum_oracle(vals).tobytes()


class TestEigGeneral:
    def test_triangle_adjacency_spectrum(self):
        A = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        vals = eig_general(A)
        assert as_multiset(vals, 8) == as_multiset([2.0, -1.0, -1.0], 8)

    def test_rotation_matrix_spectrum(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert as_multiset(eig_general(A)) == as_multiset([1j, -1j])

    def test_nilpotent_spectrum_is_zero(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(np.abs(eig_general(A)), 0.0, atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_general(np.ones((2, 3)))


class TestEigSymmetric:
    def test_diagonal_closed_form(self):
        D = np.diag([3.0, -1.0, 2.0, 0.0])
        vals, vecs = eig_symmetric(D, 4)
        np.testing.assert_allclose(vals, [-1.0, 0.0, 2.0, 3.0], atol=1e-12)
        # columns are eigenvectors
        np.testing.assert_allclose(D @ vecs, vecs * vals, atol=1e-12)

    def test_smallest_k_selection(self):
        D = np.diag([5.0, 1.0, 3.0, 2.0, 4.0])
        vals, vecs = eig_symmetric(D, 2)
        np.testing.assert_allclose(vals, [1.0, 2.0], atol=1e-12)
        assert vecs.shape == (5, 2)

    def test_random_symmetric_residual(self):
        rng = np.random.default_rng(17)
        M = rng.normal(size=(8, 8))
        S = (M + M.T) / 2
        vals, vecs = eig_symmetric(S, 8)
        np.testing.assert_allclose(S @ vecs, vecs * vals, atol=1e-9)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(8), atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]), 2)
