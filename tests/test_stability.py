import numpy as np
import pytest

from conftest import bits, dense_gradient_cross, stacked_rows
from kuhn3.analytic_ev import _partials, gradient_scaled
from kuhn3.catalog import instantiate
from kuhn3.game_model import FREQ_NAMES, StrategyProfile
from kuhn3.stability import (
    Verdict,
    classify_equilibrium,
    eigenvalues,
    jacobian,
)


def rhs_f(freqs: np.ndarray, pot: float) -> np.ndarray:
    """Frequency-coordinate vector field used as finite-difference oracle."""
    return freqs * (1.0 - freqs) * np.array(_partials(freqs, pot))


def fd_jacobian(profile: StrategyProfile, pot: float, h: float = 1e-6):
    f0 = profile.as_array()
    J = np.zeros((11, 11))
    for j in range(11):
        fp = f0.copy()
        fm = f0.copy()
        fp[j] += h
        fm[j] -= h
        J[:, j] = (rhs_f(fp, pot) - rhs_f(fm, pot)) / (2 * h)
    return J


class TestJacobian:
    def test_boundary_row_is_one_sided_rate(self):
        prof = instantiate("1", 2.5)
        J = jacobian(prof, 2.5)
        i = FREQ_NAMES.index("a1")  # a1 = 0 here
        g = gradient_scaled(prof, 2.5)[i]
        assert J[i, i] == pytest.approx(g, abs=1e-14)
        off = np.delete(J[i], i)
        assert np.abs(off).max() == 0.0

    def test_player1_rows_decouple_with_nonpositive_rates(self):
        prof = instantiate("1", 2.5)
        J = jacobian(prof, 2.5)
        for name in ("a1", "b1", "a2", "b2"):
            i = FREQ_NAMES.index(name)
            assert J[i, i] <= 1e-12
            assert np.abs(np.delete(J[i], i)).max() == 0.0

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            prof = StrategyProfile(*rng.uniform(0.05, 0.95, 11))
            pot = float(rng.uniform(2, 8))
            J = jacobian(prof, pot)
            assert np.abs(J - fd_jacobian(prof, pot)).max() < 1e-6

    def test_matches_finite_differences_on_catalog_points(self):
        for sid, pot in (("1", 2.5), ("4", 3.3), ("7", 4.1), ("10", 6.0)):
            prof = instantiate(sid, pot)
            J = jacobian(prof, pot)
            assert np.abs(J - fd_jacobian(prof, pot)).max() < 1e-6

    def test_gain_scaling(self):
        prof = instantiate("5", 3.75)
        J1 = jacobian(prof, 3.75)
        k = {n: 2.0 if n == "b3" else 1.0 for n in FREQ_NAMES}
        J2 = jacobian(prof, 3.75, gains=k)
        i = FREQ_NAMES.index("b3")
        assert np.allclose(J2[i], 2.0 * J1[i])
        mask = np.arange(11) != i
        assert np.allclose(J2[mask], J1[mask])

    def test_stack_matches_dense_form_and_single_calls(self, rng):
        F, P = stacked_rows(rng)
        for k in (np.ones(11), rng.uniform(0.25, 4.0, 11)):
            J = jacobian(F, P, gains=k)
            assert J.shape == (len(F), 11, 11)
            for i in range(len(F)):
                prof = StrategyProfile(*F[i])
                # the parent's form: dense cross term, gradient as a tuple
                want = ((k * F[i] * (1.0 - F[i]))[:, None]
                        * dense_gradient_cross(F[i], P[i]))
                want[np.diag_indices(11)] += (
                    k * (1.0 - 2.0 * F[i]) * gradient_scaled(prof, P[i]))
                one = jacobian(prof, P[i], gains=k)
                assert (bits(one) == bits(want)).all()
                assert (bits(J[i]) == bits(one)).all()


class TestEigenvalues:
    def test_diagonal_matrix(self):
        d = np.arange(1.0, 12.0)
        lam = np.sort_complex(eigenvalues(np.diag(d)))
        assert np.allclose(lam, d)

    def test_rotation_block(self):
        theta = 0.7
        A = np.zeros((11, 11))
        A[0, 1] = -theta
        A[1, 0] = theta
        lam = eigenvalues(A)
        lam = lam[np.argsort(-lam.imag)]
        assert lam[0] == pytest.approx(1j * theta, abs=1e-12)
        assert lam[-1] == pytest.approx(-1j * theta, abs=1e-12)

    def test_companion_matrix_cube_roots_of_unity(self):
        A = np.zeros((11, 11))
        # companion of x^3 - 1 in the top-left block
        A[0, 2] = 1.0
        A[1, 0] = 1.0
        A[2, 1] = 1.0
        lam = eigenvalues(A)
        roots = [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)]
        for r in roots:
            assert np.min(np.abs(lam - r)) < 1e-12

    def test_eigen_residuals(self, rng):
        A = rng.normal(size=(11, 11))
        lam = eigenvalues(A)
        vals, vecs = np.linalg.eig(A)
        norm = np.linalg.norm(A)
        for i in range(11):
            res = np.linalg.norm(A @ vecs[:, i] - vals[i] * vecs[:, i])
            assert res <= 1e-8 * norm
        assert np.allclose(np.sort_complex(lam), np.sort_complex(vals))

    def test_diagonal_similarity_invariance(self, rng):
        A = rng.normal(size=(11, 11))
        d = rng.uniform(0.5, 2.0, 11)
        B = np.diag(d) @ A @ np.diag(1.0 / d)
        la = np.sort_complex(eigenvalues(A))
        lb = np.sort_complex(eigenvalues(B))
        assert np.abs(la - lb).max() < 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((3, 4)))
        with pytest.raises(ValueError):
            eigenvalues(np.full((2, 2), np.nan))
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3, 4)))
        stack = np.zeros((3, 4, 4))
        stack[1, 2, 3] = np.inf
        with pytest.raises(ValueError):
            eigenvalues(stack)

    def test_stack_is_per_matrix(self, rng):
        A = rng.normal(size=(40, 11, 11))
        lam = eigenvalues(A)
        for i in range(len(A)):
            assert (bits(lam[i]) == bits(np.linalg.eigvals(A[i]))).all()


class TestClassifyEquilibrium:
    @pytest.mark.parametrize("sid,pot", [
        ("2", 3.3), ("3", 3.3), ("6", 3.95), ("7", 4.1), ("8", 4.35),
    ])
    def test_unstable_families(self, sid, pot):
        rep = classify_equilibrium(sid, pot)
        assert rep.verdict is Verdict.UNSTABLE
        assert rep.max_real_part > 1e-7

    @pytest.mark.parametrize("sid,pot,pairs", [
        ("1", 2.5, 1), ("4", 3.35, 2), ("5", 3.75, 2), ("9", 4.65, 3),
        ("10", 6.0, 3),
    ])
    def test_centre_manifold_families(self, sid, pot, pairs):
        rep = classify_equilibrium(sid, pot)
        assert rep.verdict is Verdict.CENTRE_MANIFOLD_STABLE
        assert rep.max_real_part <= 1e-6
        assert rep.oscillatory_pairs == pairs

    def test_family_9_zero_mode_from_free_split(self):
        rep = classify_equilibrium("9", 4.65)
        assert rep.zero_modes >= 1

    def test_conjugate_pairing(self):
        rep = classify_equilibrium("5", 3.75)
        lam = np.array(rep.eigenvalues)
        for z in lam[lam.imag > 1e-9]:
            assert np.min(np.abs(lam - z.conjugate())) < 1e-9

    def test_eigenvalue_count_and_json(self):
        rep = classify_equilibrium("1", 2.5)
        assert len(rep.eigenvalues) == 11
        doc = rep.to_json()
        assert doc["verdict"] == "CentreManifoldStable"
        assert len(doc["eigenvalues"]) == 11
