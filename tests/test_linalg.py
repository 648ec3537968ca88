import numpy as np
import pytest

from mfs2d import DegenerateSystemError, NumericalError, cond2, lstsq, svd_thin


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (r.diagonal() / np.abs(r.diagonal()))[None, :]


class TestSvdThin:
    def test_identity(self):
        _, s, _ = svd_thin(np.eye(3))
        assert np.allclose(s, 1.0)

    def test_diagonal(self):
        _, s, _ = svd_thin(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0])

    def test_random_complex_residuals(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, (20, 30))
        u, s, vh = svd_thin(a)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        recon = u @ np.diag(s) @ vh
        assert np.linalg.norm(a - recon) <= 1e-13 * np.linalg.norm(a)
        assert np.max(np.abs(u.conj().T @ u - np.eye(20))) <= 1e-12
        assert np.max(np.abs(vh @ vh.conj().T - np.eye(20))) <= 1e-12

    def test_singular_values_unitary_invariant(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, (15, 12))
        s = svd_thin(a)[1]
        s2 = svd_thin(random_unitary(rng, 15) @ a @ random_unitary(rng, 12))[1]
        assert np.allclose(s, s2, rtol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd_thin(np.array([[1.0, np.nan]]))


class TestLstsq:
    def test_identity_system(self):
        b = np.array([1.0, -2.0, 0.5])
        assert np.allclose(lstsq(np.eye(3), b), b)

    def test_consistent_overdetermined(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, (12, 5))
        x0 = random_complex(rng, 5)
        b = a @ x0
        x = lstsq(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_against_normal_equations(self):
        # well-conditioned 4x2 instance solved exactly via the normal equations
        a = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        b = np.array([0.5, 1.0, 1.2, 2.1])
        oracle = np.linalg.solve(a.T @ a, a.T @ b)
        assert np.allclose(lstsq(a, b), oracle, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, (30, 8))
        b = random_complex(rng, 30)
        x = lstsq(a, b)
        resid = np.linalg.norm(a.conj().T @ (a @ x - b))
        assert resid <= 1e-10 * np.linalg.norm(a, 2) * np.linalg.norm(b)

    def test_minimum_norm_on_rank_deficient(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        x = lstsq(a, np.array([3.0, 3.0, 3.0]))
        assert np.allclose(x, [1.5, 1.5], atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            lstsq(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            lstsq(np.ones((3, 2)), np.ones(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            lstsq(np.ones((3, 2)), np.array([1.0, np.inf, 0.0]))


class TestCond2:
    def test_identity(self):
        assert cond2(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert cond2(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            cond2(np.zeros((3, 3)))

    def test_infinity_sentinel(self):
        assert cond2(np.diag([1.0, 1e-310])) == np.inf

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            cond2(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_against_power_iteration_oracle(self):
        # independent route: norm of A and of inv(A) via power iteration
        rng = np.random.default_rng(4)
        a = random_complex(rng, (50, 50))

        def two_norm(mat):
            v = random_complex(rng, 50)
            v /= np.linalg.norm(v)
            lam = 0.0
            g = mat.conj().T @ mat
            for _ in range(200000):
                w = g @ v
                new = float(np.real(np.vdot(v, w)))
                v = w / np.linalg.norm(w)
                if abs(new - lam) <= 1e-13 * new:
                    return np.sqrt(new)
                lam = new
            return np.sqrt(lam)

        oracle = two_norm(a) * two_norm(np.linalg.inv(a))
        assert cond2(a) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: svd_thin(np.array([[1.0, np.nan]])),
        lambda: lstsq(np.ones((3, 2)), np.array([1.0, np.inf, 0.0])),
        lambda: cond2(np.array([[np.nan, 1.0], [0.0, 1.0]])),
        lambda: cond2(np.zeros((3, 3))),
    ],
    ids=["svd_nan", "lstsq_inf", "cond2_nan", "cond2_zero"],
)
def test_degenerate_system_is_a_numerical_error(call):
    # a sweep records NumericalError cells as errors and carries on
    with pytest.raises(DegenerateSystemError) as info:
        call()
    assert isinstance(info.value, NumericalError) and isinstance(info.value, ValueError)


def test_shape_misuse_stays_a_plain_value_error():
    with pytest.raises(ValueError) as info:
        lstsq(np.ones((2, 3)), np.ones(2))
    assert not isinstance(info.value, NumericalError)
