import numpy as np
import pytest

from knncompress import neighborhood as nb
from knncompress.errors import DimensionMismatch, EmptyPrototypeSet


def make_model(gamma_sq=1.0):
    D = np.array([[0.1, 2.0, 3.0],
                  [1.5, 0.2, 0.4],
                  [2.0, 0.3, 0.1]])
    return nb.NeighborhoodModel(gamma_sq, np.array([0, 1, 1]),
                                np.array([0, 1, 1]), D)


class TestModel:
    @pytest.mark.parametrize("D", [np.zeros(3), np.zeros((3, 2))])
    def test_bad_distance_shape(self, D):
        # a ValidationError, so the CLI exits 2 instead of a traceback
        with pytest.raises(DimensionMismatch):
            nb.NeighborhoodModel(1.0, np.array([0, 1, 1]),
                                 np.array([0, 1, 1]), D)


    def test_no_prototypes(self):
        with pytest.raises(EmptyPrototypeSet):
            nb.NeighborhoodModel(1.0, np.array([], dtype=int),
                                 np.array([0, 1, 1]), np.zeros((3, 0)))


class TestAssignmentProbs:
    def test_rows_sum_to_one(self):
        P = make_model().probs
        assert np.allclose(P.sum(axis=1), 1.0)
        assert np.all(P > 0)

    def test_hand_computed(self):
        model = nb.NeighborhoodModel(2.0, np.array([0, 1]), np.array([0]),
                                     np.array([[1.0, 3.0]]))
        e = np.exp(np.array([-2.0, -6.0]))
        assert np.allclose(model.probs, e / e.sum())

    def test_large_gamma_concentrates(self):
        P = make_model(gamma_sq=200.0).probs
        assert P[0, 0] > 0.999
        assert P[2, 2] > 0.999

    def test_overflow_safe(self):
        model = nb.NeighborhoodModel(
            1.0, np.array([0, 1]), np.array([0]),
            np.array([[1e4, 2e4]]))
        P = model.probs
        assert np.all(np.isfinite(P))
        assert P[0, 0] == pytest.approx(1.0)


class TestKlLoss:
    def test_perfect_assignment_near_zero(self):
        assert nb.kl_loss(make_model(gamma_sq=500.0)) < 1e-6

    def test_hand_value(self):
        model = nb.NeighborhoodModel(1.0, np.array([0, 1]), np.array([0]),
                                     np.array([[1.0, 1.0]]))
        # equidistant prototypes, one correct: p_0 = 0.5
        assert nb.kl_loss(model) == pytest.approx(np.log(2.0))

    def test_no_correct_prototype_floored(self):
        model = nb.NeighborhoodModel(1.0, np.array([1]), np.array([0]),
                                     np.array([[1.0]]))
        loss = nb.kl_loss(model)
        assert np.isfinite(loss)
        assert loss > 100


class TestGradientCoeffs:
    def test_rows_sum_to_zero(self):
        C = nb.gradient_coeffs(make_model())
        assert np.allclose(C.sum(axis=1), 0.0, atol=1e-12)

    def test_saturated_rows_vanish(self):
        C = nb.gradient_coeffs(make_model(gamma_sq=500.0))
        assert np.max(np.abs(C)) < 1e-6

    def test_matches_loss_finite_differences(self):
        rng = np.random.default_rng(0)
        D = rng.uniform(0.1, 2.0, size=(6, 4))
        plab = np.array([0, 0, 1, 1])
        tlab = np.array([0, 1, 0, 1, 0, 1])
        for gsq in (0.5, 2.0):
            model = nb.NeighborhoodModel(gsq, plab, tlab, D)
            C = nb.gradient_coeffs(model)
            h = 1e-6
            for i, j in [(0, 0), (2, 3), (5, 1)]:
                Dp, Dm = D.copy(), D.copy()
                Dp[i, j] += h
                Dm[i, j] -= h
                fd = (nb.kl_loss(nb.NeighborhoodModel(gsq, plab, tlab, Dp))
                      - nb.kl_loss(nb.NeighborhoodModel(gsq, plab, tlab, Dm))
                      ) / (2 * h)
                assert C[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestSelectGammaSq:
    def test_grid_member(self):
        rng = np.random.default_rng(1)
        D = rng.uniform(0.1, 3.0, size=(20, 5))
        plab = np.array([0, 0, 1, 1, 2])
        tlab = rng.integers(0, 3, size=20)
        gsq = nb.select_gamma_sq(D, plab, tlab)
        med = np.median(D)
        grid = [2.0 ** k / med for k in range(-4, 5)]
        assert any(gsq == pytest.approx(g) for g in grid)

    def test_picks_lowest_loss(self):
        rng = np.random.default_rng(2)
        D = rng.uniform(0.1, 3.0, size=(20, 5))
        plab = np.array([0, 0, 1, 1, 2])
        tlab = rng.integers(0, 3, size=20)
        gsq = nb.select_gamma_sq(D, plab, tlab)
        med = np.median(D)
        losses = {g: nb.kl_loss(nb.NeighborhoodModel(g, plab, tlab, D))
                  for g in (2.0 ** k / med for k in range(-4, 5))}
        assert nb.kl_loss(nb.NeighborhoodModel(gsq, plab, tlab, D)) \
            == pytest.approx(min(losses.values()))
