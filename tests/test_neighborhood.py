import numpy as np
import pytest

from knncompress import neighborhood as nb
from knncompress.errors import DimensionMismatch, EmptyPrototypeSet


def match(train_labels, prototype_labels):
    return np.asarray(train_labels)[:, None] == np.asarray(prototype_labels)


D3 = np.array([[0.1, 2.0, 3.0],
               [1.5, 0.2, 0.4],
               [2.0, 0.3, 0.1]])
MATCH3 = match([0, 1, 1], [0, 1, 1])


def coeffs(D, M, gamma_sq):
    return nb.gradient_coeffs(*nb.assign(D, M, gamma_sq), M, gamma_sq)


class TestAssignmentProbs:
    def test_rows_sum_to_one(self):
        P, _ = nb.assign(D3, MATCH3, 1.0)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert np.all(P > 0)

    def test_hand_computed(self):
        P, correct = nb.assign(np.array([[1.0, 3.0]]), match([0], [0, 1]),
                               2.0)
        e = np.exp(np.array([-2.0, -6.0]))
        assert np.allclose(P, e / e.sum())
        assert correct == pytest.approx(P[0, 0])

    def test_large_gamma_concentrates(self):
        P, _ = nb.assign(D3, MATCH3, 200.0)
        assert P[0, 0] > 0.999
        assert P[2, 2] > 0.999

    def test_overflow_safe(self):
        P, _ = nb.assign(np.array([[1e4, 2e4]]), match([0], [0, 1]), 1.0)
        assert np.all(np.isfinite(P))
        assert P[0, 0] == pytest.approx(1.0)


class TestKlLoss:
    def test_perfect_assignment_near_zero(self):
        assert nb.kl_loss(nb.assign(D3, MATCH3, 500.0)[1]) < 1e-6

    def test_hand_value(self):
        _, correct = nb.assign(np.array([[1.0, 1.0]]), match([0], [0, 1]),
                               1.0)
        # equidistant prototypes, one correct: p_0 = 0.5
        assert nb.kl_loss(correct) == pytest.approx(np.log(2.0))

    def test_no_correct_prototype_floored(self):
        _, correct = nb.assign(np.array([[1.0]]), match([0], [1]), 1.0)
        loss = nb.kl_loss(correct)
        assert np.isfinite(loss)
        assert loss > 100


class TestGradientCoeffs:
    def test_rows_sum_to_zero(self):
        C = coeffs(D3, MATCH3, 1.0)
        assert np.allclose(C.sum(axis=1), 0.0, atol=1e-12)

    def test_saturated_rows_vanish(self):
        C = coeffs(D3, MATCH3, 500.0)
        assert np.max(np.abs(C)) < 1e-6

    def test_matches_loss_finite_differences(self):
        rng = np.random.default_rng(0)
        D = rng.uniform(0.1, 2.0, size=(6, 4))
        M = match([0, 1, 0, 1, 0, 1], [0, 0, 1, 1])
        for gsq in (0.5, 2.0):
            C = coeffs(D, M, gsq)
            h = 1e-6
            for i, j in [(0, 0), (2, 3), (5, 1)]:
                Dp, Dm = D.copy(), D.copy()
                Dp[i, j] += h
                Dm[i, j] -= h
                fd = (nb.kl_loss(nb.assign(Dp, M, gsq)[1])
                      - nb.kl_loss(nb.assign(Dm, M, gsq)[1])) / (2 * h)
                assert C[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestSelectGammaSq:
    @pytest.mark.parametrize("D", [np.zeros(3), np.zeros((3, 2))])
    def test_bad_distance_shape(self, D):
        # a ValidationError, so the CLI exits 2 instead of a traceback
        with pytest.raises(DimensionMismatch):
            nb.select_gamma_sq(D, np.array([0, 1, 1]), np.array([0, 1, 1]))

    def test_no_prototypes(self):
        with pytest.raises(EmptyPrototypeSet):
            nb.select_gamma_sq(np.zeros((3, 0)), np.array([], dtype=int),
                               np.array([0, 1, 1]))

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
        M = match(tlab, plab)
        losses = {g: nb.kl_loss(nb.assign(D, M, g)[1])
                  for g in (2.0 ** k / med for k in range(-4, 5))}
        assert nb.kl_loss(nb.assign(D, M, gsq)[1]) \
            == pytest.approx(min(losses.values()))
