"""Logistic regression: coefficient encoding, approximated-loss gradient
against finite differences, and training parity with a plaintext trainer."""

import numpy as np
import pytest

from privq import elgamal, encodings as enc
from privq.errors import Divergence
from privq.group import DlogTable, get_group
from privq.rng import Drbg


def test_a_coefficient_formula_examples():
    rng = Drbg("logreg")
    op = enc.OperationSpec("log_reg", feature_count=1, approx_degree=2)
    # single record x=2, y=1; tuple order: (1,(0,)),(1,(1,)),(2,(0,0)),(2,(0,1)),(2,(1,0)),(2,(1,1))
    raws, count = enc.plaintext_encode(op, [(2.0, 1)], rng)
    # tau=1 coefficient y - y*(-1) - 1 = 1;  tau=2 coefficient y - y - 1 = -1
    assert raws == [100, 200, -100, -200, -200, -400]
    raws0, _ = enc.plaintext_encode(op, [(3.0, 0)], rng)
    # y=0: tau=1 coeff -1; tau=2 coeff -1
    assert raws0 == [-100, -300, -100, -300, -300, -900]


def test_empty_records_neutral():
    rng = Drbg("logreg-empty")
    op = enc.OperationSpec("log_reg", feature_count=1, approx_degree=2)
    raws, count = enc.plaintext_encode(op, [], rng)
    assert raws == [0] * 6 and count == 0


def test_taylor_coefficients():
    coeffs = enc.logsigmoid_coeffs(2)
    assert coeffs[0] == pytest.approx(-np.log(2))
    assert coeffs[1] == pytest.approx(0.5)
    assert coeffs[2] == pytest.approx(-0.125)
    lsq = enc.logsigmoid_coeffs(2, method="lsq")
    assert lsq[1] > 0.0 and lsq[2] < 0.0  # same shape as the Taylor fit


def test_gradient_matches_finite_differences():
    """Central finite differences agree within 1e-6 relative error."""
    rng = Drbg("logreg-grad")
    op = enc.OperationSpec("log_reg", feature_count=2, approx_degree=2)
    records = [(0.5, -1.0, 1), (1.5, 0.25, 0), (-0.75, 2.0, 1), (0.1, 0.9, 0)]
    raws, count = enc.plaintext_encode(op, records, rng)
    a_values = [r / 100 for r in raws]
    coeffs = enc.logsigmoid_coeffs(2)
    rnd = np.random.default_rng(7)
    for _ in range(5):
        theta = rnd.normal(size=3)
        _, grad = enc.logreg_loss_and_grad(theta, a_values, count, 2, 2, 0.3, coeffs)
        for i in range(3):
            eps = 1e-6
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            lp, _ = enc.logreg_loss_and_grad(tp, a_values, count, 2, 2, 0.3, coeffs)
            lm, _ = enc.logreg_loss_and_grad(tm, a_values, count, 2, 2, 0.3, coeffs)
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - grad[i]) / max(1e-9, abs(grad[i])) < 1e-6


def test_approx_loss_tracks_true_loss():
    """J_a stays close to the exact logistic loss near the origin."""
    rng = Drbg("logreg-loss")
    rnd = np.random.default_rng(3)
    X = rnd.uniform(-2, 2, size=30)
    y = (rnd.uniform(size=30) < 1 / (1 + np.exp(X))).astype(int)
    op = enc.OperationSpec("log_reg", feature_count=1, approx_degree=2)
    raws, count = enc.plaintext_encode(op, [(float(a), int(b)) for a, b in zip(X, y)], rng)
    a_values = [r / 100 for r in raws]
    coeffs = enc.logsigmoid_coeffs(2)
    for theta in ([0.0, 0.0], [0.2, -0.4], [-0.3, 0.5]):
        z = theta[0] + theta[1] * X
        true_loss = float(np.mean(-y * (-np.logaddexp(0, z))
                                  - (1 - y) * (-np.logaddexp(0, -z))))
        approx, _ = enc.logreg_loss_and_grad(np.array(theta), a_values, count,
                                             1, 2, 0.0, coeffs)
        assert abs(approx - true_loss) < 0.08, (theta, approx, true_loss)


def test_zero_gradient_keeps_theta_zero():
    # A coefficients all zero: gradient at 0 stays 0, model stays 0
    model = enc.train_logreg([0.0] * 6, 4, 1, 2, lam=0.5)
    assert model.coefficients == [0.0, 0.0]


def test_training_deterministic():
    rng = Drbg("logreg-train")
    op = enc.OperationSpec("log_reg", feature_count=1, approx_degree=2)
    records = [(1.0, 1), (-1.0, 0), (2.0, 1), (-2.0, 0)]
    raws, count = enc.plaintext_encode(op, records, rng)
    a_values = [r / 100 for r in raws]
    m1 = enc.train_logreg(a_values, count, 1, 2, learning_rate=0.1, max_iter=50)
    m2 = enc.train_logreg(a_values, count, 1, 2, learning_rate=0.1, max_iter=50)
    assert m1.coefficients == m2.coefficients


def test_divergence_guard():
    with pytest.raises(Divergence):
        enc.train_logreg([1e9] * 6, 1, 1, 2, learning_rate=50.0, max_iter=200)


def _plaintext_gd(X, y, lr, iters, lam=0.0):
    """Oracle trainer: gradient descent on the exact logistic loss with the
    same hypothesis convention (h = 1/(1+exp(theta.x)))."""
    theta = np.zeros(X.shape[1] + 1)
    design = np.column_stack([np.ones(len(X)), X])
    n = len(X)
    for _ in range(iters):
        z = design @ theta
        h = 1.0 / (1.0 + np.exp(z))
        grad = design.T @ (y - h) / n
        grad[1:] += lam / n * theta[1:]
        theta = theta - lr * grad
    return theta


def _accuracy(theta, X, y):
    z = theta[0] + X @ np.asarray(theta[1:])
    return float(np.mean((z < 0).astype(int) == y))


def test_encrypted_training_matches_plaintext_trainer():
    """Separable toy set split over 10 DPs: aggregated-coefficients model
    within 2 accuracy points of the plaintext trainer."""
    rng = Drbg("logreg-e2e")
    rnd = np.random.default_rng(42)
    n, d = 200, 2
    X = rnd.normal(size=(n, d))
    y = (X[:, 0] - 0.5 * X[:, 1] + 0.3 * rnd.normal(size=n) < 0).astype(int)

    group = get_group("ed25519")
    kp = elgamal.KeyPair.generate(group, rng)
    table = DlogTable(group, 1 << 22)
    op = enc.OperationSpec("log_reg", feature_count=d, approx_degree=2)

    shards = np.array_split(np.arange(n), 10)
    agg_vector = None
    agg_count = None
    plain_fixed_sum = None
    for shard in shards:
        records = [(float(X[i, 0]), float(X[i, 1]), int(y[i])) for i in shard]
        resp, raws, _ = enc.encode_with_nonces(group, op, records, kp.public, rng,
                                               max_message=1 << 22)
        if agg_vector is None:
            agg_vector, agg_count = list(resp.vector), resp.count
            plain_fixed_sum = list(raws)
        else:
            agg_vector = [a + b for a, b in zip(agg_vector, resp.vector)]
            agg_count = agg_count + resp.count
            plain_fixed_sum = [a + b for a, b in zip(plain_fixed_sum, raws)]
    decrypted = [elgamal.decrypt(group, ct, kp.private, table) for ct in agg_vector]
    count = elgamal.decrypt(group, agg_count, kp.private, table)
    # encrypted aggregation is exact in fixed point
    assert decrypted == plain_fixed_sum
    assert count == n

    a_values = [v / 100 for v in decrypted]
    model = enc.train_logreg(a_values, count, d, 2, learning_rate=0.1, max_iter=100)
    theta_plain = _plaintext_gd(X, y, lr=0.1, iters=100)
    acc_model = _accuracy(model.coefficients, X, y)
    acc_plain = _accuracy(theta_plain, X, y)
    assert abs(acc_model - acc_plain) <= 0.02, (acc_model, acc_plain)
    assert acc_model > 0.85


def test_prediction_convention():
    model = enc.RegressionModel("logistic", [0.0, -2.0])
    assert enc.predict_logreg(model, (1.0,)) == 1  # theta.x = -2 < 0 -> 1
    assert enc.predict_logreg(model, (-1.0,)) == 0
