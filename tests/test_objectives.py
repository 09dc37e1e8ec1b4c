from fractions import Fraction

import numpy as np
import pytest

from pushopt import (
    LabeledDataset,
    QuadraticSuite,
    global_minimizer,
    load_labeled_csv,
    make_logistic_suite,
    make_quadratic_suite,
    standardize_features,
    synthetic_logistic_dataset,
    write_labeled_csv,
)
from pushopt.experiments import (
    REPRO_AGENTS,
    REPRO_DATA_SEED,
    REPRO_PARTITION_SEED,
)


def repro_suite(mu):
    """The n = 20 logistic problem of `pushopt reproduce` on synthetic data."""
    data = synthetic_logistic_dataset(1000, 4, seed=REPRO_DATA_SEED)
    return make_logistic_suite(data, REPRO_AGENTS, mu, REPRO_PARTITION_SEED)


def fd_gradient(fun, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def test_isotropic_quadratic_minimizer_is_mean():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((6, 4))
    H = np.repeat(np.eye(4)[None], 6, axis=0)
    suite = QuadraticSuite(H=H, b=c, L=1.0, mu=1.0)
    xstar, _ = global_minimizer(suite)
    assert np.allclose(xstar, c.mean(axis=0), atol=1e-12)


def test_kappa_one_means_equal_constants():
    suite = make_quadratic_suite(4, 3, 1.0, 0.7, 2)
    assert suite.L == suite.mu == pytest.approx(0.7)


def test_quadratic_constants_match_eigensolver():
    suite = make_quadratic_suite(10, 5, 100.0, 0.01, 3)
    lmaxs = [np.linalg.eigvalsh(suite.H[i]).max() for i in range(10)]
    lmins = [np.linalg.eigvalsh(suite.H[i]).min() for i in range(10)]
    assert suite.L == pytest.approx(max(lmaxs), rel=1e-10)
    assert suite.mu == pytest.approx(min(lmins), rel=1e-10)
    assert suite.mu <= suite.L


def test_quadratic_closed_form_vs_linear_solve_oracle():
    suite = make_quadratic_suite(10, 5, 100.0, 0.01, 3)
    xstar, fstar = global_minimizer(suite)
    oracle = np.linalg.lstsq(suite.mean_H, suite.mean_b, rcond=None)[0]
    assert np.abs(xstar - oracle).max() <= 1e-10
    assert fstar <= suite.average_value(oracle + 1e-3) + 1e-12


def test_quadratic_iterative_matches_closed_form():
    suite = make_quadratic_suite(8, 4, 50.0, 0.05, 9)
    xc, fc = global_minimizer(suite)
    xi, fi = global_minimizer(suite, force_iterative=True)
    assert np.abs(xc - xi).max() <= 1e-10
    assert abs(fc - fi) <= 1e-10


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_gradients_match_finite_differences(kind):
    if kind == "quadratic":
        suite = make_quadratic_suite(5, 4, 20.0, 0.1, 1)
    else:
        suite = make_logistic_suite(synthetic_logistic_dataset(200, 4, 3), 5, 0.05, 1)
    rng = np.random.default_rng(4)
    for _ in range(20):
        i = int(rng.integers(suite.n))
        x = rng.standard_normal(suite.dim)
        g = suite.grad(i, x)
        fd = fd_gradient(lambda y: suite.value(i, y), x)
        assert np.abs(g - fd).max() <= 1e-5 * (1 + np.abs(fd).max())


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_convexity_and_smoothness_spot_checks(kind):
    if kind == "quadratic":
        suite = make_quadratic_suite(5, 4, 20.0, 0.1, 1)
    else:
        suite = make_logistic_suite(synthetic_logistic_dataset(200, 4, 3), 5, 0.05, 1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        i = int(rng.integers(suite.n))
        x = rng.standard_normal(suite.dim)
        y = rng.standard_normal(suite.dim)
        gap = suite.value(i, y) - suite.value(i, x) - suite.grad(i, x) @ (y - x)
        assert gap >= -1e-9
        dg = np.linalg.norm(suite.grad(i, x) - suite.grad(i, y))
        assert dg <= suite.L * np.linalg.norm(x - y) * (1 + 1e-9)


def test_partition_is_even_and_covers_once():
    data = synthetic_logistic_dataset(1003, 4, 8)
    suite = make_logistic_suite(data, 20, 0.0, 4)
    sizes = [Z.shape[0] for Z, _ in suite.shards]
    assert sum(sizes) == 1003
    assert max(sizes) - min(sizes) <= 1
    # every row appears exactly once
    stacked = np.vstack([Z for Z, _ in suite.shards])
    assert sorted(map(tuple, stacked)) == sorted(map(tuple, data.features))


def test_logistic_constant_formula():
    data = synthetic_logistic_dataset(100, 4, 8)
    suite = make_logistic_suite(data, 4, 0.05, 4)
    worst = max(0.25 * (Z**2).sum() for Z, _ in suite.shards)
    assert suite.L == pytest.approx(worst + 0.05)
    assert suite.mu == pytest.approx(0.05)


def test_logistic_rejects_oversized_agent_count():
    data = synthetic_logistic_dataset(10, 4, 8)
    with pytest.raises(ValueError):
        make_logistic_suite(data, 11, 0.0, 0)


def test_symmetric_dataset_minimizer_at_origin():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((80, 3))
    feats = np.vstack([z, -z])
    labels = np.concatenate([np.ones(80), np.ones(80)])
    data = LabeledDataset(feats, labels)
    suite = make_logistic_suite(data, 8, 0.05, 2)
    xstar, _ = global_minimizer(suite, tol=1e-12)
    assert np.linalg.norm(xstar) <= 1e-12 / 0.05 + 1e-12


def test_csv_row_mapping(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("3.6,8.6,-2.8,-0.44,0\n1,2,3,4,1\n", encoding="utf-8")
    data = load_labeled_csv(path)
    assert np.allclose(data.features[0], [3.6, 8.6, -2.8, -0.44])
    assert data.labels[0] == -1.0
    assert data.labels[1] == 1.0


def test_csv_header_skipped_and_order_preserved(tmp_path):
    path = tmp_path / "rows.csv"
    lines = ["variance,skewness,curtosis,entropy,class"]
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((50, 4))
    for i, v in enumerate(vals):
        lines.append(",".join(f"{x:.6f}" for x in v) + f",{i % 2}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    data = load_labeled_csv(path)
    assert len(data) == 50
    assert np.allclose(data.features, np.round(vals, 6), atol=1e-9)


def test_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0\n3.0,oops,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        load_labeled_csv(path)
    short = tmp_path / "short.csv"
    short.write_text("1.0,2.0,0\n3.0,4.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        load_labeled_csv(short)


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        load_labeled_csv(path)


def test_csv_round_trip(tmp_path):
    data = synthetic_logistic_dataset(60, 4, 12)
    path = tmp_path / "out.csv"
    write_labeled_csv(data, path)
    back = load_labeled_csv(path)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


def test_standardize_features():
    data = synthetic_logistic_dataset(500, 4, 1)
    std = standardize_features(data)
    assert np.abs(std.features.mean(axis=0)).max() <= 1e-12
    assert np.abs(std.features.std(axis=0) - 1).max() <= 1e-12
    assert np.array_equal(std.labels, data.labels)


def test_minimizer_cap_reports_gradient_norm():
    suite = make_logistic_suite(synthetic_logistic_dataset(200, 4, 3), 5, 0.05, 1)
    with pytest.raises(RuntimeError, match="gradient norm"):
        global_minimizer(suite, tol=1e-14, max_iter=3)


def test_quadratic_gap_matches_exact_form():
    suite = make_quadratic_suite(10, 5, 100.0, 0.01, 3)
    xstar, _ = global_minimizer(suite)
    H = [[Fraction(h) for h in row] for row in suite.mean_H]
    b = [Fraction(v) for v in suite.mean_b]

    def f(x):  # the average objective in exact rational arithmetic
        x = [Fraction(v) for v in x]
        quad = sum(x[i] * H[i][j] * x[j] for i in range(5) for j in range(5))
        return quad / 2 - sum(bi * xi for bi, xi in zip(b, x))

    rng = np.random.default_rng(1)
    fstar = f(xstar)
    assert np.array_equal(suite.gap_values(xstar[None, :], xstar), [0.0])
    for scale in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-11):
        rows = xstar + scale * rng.standard_normal((3, 5))
        exact = np.array([float(f(r) - fstar) for r in rows])
        gaps = suite.gap_values(rows, xstar)
        assert (gaps > 0).all()
        assert np.abs(gaps - exact).max() <= 1e-13 * exact.min()


@pytest.mark.parametrize("mu", [0.05, 0.0])
def test_logistic_gap_matches_second_order_model(mu):
    suite = repro_suite(mu)
    xstar, _ = global_minimizer(suite)
    H = suite.average_hessian(xstar)
    g = suite.average_grad(xstar)
    assert np.array_equal(suite.gap_values(xstar[None, :], xstar), [0.0])
    rng = np.random.default_rng(2)
    for target in (1e-8, 1e-10, 1e-12, 1e-14, 1e-16, 1e-18, 1e-20):
        D = rng.standard_normal((4, suite.dim))
        D *= np.sqrt(2 * target / np.einsum("ri,ij,rj->r", D, H, D))[:, None]
        rows = xstar + D
        D = rows - xstar  # the displacement as the suite sees it
        model = 0.5 * np.einsum("ri,ij,rj->r", D, H, D) + D @ g
        gaps = suite.gap_values(rows, xstar)
        assert (gaps > 0).all()
        assert np.abs(gaps / model - 1).max() <= 1e-4, target


@pytest.mark.parametrize("mu", [0.05, 0.0])
def test_logistic_gap_far_from_minimizer_matches_direct_difference(mu):
    suite = repro_suite(mu)
    xstar, fstar = global_minimizer(suite)
    rows = xstar + 3.0 * np.random.default_rng(3).standard_normal((5, suite.dim))
    dt = (rows - xstar) @ np.vstack([lam[:, None] * Z for Z, lam in suite.shards]).T
    assert (np.abs(dt) >= 1).any() and (np.abs(dt) < 1).any()
    direct = suite.average_values(rows) - fstar
    assert np.allclose(suite.gap_values(rows, xstar), direct, rtol=1e-12, atol=0)


@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_stacked_gradients_match_per_agent_on_uneven_shards(mu):
    suite = make_logistic_suite(synthetic_logistic_dataset(1003, 4, 8), 20, mu, 4)
    assert len({Z.shape[0] for Z, _ in suite.shards}) == 2  # zero-padded
    U = 2.0 * np.random.default_rng(6).standard_normal((20, 4))
    ref = np.stack([suite.grad(i, U[i]) for i in range(20)])
    err = np.abs(suite.batch_grad(U) - ref).max()
    assert err <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("mu", [0.05, 0.0])
def test_newton_minimizer_reaches_gradient_floor(mu):
    suite = repro_suite(mu)
    xstar, fstar = global_minimizer(suite)
    assert np.linalg.norm(suite.average_grad(xstar)) <= 1e-14
    per_agent = np.mean([suite.grad(i, xstar) for i in range(suite.n)], axis=0)
    assert np.linalg.norm(per_agent) <= 1e-13
    assert fstar == suite.average_value(xstar)
