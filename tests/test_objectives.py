import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pushopt import (
    LabeledDataset,
    ObjectiveSuite,
    QuadraticSuite,
    global_minimizer,
    load_labeled_csv,
    make_logistic_suite,
    make_quadratic_suite,
    standardize_features,
    synthetic_logistic_dataset,
    write_labeled_csv,
)
from pushopt import objectives
from pushopt.experiments import (
    REPRO_AGENTS,
    REPRO_DATA_SEED,
    REPRO_PARTITION_SEED,
)
from pushopt.objectives import LogisticSuite, _log1pexp, _row_slices, _sigmoid


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


def _quadratic_suite_per_agent(n, dim, kappa, mu_base, seed):
    """make_quadratic_suite's H and b drawn and built one agent at a time."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    H = np.empty((n, dim, dim))
    for i in range(n):
        eigs = rng.uniform(mu_base, mu_base * kappa, size=dim)
        eigs[0] = mu_base
        eigs[-1] = mu_base * kappa
        H[i] = (Q * eigs) @ Q.T
        H[i] = 0.5 * (H[i] + H[i].T)
    return H, rng.standard_normal((n, dim))


@pytest.mark.parametrize(
    "n,dim,kappa,seed",
    [(1, 5, 100.0, 0), (5, 5, 100.0, 3), (400, 5, 100.0, 11), (10, 3, 10.0, 2),
     (20, 2, 50.0, 7), (7, 8, 1000.0, 1), (4, 1, 1.0, 5)],
)
def test_quadratic_suite_matches_per_agent_loop(n, dim, kappa, seed):
    """The batched draw and products give the per-agent loop's H and b bit
    for bit."""
    suite = make_quadratic_suite(n, dim, kappa, 0.01, seed)
    H, b = _quadratic_suite_per_agent(n, dim, kappa, 0.01, seed)
    assert np.array_equal(suite.H, H)
    assert np.array_equal(suite.b, b)


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
    xi, fi = ObjectiveSuite.minimizer(suite)  # damped Newton on the quadratic
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
    xstar, _ = global_minimizer(suite)
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


@pytest.mark.parametrize("field, col", [("x1.5", 1), ("nan", 2), ("inf", 4), ("-inf", 1), ("y", 5)])
def test_csv_rejects_non_finite_or_non_numeric_field_past_the_first_line(
    tmp_path, field, col
):
    """Only the first line may be a header. In a 1000-row file, a later
    field that is not a finite number is an error naming path:line and the
    column; the row is neither skipped nor loaded."""
    path = tmp_path / "rows.csv"
    write_labeled_csv(synthetic_logistic_dataset(1000, 4, 3), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[499].split(",")
    fields[col - 1] = field
    lines[499] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_labeled_csv(path)
    assert str(excinfo.value) == f"{path}:500: column {col}: {field!r} is not a finite number"


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


def test_minimizer_cap_reports_gradient_norm(monkeypatch):
    suite = make_logistic_suite(synthetic_logistic_dataset(200, 4, 3), 5, 0.05, 1)
    monkeypatch.setattr(objectives, "_NEWTON_MAX_ITER", 3)
    with pytest.raises(RuntimeError, match="in 3 iterations .final gradient norm"):
        global_minimizer(suite)


def test_global_minimizer_takes_only_the_suite():
    assert list(inspect.signature(global_minimizer).parameters) == ["suite"]


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


def _two_branch_sigmoid(t):
    """The masked reference form: 1 / (1 + exp(-t)) for t >= 0, else
    exp(t) / (1 + exp(t))."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def test_sigmoid_equals_two_branch_form_bitwise():
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0]
    )
    rng = np.random.default_rng(11)
    draws = [s * rng.standard_normal(1000) for s in (1e-8, 1e-4, 1.0, 10.0, 100.0)]
    for t in [special, *draws, rng.standard_normal((20, 50))]:
        got, want = _sigmoid(t), _two_branch_sigmoid(t)
        assert got.shape == t.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_row_slices_cover_rows_without_lone_rows():
    for examples in (1000, 5000, 20_000, 100_000):
        cap = max(3, 2**15 // examples)
        for rows in range(0, 150):
            slices = _row_slices(rows, examples)
            assert [a for a, _ in slices[1:]] == [b for _, b in slices[:-1]]
            assert sum(b - a for a, b in slices) == rows
            assert all(0 < b - a <= cap for a, b in slices)
            assert rows == 1 or all(b - a > 1 for a, b in slices)


@pytest.mark.parametrize("mu", [0.05, 0.0])
def test_sliced_suite_values_equal_row_by_row(mu):
    """gap_values and average_values on a stack of 3 full slices plus 5 rows,
    mixing rows near x* and far from it, equal each row's own value bit for
    bit; each row is evaluated paired with a copy of itself, since numpy
    takes a lone row through a matrix-vector product that rounds
    differently."""
    suite = repro_suite(mu)
    xstar, _ = global_minimizer(suite)
    rng = np.random.default_rng(4)
    per_slice = 2**15 // len(suite._LZ_all)
    rows = xstar + 1e-6 * rng.standard_normal((3 * per_slice + 5, suite.dim))
    rows[::3] = xstar + 3.0 * rng.standard_normal((len(rows[::3]), suite.dim))
    far = np.abs((rows - xstar) @ suite._LZ_all.T).max(axis=1) >= 1.0
    assert far.any() and not far.all()
    # Near rows with every third one moved out to max |dt| = 0.9: each slice
    # is scanned, since those rows reach past 1, but holds no far entry.
    clean = xstar + 1e-6 * rng.standard_normal((per_slice + 5, suite.dim))
    moved = rng.standard_normal((len(clean[::3]), suite.dim))
    moved *= 0.9 / np.abs(moved @ suite._LZ_all.T).max(axis=1)[:, None]
    clean[::3] = xstar + moved
    reach = suite._reach(clean - xstar)
    assert all(reach[a:b].max() >= 1.0 for a, b in _row_slices(len(clean), len(suite._LZ_all)))
    assert (reach < 1.0).any()
    assert np.abs((clean - xstar) @ suite._LZ_all.T).max() < 1.0
    for values in (lambda r: suite.gap_values(r, xstar), suite.average_values):
        for stack in (rows, clean):
            stacked = values(stack)
            alone = np.array([values(stack[[i, i]])[0] for i in range(len(stack))])
            assert np.array_equal(stacked, alone)


def test_suite_values_of_zero_rows_are_empty():
    suite = repro_suite(0.05)
    xstar, _ = global_minimizer(suite)
    none = np.empty((0, suite.dim))
    for values in (suite.gap_values(none, xstar), suite.average_values(none)):
        assert values.shape == (0,)


def _scanning_gap_values(suite, rows, xstar):
    """LogisticSuite.gap_values in its earlier form, which scans every slice
    for far entries and negates the product in a pass of its own; the
    current kernel must equal it bit for bit."""
    xstar, t_star, s_star, l_star = suite._reference(xstar)
    D = rows - xstar
    sums = np.empty(len(D))
    for a, b in _row_slices(len(D), len(t_star)):
        dT = D[a:b] @ suite._LZ_all.T
        far = np.abs(dT) >= 1.0
        any_far = far.any()
        terms = np.negative(dT)
        if any_far:
            np.clip(terms, -1.0, 1.0, out=terms)
        np.expm1(terms, out=terms)
        terms *= s_star
        np.log1p(terms, out=terms)
        if any_far:
            _, cols_far = np.nonzero(far)
            terms[far] = _log1pexp(-t_star[cols_far] - dT[far]) - l_star[cols_far]
        sums[a:b] = terms.sum(axis=1)
    reg = 0.5 * suite.mu * (D * (rows + xstar)).sum(axis=1)
    return sums / suite.n + reg


def _assert_gap_equals_scanning(suite, rows, xstar):
    with np.errstate(invalid="ignore", over="ignore"):
        got = suite.gap_values(rows, xstar)
        want = _scanning_gap_values(suite, rows, xstar)
    assert got.shape == want.shape == (len(rows),)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("dim", [1, 2, 4, 7])
def test_logistic_gap_equals_scanning_kernel_bitwise(dim):
    suite = make_logistic_suite(synthetic_logistic_dataset(300, dim, dim), 6, 0.05, 1)
    xstar, _ = global_minimizer(suite)
    rng = np.random.default_rng(30 + dim)
    per_slice = 2**15 // len(suite._LZ_all)
    near = xstar + 1e-6 * rng.standard_normal((2 * per_slice + 7, dim))
    far = xstar + 3.0 * rng.standard_normal((40, dim))
    mixed = near[:30].copy()
    mixed[::4] = far[: len(mixed[::4])]
    # Along the largest lam z, just short of |dt| = 1: reach passes 1 in
    # every dimension, Cauchy-Schwarz being tight there, so the slice is
    # scanned and finds nothing.
    LZ = suite._LZ_all
    top = LZ[np.argmax((LZ * LZ).sum(axis=1))]
    edge = np.outer([1.0, -1.0, 1.0], top) * ((1.0 - 2.0**-51) / (top @ top))
    zero = np.zeros(dim)
    assert (suite._reach(edge) >= 1.0).all()
    assert np.abs(edge @ LZ.T).max() < 1.0
    assert (suite._reach(near - xstar) < 1.0).all()
    assert (np.abs((far - xstar) @ LZ.T) >= 1.0).any()
    nan_row, inf_row = xstar.copy(), xstar.copy()
    nan_row[0], inf_row[-1] = np.nan, np.inf
    nan_among_far = far[:5].copy()
    nan_among_far[2] = nan_row
    cases = [
        (near, xstar),
        (far, xstar),
        (mixed, xstar),
        (edge, zero),
        (np.vstack([near[:5], nan_row[None, :], near[5:9]]), xstar),
        (np.vstack([near[:5], inf_row[None, :], near[5:9]]), xstar),
        (nan_among_far, xstar),
        (near[:1], xstar),
        (far[:1], xstar),
        (edge[:1], zero),
        (near[:0], xstar),
    ]
    for rows, ref in cases:
        _assert_gap_equals_scanning(suite, rows, ref)


@pytest.mark.parametrize("scale", [1.0, 2.0**-600, 2.0**600])
def test_logistic_gap_at_dt_exactly_one_equals_scanning_kernel(scale):
    """Unit features moved by 1.0 give |dt| = 1 exactly; scaling features by
    a power of two and rows by its inverse keeps every dt, while squares of
    the features underflow or overflow."""
    features = scale * np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.25], [-1.0, 0.0]])
    labels = np.array([1.0, -1.0, 1.0, 1.0])
    with np.errstate(over="ignore"):  # L overflows at the largest scale
        suite = make_logistic_suite(LabeledDataset(features, labels), 2, 0.0, 0)
    zero = np.zeros(2)
    rows = np.array([[1.0, 0.0], [0.0, -1.0], [0.5, 0.5], [1.0, 0.0]]) / scale
    dt = rows @ suite._LZ_all.T
    assert (np.abs(dt) == 1.0).any() and (np.abs(dt) < 1.0).any()
    for stack in (rows, rows[:1], rows[2:3]):
        _assert_gap_equals_scanning(suite, stack, zero)


@st.composite
def _suite_and_displacements(draw):
    """A random one-agent suite and displacements, each scaled so that its
    reach is a few units in the last place below 1, most of them along the
    suite's largest lam z, where Cauchy-Schwarz is tight."""
    dim = draw(st.integers(1, 8))
    examples = draw(st.integers(1, 40))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    Z = draw(arrays(float, (examples, dim), elements=unit))
    Z[0, 0] = 1.0  # keeps max_e ||lam_e z_e|| positive
    Z *= 2.0 ** draw(st.integers(-20, 20))
    lam = np.where(draw(arrays(bool, examples)), 1.0, -1.0)
    suite = LogisticSuite([(Z, lam)], mu=0.0)
    LZ = suite._LZ_all
    top = LZ[np.argmax((LZ * LZ).sum(axis=1))]
    D = draw(arrays(float, (draw(st.integers(1, 6)), dim), elements=unit))
    aligned = ~draw(arrays(bool, len(D)))
    D[aligned] = top + D[aligned] * 2.0 ** draw(st.integers(-60, -20)) * np.abs(top).max()
    below = 1.0 - draw(st.integers(1, 64)) * 2.0**-53
    with np.errstate(divide="ignore", invalid="ignore"):
        D *= (below / suite._reach(D))[:, None]
    return suite, D


@given(_suite_and_displacements())
def test_reach_below_one_bounds_every_computed_dt(case):
    """Where the reach bound lets gap_values skip the scan, no computed |dt|
    is 1 or more, whether the rows are multiplied together or one at a time."""
    suite, D = case
    reach = suite._reach(D)
    for rows in (D[reach < 1.0], *(D[[i]] for i in np.flatnonzero(reach < 1.0))):
        if len(rows):
            assert np.abs(rows @ suite._neg_LZ.T).max() < 1.0
