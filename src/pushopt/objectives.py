"""Per-agent convex objectives with certified smoothness/strong-convexity constants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.random  # loaded at import, not by the first default_rng of a set-up

__all__ = [
    "LabeledDataset",
    "ObjectiveSuite",
    "QuadraticSuite",
    "LogisticSuite",
    "make_quadratic_suite",
    "make_logistic_suite",
    "load_labeled_csv",
    "write_labeled_csv",
    "synthetic_logistic_dataset",
    "standardize_features",
    "global_minimizer",
]


def _log1pexp(t):
    """log(1 + exp(t)) in float64 without overflow for large |t|."""
    t = np.asarray(t)
    return np.maximum(t, 0) + np.log1p(np.exp(-np.abs(t)))


def _sigmoid(t):
    """1 / (1 + exp(-t)), stable for large |t|: with e = exp(-|t|), 1 / (1 + e)
    for t >= 0 and e / (1 + e) below, without masked indexing. -|t| is
    min(t, -t), which keeps a NaN's sign as exp(t) does."""
    t = np.asarray(t)
    e = np.exp(np.minimum(t, -t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


# Entries of one (rows x examples) temporary of LogisticSuite; measured in
# the gap_values docstring.
_SLICE_ENTRIES = 2**15


def _row_slices(rows: int, examples: int) -> list:
    """(start, stop) of near-equal slices of range(rows), each at most
    max(3, _SLICE_ENTRIES // examples) long.

    No slice is a lone row unless rows == 1: numpy takes a single row
    through matrix-vector and unblocked-sum paths that round differently
    from the same row in a stack, so a row's value would depend on its
    neighbours.
    """
    parts = -(-rows // max(3, _SLICE_ENTRIES // examples))
    return [(rows * i // parts, rows * (i + 1) // parts) for i in range(parts)]


@dataclass(frozen=True)
class LabeledDataset:
    """Binary-labeled feature rows; labels are strictly -1 or +1."""

    features: np.ndarray  # (rows, dim)
    labels: np.ndarray  # (rows,)

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must match the number of feature rows")
        if not np.isin(self.labels, (-1.0, 1.0)).all():
            raise ValueError("labels must be -1 or +1")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def standardize_features(data: LabeledDataset) -> LabeledDataset:
    """Center each feature and scale to unit standard deviation."""
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return LabeledDataset((data.features - mean) / std, data.labels.copy())


def load_labeled_csv(path) -> LabeledDataset:
    """Read comma-separated rows of d real features followed by a 0/1 class token.

    Class 0 maps to label -1 and class 1 to +1. Lines whose first field is
    not numeric are treated as headers and skipped.
    """
    text = Path(path).read_text(encoding="utf-8")
    rows = []
    labels = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            float(fields[0])
        except ValueError:
            continue  # header line
        if len(fields) < 2:
            raise ValueError(f"{path}:{lineno}: need at least one feature and a class")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
            )
        cls = values[-1]
        if cls == 0.0:
            labels.append(-1.0)
        elif cls == 1.0:
            labels.append(1.0)
        else:
            raise ValueError(f"{path}:{lineno}: class token must be 0 or 1, got {cls}")
        rows.append(values[:-1])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return LabeledDataset(np.array(rows), np.array(labels))


def write_labeled_csv(data: LabeledDataset, path) -> None:
    """Write a dataset in the format read by :func:`load_labeled_csv`."""
    lines = []
    for z, lam in zip(data.features, data.labels):
        cls = 1 if lam > 0 else 0
        lines.append(",".join(f"{v:.17g}" for v in z) + f",{cls}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def synthetic_logistic_dataset(
    rows: int = 1000, dim: int = 4, seed: int = 2026
) -> LabeledDataset:
    """Deterministic stand-in for a small real classification set.

    Features are modest-norm Gaussians and labels carry both margin noise and
    a flip rate, so the data is never linearly separable and the
    unpenalized logistic loss keeps a finite minimizer.
    """
    rng = np.random.default_rng(seed)
    z = 0.63 * rng.standard_normal((rows, dim))
    w = np.resize(np.array([1.5, -2.0, 1.0, 0.5]), dim)
    margin = z @ w + 0.6 * rng.standard_normal(rows)
    lam = np.where(margin >= 0, 1.0, -1.0)
    flip = rng.random(rows) < 0.08
    lam[flip] *= -1.0
    return LabeledDataset(z, lam)


class ObjectiveSuite:
    """n per-agent convex functions with certified constants L and mu.

    Subclasses provide per-agent values/gradients, the average objective with
    its gradient and Hessian, and `gap_values`, which measures f(row) - f(x*)
    in float64 from the displacement row - x*, so that gaps far below the
    resolution of f itself stay accurate.
    """

    def __init__(self, n: int, dim: int, L: float, mu: float):
        self.n = n
        self.dim = dim
        self.L = float(L)
        self.mu = float(mu)
        if not (0 <= self.mu <= self.L):
            raise ValueError("constants must satisfy 0 <= mu <= L")
        self._ref_key = None
        self._ref = None

    def value(self, i: int, x: np.ndarray):
        raise NotImplementedError

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch_grad(self, U: np.ndarray) -> np.ndarray:
        """Stacked gradients; row i is agent i's gradient at U[i]."""
        return np.stack([self.grad(i, U[i]) for i in range(self.n)])

    def average_value(self, x: np.ndarray):
        return self.average_values(x[None, :])[0]

    def average_values(self, rows: np.ndarray) -> np.ndarray:
        """Average objective evaluated at each row of a (m, dim) stack."""
        raise NotImplementedError

    def average_grad(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for i in range(self.n):
            out = out + self.grad(i, x)
        return out / self.n

    def average_hessian(self, x: np.ndarray) -> np.ndarray:
        """(dim, dim) Hessian of the average objective at x."""
        raise NotImplementedError

    def gap_values(self, rows: np.ndarray, xstar: np.ndarray) -> np.ndarray:
        """f(row) - f(x*) for each row of a (m, dim) stack.

        Evaluated from the displacement row - x*, so gaps far below
        1e-16 |f(x*)| stay accurate.
        """
        raise NotImplementedError

    def _reference(self, xstar) -> tuple:
        """The x*-only terms of `gap_values`, recomputed only for a new x*."""
        xstar = np.array(xstar, dtype=float)
        key = xstar.tobytes()
        if key != self._ref_key:
            self._ref_key, self._ref = key, self._reference_terms(xstar)
        return self._ref

    def _reference_terms(self, xstar: np.ndarray) -> tuple:
        raise NotImplementedError


class QuadraticSuite(ObjectiveSuite):
    """f_i(x) = x' H_i x / 2 - b_i' x with known per-agent spectra."""

    def __init__(self, H: np.ndarray, b: np.ndarray, L: float, mu: float):
        super().__init__(n=H.shape[0], dim=H.shape[1], L=L, mu=mu)
        self.H = H
        self.b = b
        self.mean_H = H.mean(axis=0)
        self.mean_b = b.mean(axis=0)

    def value(self, i, x):
        return 0.5 * x @ self.H[i] @ x - self.b[i] @ x

    def grad(self, i, x):
        return self.H[i] @ x - self.b[i]

    def batch_grad(self, U):
        return np.einsum("nij,nj->ni", self.H, U) - self.b

    def average_values(self, rows):
        quad = 0.5 * np.einsum("ri,ij,rj->r", rows, self.mean_H, rows)
        return quad - rows @ self.mean_b

    def average_grad(self, x):
        return self.mean_H @ x - self.mean_b

    def average_hessian(self, x):
        return self.mean_H

    def _reference_terms(self, xstar):
        # grad f(x*) is itself at rounding level, so it is formed exactly in
        # rationals; a float64 residual would swamp gaps below about 1e-20.
        grad = [
            sum(Fraction(h) * Fraction(x) for h, x in zip(row, xstar)) - Fraction(b)
            for row, b in zip(self.mean_H, self.mean_b)
        ]
        return xstar, np.array(grad, dtype=float)

    def gap_values(self, rows, xstar):
        """The exact expansion D' H D / 2 + D' grad f(x*), D = row - x*."""
        xstar, grad = self._reference(xstar)
        D = rows - xstar
        return 0.5 * ((D @ self.mean_H) * D).sum(axis=1) + D @ grad

    def minimizer(self) -> tuple:
        """Closed-form minimizer of the average objective."""
        xstar = np.linalg.solve(self.mean_H, self.mean_b)
        fstar = float(self.average_value(xstar))
        return xstar, fstar


class LogisticSuite(ObjectiveSuite):
    """f_i(x) = sum_j log(1 + exp(-lam_ij z_ij' x)) + mu/2 ||x||^2.

    The per-agent loss sums over that agent's examples without dividing by
    the shard size. L is the standard bound max_i sum_j ||z_ij||^2 / 4 + mu.
    """

    def __init__(self, shards: list, mu: float):
        worst = max(0.25 * (Z**2).sum() for Z, _ in shards)
        super().__init__(
            n=len(shards), dim=shards[0][0].shape[1], L=worst + mu, mu=mu
        )
        self.shards = shards
        # lam * z per example, stacked for the average objective and padded
        # with zero rows to (n, m_max, dim) for the batch gradient, where a
        # zero row adds nothing.
        LZ = [lam[:, None] * Z for Z, lam in shards]
        self._LZ_all = np.vstack(LZ)
        self._LZ_pad = np.zeros((self.n, max(len(a) for a in LZ), self.dim))
        for i, a in enumerate(LZ):
            self._LZ_pad[i, : len(a)] = a
        # gap_values' operand -lam z, laid out as _LZ_all: its product is the
        # BLAS call of D @ _LZ_all.T with exactly negated inputs, so it rounds
        # to exactly -dt. A contiguous (dim, examples) copy would not: numpy
        # takes a lone row through a matrix-vector kernel that then sums in
        # another order.
        self._neg_LZ = -self._LZ_all
        # max_e ||lam_e z_e|| widened for rounding (see gap_values); NaN, so
        # that every slice is scanned, where squares could under- or overflow.
        with np.errstate(over="ignore"):
            M = np.sqrt((self._LZ_all * self._LZ_all).sum(axis=1)).max()
        widen = 1.0 + 2 * (self.dim + 2) * np.finfo(float).eps
        self._reach_scale = M * widen if 2.0**-500 <= M <= 2.0**500 else np.nan

    def value(self, i, x):
        Z, lam = self.shards[i]
        t = lam * (Z @ x)
        return _log1pexp(-t).sum() + 0.5 * self.mu * (x @ x)

    def grad(self, i, x):
        Z, lam = self.shards[i]
        t = lam * (Z @ x)
        return -(Z.T @ (lam * _sigmoid(-t))) + self.mu * x

    def batch_grad(self, U):
        t = np.einsum("nmd,nd->nm", self._LZ_pad, U)
        return self.mu * U - np.einsum("nmd,nm->nd", self._LZ_pad, _sigmoid(-t))

    def average_values(self, rows):
        """Row slices as in `gap_values`, so memory stays flat in the row count."""
        sums = np.empty(len(rows))
        for a, b in _row_slices(len(rows), len(self._LZ_all)):
            sums[a:b] = _log1pexp(-(self._LZ_all @ rows[a:b].T)).sum(axis=0)
        return sums / self.n + 0.5 * self.mu * (rows * rows).sum(axis=1)

    def average_grad(self, x):
        s = _sigmoid(-(self._LZ_all @ x))
        return self.mu * x - (s @ self._LZ_all) / self.n

    def average_hessian(self, x):
        t = self._LZ_all @ x
        w = _sigmoid(t) * _sigmoid(-t)
        H = (self._LZ_all.T * w) @ self._LZ_all / self.n
        return H + self.mu * np.eye(self.dim)

    def _reference_terms(self, xstar):
        t = self._LZ_all @ xstar
        return xstar, t, _sigmoid(-t), _log1pexp(-t)

    def _reach(self, D):
        """Per row of D, a bound that every computed |D_r . lam_e z_e| is below."""
        with np.errstate(over="ignore"):
            return np.sqrt((D * D).sum(axis=1)) * self._reach_scale

    def gap_values(self, rows, xstar):
        """Per example, with dt = lam z'(row - x*), the loss moves by
        log1p(sigmoid(-t*) expm1(-dt)), accurate to rounding however small
        dt is. Entries with |dt| >= 1, where expm1 could overflow, take the
        plain difference of log1pexp instead; it is accurate there because
        the change is not small.

        Rows go through in slices (`_row_slices`) whose (rows x examples)
        temporaries hold at most 2^15 entries and so stay in cache. Per
        entry a slice costs one product term, expm1, the sigmoid(-t*)
        scaling, log1p and the row sum, all in place: the product against
        -lam z gives -dt directly. Only a slice that may hold a far entry is
        scanned (abs, >= 1, any), and only one that does is clipped to
        [-1, 1] and patched. A row's value does not depend on its slice.

        The scan is skipped when reach = ||D_r|| max_e ||lam_e z_e||
        (1 + kappa eps) < 1 for every row of the slice, with kappa =
        2 (dim + 2). By Cauchy-Schwarz the exact dt is at most ||D_r||
        ||lam_e z_e||; the computed product adds at most gamma_dim = dim u
        (u = eps / 2) relative, in any summation order. Each computed norm
        may fall short by gamma_dim / 2 + u (sum of squares, then sqrt), and
        the two products forming reach by u each, so a first-order kappa of
        dim + 2 suffices; the doubling covers higher-order terms and the
        squares that underflow, which the range check on max_e ||lam_e z_e||
        ([2^-500, 2^500], else reach is NaN and every slice is scanned) keeps
        negligible. A NaN or inf row makes reach NaN or inf, so its slice is
        scanned, where an inf entry is far and a NaN one is not.

        The budget comes from timing 640 rows near x* (one recorder block at
        n = 20, every slice unscanned) at 1000 examples with one BLAS thread
        on a 2-CPU x86-64 host (numpy 2.4, OpenBLAS 0.3), medians of 41
        interleaved runs: 4.2 ms per block (quartiles 3.9-4.6) in slices of
        2^15 entries, 4.6 at 2^14 and 4.7 at 2^16, against 5.4 ms (4.8-6.1)
        when every slice is scanned. A block whose rows lie 0.3 from x*, with
        far entries in most slices, costs 9-10 ms either way.
        """
        xstar, t_star, s_star, l_star = self._reference(xstar)
        D = rows - xstar
        reach = self._reach(D)
        sums = np.empty(len(D))
        for a, b in _row_slices(len(D), len(t_star)):
            terms = D[a:b] @ self._neg_LZ.T  # -dt
            checked = not reach[a:b].max() < 1.0
            far = np.abs(terms) >= 1.0 if checked else None
            any_far = checked and far.any()
            if any_far:
                neg_dt_far = terms[far]
                np.clip(terms, -1.0, 1.0, out=terms)
            np.expm1(terms, out=terms)
            terms *= s_star
            np.log1p(terms, out=terms)
            if any_far:
                _, cols = np.nonzero(far)
                terms[far] = _log1pexp(neg_dt_far - t_star[cols]) - l_star[cols]
            sums[a:b] = terms.sum(axis=1)
        reg = 0.5 * self.mu * (D * (rows + xstar)).sum(axis=1)
        return sums / self.n + reg


def make_quadratic_suite(
    n: int, dim: int, kappa: float, mu_base: float, seed: int
) -> QuadraticSuite:
    """Random quadratic suite whose per-agent spectra lie in
    [mu_base, mu_base * kappa].
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if mu_base <= 0:
        raise ValueError("mu_base must be positive")
    if dim < 2 and kappa > 1:
        raise ValueError("kappa > 1 needs dim >= 2 to place both extreme eigenvalues")
    rng = np.random.default_rng(seed)
    # Agents share one eigenbasis and pin the interval endpoints on common
    # coordinates, so the average objective keeps the condition number kappa
    # instead of the spectra washing out under averaging.
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    H = np.empty((n, dim, dim))
    for i in range(n):
        eigs = rng.uniform(mu_base, mu_base * kappa, size=dim)
        eigs[0] = mu_base
        eigs[-1] = mu_base * kappa
        H[i] = (Q * eigs) @ Q.T
        H[i] = 0.5 * (H[i] + H[i].T)
    b = rng.standard_normal((n, dim))
    return QuadraticSuite(H=H, b=b, L=mu_base * kappa, mu=mu_base)


def make_logistic_suite(
    data: LabeledDataset, n: int, mu: float, partition_seed: int
) -> LogisticSuite:
    """Shuffle the dataset and split it as evenly as possible into n shards."""
    if len(data) < n:
        raise ValueError(f"dataset has {len(data)} rows; need at least {n}")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    rng = np.random.default_rng(partition_seed)
    perm = rng.permutation(len(data))
    shards = []
    for idx in np.array_split(perm, n):
        shards.append((data.features[idx].copy(), data.labels[idx].copy()))
    return LogisticSuite(shards=shards, mu=mu)


def global_minimizer(
    suite: ObjectiveSuite,
    tol: float = 1e-14,
    max_iter: int = 100,
    force_iterative: bool = False,
) -> tuple:
    """Minimizer (x*, f*) of the average objective, to gradient norm tol.

    Quadratic suites use the closed form. Otherwise damped Newton from the
    origin: each step solves with `average_hessian`, then halves its length
    until the decrease, measured with `gap_values` so it stays exact near x*,
    meets the Armijo condition. Raises RuntimeError, naming the final gradient
    norm, if max_iter steps do not reach tol.
    """
    if isinstance(suite, QuadraticSuite) and not force_iterative:
        return suite.minimizer()

    x = np.zeros(suite.dim)
    for it in range(max_iter + 1):
        g = suite.average_grad(x)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return x, float(suite.average_value(x))
        if it == max_iter:
            break
        step = -np.linalg.solve(suite.average_hessian(x), g)
        slope = float(g @ step)
        t = 1.0
        while t > 1e-10:
            change = suite.gap_values((x + t * step)[None, :], x)[0]
            if change <= 0.25 * t * slope:
                break
            t *= 0.5
        x = x + t * step
    raise RuntimeError(
        f"minimizer did not reach gradient norm {tol} in {max_iter} iterations "
        f"(final gradient norm {gnorm})"
    )
