"""Per-agent convex objectives with certified smoothness/strong-convexity constants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

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
    """1 / (1 + exp(-t)), stable for large |t|."""
    t = np.asarray(t)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


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
        T = self._LZ_all @ rows.T
        vals = _log1pexp(-T).sum(axis=0) / self.n
        return vals + 0.5 * self.mu * (rows * rows).sum(axis=1)

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

    def gap_values(self, rows, xstar):
        """Per example, with dt = lam z'(row - x*), the loss moves by
        log1p(sigmoid(-t*) expm1(-dt)), accurate to rounding however small
        dt is. Entries with |dt| >= 1, where expm1 could overflow, take the
        plain difference of log1pexp instead; it is accurate there because
        the change is not small.
        """
        xstar, t_star, s_star, l_star = self._reference(xstar)
        D = rows - xstar
        dT = D @ self._LZ_all.T
        terms = np.log1p(s_star * np.expm1(-np.clip(dT, -1.0, 1.0)))
        far = np.abs(dT) >= 1.0
        if far.any():
            _, cols_far = np.nonzero(far)
            terms[far] = _log1pexp(-t_star[cols_far] - dT[far]) - l_star[cols_far]
        reg = 0.5 * self.mu * (D * (rows + xstar)).sum(axis=1)
        return terms.sum(axis=1) / self.n + reg


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
