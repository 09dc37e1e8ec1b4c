"""Error metrics, Lyapunov functions, inequality spot-checks, and rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded at import, not by the first default_rng of a set-up

from .mixing import MixingMatrix, NormTransform
from .objectives import ObjectiveSuite, global_minimizer
from .solvers import APDParams, APDSCParams, PushDIGingParams, SolverState, _c3, _c5

__all__ = [
    "RunTrace",
    "TraceRecorder",
    "IdentityMonitor",
    "optimality_gap",
    "consensus_error",
    "lyapunov_smooth",
    "lyapunov_sc",
    "check_inexact_bounds",
    "InexactBoundsReport",
    "fit_sublinear_rate",
    "fit_linear_rate",
    "iterations_to_threshold",
]

TRACE_COLUMNS = (
    "k",
    "loss",
    "consensus_error",
    "projection_error",
    "grad_avg_norm",
    "phi1",
    "phi2",
    "phi3",
    "phi4",
    "v_min",
)


@dataclass
class RunTrace:
    """Per-iteration diagnostics of one solver run.

    phi1..phi4 are present only when the recorder was given a NormTransform
    (phi1/phi2 for the schedule-based solver, phi3/phi4 for the
    constant-coefficient one).
    """

    label: str
    k: np.ndarray
    loss: np.ndarray
    consensus_error: np.ndarray
    projection_error: np.ndarray
    grad_avg_norm: np.ndarray
    v_min: np.ndarray
    phi1: np.ndarray | None = None
    phi2: np.ndarray | None = None
    phi3: np.ndarray | None = None
    phi4: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.k)

    def column(self, name: str):
        return getattr(self, name)


def optimality_gap(suite: ObjectiveSuite, output: np.ndarray, xstar, fstar) -> float:
    """Mean over agents of f(estimate_i) - f*, f being the average objective.

    Given x*, the gap comes from `suite.gap_values`, which works in float64
    on the displacement estimate - x* and so resolves the deep tail of the
    gap. With only f* it is the plain float64 difference, which cannot
    resolve gaps below about 1e-16 |f*|.
    """
    rows = np.asarray(output, dtype=float)
    if xstar is not None:
        return float(suite.gap_values(rows, xstar).mean())
    return float(suite.average_values(rows).mean() - fstar)


# Records per block of TraceRecorder; measured in its docstring.
_BLOCK = 32


def _one(state: SolverState) -> tuple:
    """A state's X, Z, G agent-last in slot 0 of a stack, and its v as (1, n)."""
    S = np.empty((3, _BLOCK, *state.X.T.shape))
    S[:, 0] = state.X.T, state.Z.T, state.G.T
    return S, state.v[None]


def consensus_error(state: SolverState, p: np.ndarray) -> tuple:
    """(u_err, proj_err): agent-estimate spread and projected iterate size.

    u_err is the Frobenius distance of V^{-1} X from the all-rows-equal
    stack of the plain row average of X; proj_err projects X onto the
    complement of the Perron direction.
    """
    cols = _records(p, *_one(state))
    return float(cols["consensus_error"][0]), float(cols["projection_error"][0])


def _sqnorms(A: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each item of a block, one BLAS dot per item
    as in np.linalg.norm, so its square root has norm's bits."""
    F = A.reshape(len(A), 1, -1)
    return (F @ F.transpose(0, 2, 1))[:, 0, 0]


def _smooth_coefficients(params: APDParams, k: int, d: float) -> tuple:
    """(tau_k, Z weight, G weight) of (phi1, phi2)."""
    return params.tau(k), 6.0 / d**2, _c3(params.pa, d) * params.eta**2 / d**4


def _sc_coefficients(params: APDSCParams, k: int, d: float) -> tuple:
    """(tau, Z weight, G weight) of (phi3, phi4)."""
    at = params.alpha * params.tau
    return params.tau, 24.0 / (7.0 * d**2), _c5(at, d) * params.eta**2 / d**4


# A Lyapunov pair: its (average, consensus) trace columns and coefficients.
_SMOOTH_PAIR = ("phi1", "phi2", _smooth_coefficients)
_SC_PAIR = ("phi3", "phi4", _sc_coefficients)
# The pair a run records, by params type.
_LYAPUNOV = {APDParams: _SMOOTH_PAIR, APDSCParams: _SC_PAIR}


def _records(p, S, v, lyapunov=None) -> dict:
    """Recorder columns but k and loss of m records: X, Z, G agent-last in
    the first m slots of a (3, B, d, n) stack S, v (m, n).

    Agent means are pairwise sums over the contiguous last axis. X, and with
    lyapunov = (nt, params, pair, ks) also Z and G, are projected off the
    Perron direction in place as A - p m, m refined once by 1^T (A - p m) / n
    (near consensus Pi A is small and the plain mean's rounding would rule
    it). The pair's weighted norms scale the projected stack by the norm's
    weights, entry by entry, so a record's value is the same in any block.
    """
    m = len(v)
    means = S[:, :m].mean(axis=-1, keepdims=True)
    xbar, zbar, gbar = means[..., 0]
    W = np.empty_like(S)  # scratch: the spread, residuals, then the product
    U = np.divide(S[0, :m], v[:, None, :], out=W[0, :m])
    U -= means[0]
    cols = {
        "consensus_error": np.sqrt(_sqnorms(U)),
        "grad_avg_norm": np.sqrt(_sqnorms(gbar)),
        "v_min": v.min(axis=1),
    }
    f = 1 if lyapunov is None else 3  # fields to project
    A, R, mean = S[:f, :m], W[:f, :m], means[:f]
    np.subtract(A, np.multiply(p, mean, out=R), out=R)
    A -= np.multiply(p, mean + R.mean(axis=-1, keepdims=True), out=R)
    cols["projection_error"] = np.sqrt(_sqnorms(A[0]))
    if lyapunov is None:
        return cols
    nt, params, (avg_name, cons_name, coefficients), ks = lyapunov
    d = nt.delta
    # The average part weights xbar and zbar by the decayed push-sum error.
    coefs = [coefficients(params, k, d) for k in ks]
    decay = np.array([(1.0 - d) ** (2 * k) for k in ks])
    z_avg = np.array([(8.0 / d**2) * tau**2 for tau, _, _ in coefs])
    cols[avg_name] = decay * (_sqnorms(xbar) + z_avg * _sqnorms(zbar))
    # The consensus part sums the weighted-norm consensus errors of X, Z, G.
    P = np.multiply(S[:, :m], nt.w, out=W[:, :m])
    sq = [_sqnorms(field) for field in P]
    _, z_w, g_w = np.array(coefs).T
    cols[cons_name] = sq[0] + z_w * sq[1] + g_w * sq[2]
    return cols


def lyapunov_smooth(
    state: SolverState, k: int, params: APDParams, nt: NormTransform
) -> tuple:
    """(phi1, phi2) for the schedule-based solver at iteration k.

    phi1 weights the average parts by the decayed push-sum error; phi2
    combines the weighted-norm consensus errors of X, Z and G.
    """
    cols = _records(nt.p, *_one(state), (nt, params, _SMOOTH_PAIR, [k]))
    return float(cols["phi1"][0]), float(cols["phi2"][0])


def lyapunov_sc(
    state: SolverState, k: int, params: APDSCParams, nt: NormTransform
) -> tuple:
    """(phi3, phi4), the constant-coefficient analogues of (phi1, phi2)."""
    cols = _records(nt.p, *_one(state), (nt, params, _SC_PAIR, [k]))
    return float(cols["phi3"][0]), float(cols["phi4"][0])


@dataclass(frozen=True)
class InexactBoundsReport:
    """Outcome of the inexact convexity/strong-convexity spot-checks."""

    trials: int
    min_slack: float
    sc_slack: float | None
    violations: int


def check_inexact_bounds(
    suite: ObjectiveSuite,
    state: SolverState,
    trials: int,
    seed: int,
    xstar: np.ndarray | None = None,
) -> InexactBoundsReport:
    """Verify the descent bounds that hold despite gradient-average error.

    Samples random row pairs (a, b) and checks
    f(a) - f(b) <= <gbar, a - b> + (L / 2n) ||U - 1 a||_F^2; when the suite
    is strongly convex also checks the mu-variant at (xbar, x*). Slack is
    RHS - LHS; violations are counted below -1e-8 * scale.
    """
    rng = np.random.default_rng(seed)
    n, dim, L = suite.n, suite.dim, suite.L
    gbar = state.G.mean(axis=0)
    U = state.X / state.v[:, None]
    xbar = state.X.mean(axis=0)
    scale_ref = 1.0 + float(np.linalg.norm(xbar))

    min_slack = np.inf
    violations = 0
    for _ in range(trials):
        a = scale_ref * rng.standard_normal(dim)
        b = scale_ref * rng.standard_normal(dim)
        lhs = float(suite.average_value(a) - suite.average_value(b))
        rhs = float(gbar @ (a - b)) + (L / (2.0 * n)) * float(
            np.linalg.norm(U - a[None, :]) ** 2
        )
        slack = rhs - lhs
        min_slack = min(min_slack, slack)
        if slack < -1e-8 * (1.0 + abs(lhs) + abs(rhs)):
            violations += 1

    sc_slack = None
    if suite.mu > 0:
        if xstar is None:
            xstar, _ = global_minimizer(suite)
        lhs = float(suite.average_value(xbar))
        rhs = (
            float(suite.average_value(xstar))
            + float(gbar @ (xbar - xstar))
            - 0.25 * suite.mu * float(np.linalg.norm(xbar - xstar) ** 2)
            + (L / n) * float(np.linalg.norm(U - xbar[None, :]) ** 2)
        )
        sc_slack = rhs - lhs
        if sc_slack < -1e-8 * (1.0 + abs(lhs) + abs(rhs)):
            violations += 1
    return InexactBoundsReport(
        trials=trials, min_slack=float(min_slack), sc_slack=sc_slack, violations=violations
    )


def _fit_window(trace: RunTrace, k_lo: int, k_hi: int) -> tuple:
    if not k_hi > k_lo >= 1:
        raise ValueError("need k_hi > k_lo >= 1")
    mask = (trace.k >= k_lo) & (trace.k <= k_hi)
    if mask.sum() < 2:
        raise ValueError("fewer than two trace records in the fit window")
    k = trace.k[mask].astype(float)
    loss = trace.loss[mask]
    if not (loss > 0).all():
        raise ValueError("non-positive loss in fit window; rate fit undefined")
    return k, loss


def fit_sublinear_rate(trace: RunTrace, k_lo: int, k_hi: int) -> float:
    """Least-squares slope of log(loss) against log(k) on [k_lo, k_hi]."""
    k, loss = _fit_window(trace, k_lo, k_hi)
    return float(np.polyfit(np.log(k), np.log(loss), 1)[0])


def fit_linear_rate(trace: RunTrace, k_lo: int, k_hi: int) -> float:
    """Per-iteration decay factor: exp of the slope of log(loss) against k."""
    k, loss = _fit_window(trace, k_lo, k_hi)
    return float(np.exp(np.polyfit(k, np.log(loss), 1)[0]))


def iterations_to_threshold(trace: RunTrace, threshold: float):
    """First recorded iteration whose loss is at or below the threshold."""
    hits = np.nonzero(trace.loss <= threshold)[0]
    return int(trace.k[hits[0]]) if hits.size else None


class TraceRecorder:
    """Hook that accumulates a RunTrace while a solver runs.

    Pass as `hooks=` to any run; the run returns recorder.trace(). The loss
    column is `optimality_gap` of the estimates: exact in float64 when x* is
    given, the plain difference to f* when only f* is. Given a norm
    transform, the recorder adds the Lyapunov pair of the params type
    (`_LYAPUNOV`), if it has one. With stride="auto" every iteration is
    recorded up to k = 10_000 and every 10th beyond.

    A call copies X, Z and G agent-last (X.T, ...) into a (3, B, d, n)
    stack, v and the estimate's field into block buffers. Every column is
    evaluated B = 32 records at a time, when a block fills and in trace().
    The loss takes one `gap_values` (or, given only f*, `average_values`)
    call on the block's B n ratio rows; the other columns go through
    `_records`, the kernel behind `consensus_error` and `lyapunov_*`, so
    each equals its per-call value bit for bit. It projects off the Perron
    direction in place in O(n d) (a norm transform must carry the mixing's
    Perron vector), and a Lyapunov block scales the projected stack by the
    norm's weights w, also in O(n d) per record.

    A full n = 400 Lyapunov block takes 1.7-2.4 ms for the whole kernel,
    0.4-0.6 ms of it the scale, and 0.7-0.9 ms for the loss; per record the
    kernel costs the same at B = 8, 32 and 64 within that spread (one BLAS
    thread, 2-CPU x86-64 host, numpy 2.4; medians of 50 calls in each of 3
    processes). B = 64 raised an n = 400 run's peak RSS by 3.2 MB over
    B = 32 when that was last measured.
    """

    def __init__(
        self,
        suite: ObjectiveSuite,
        mixing: MixingMatrix,
        xstar=None,
        fstar=None,
        params=None,
        norm_transform: NormTransform | None = None,
        estimate: str = "Y",
        stride="auto",
        label: str = "",
    ):
        self.suite = suite
        self.mixing = mixing
        self.params = params
        self.nt = norm_transform
        self.estimate = estimate
        self.stride = stride
        self.label = label
        self.xstar = xstar
        self.fstar = fstar
        self._rows = {name: [] for name in TRACE_COLUMNS}
        self._ks = []  # k of each record in the block
        self._stack = np.empty((3, _BLOCK, suite.dim, mixing.n))  # X, Z, G agent-last
        self._est = np.empty((_BLOCK, mixing.n, suite.dim))  # the loss's estimate field
        self._v = np.empty((_BLOCK, mixing.n))
        if norm_transform is not None and not np.array_equal(norm_transform.p, mixing.p):
            raise ValueError("norm_transform was built for a different Perron vector")
        self._lyapunov = None if norm_transform is None else _LYAPUNOV.get(type(params))

    def _due(self, k: int) -> bool:
        if self.stride == "auto":
            return k <= 10_000 or k % 10 == 0
        return k % int(self.stride) == 0

    def __call__(self, state: SolverState) -> None:
        if not self._due(state.k):
            return
        self._rows["k"].append(state.k)
        j = len(self._ks)
        self._stack[:, j] = state.X.T, state.Z.T, state.G.T
        self._est[j], self._v[j] = getattr(state, self.estimate), state.v
        self._ks.append(state.k)
        if len(self._ks) == _BLOCK:
            self._flush()

    def _flush(self) -> None:
        """Evaluate the records in the block and empty it."""
        if not self._ks:
            return
        v = self._v[: len(self._ks)]
        self._rows["loss"].extend(self._losses(self._est[: len(v)], v).tolist())
        lyapunov = None
        if self._lyapunov is not None:
            lyapunov = (self.nt, self.params, self._lyapunov, self._ks)
        for name, vals in _records(self.mixing.p, self._stack, v, lyapunov).items():
            self._rows[name].extend(vals.tolist())
        self._ks = []

    def _losses(self, est: np.ndarray, v: np.ndarray) -> np.ndarray:
        """`optimality_gap` of each record, from one suite call on the
        block's m n ratio rows; a record's mean is the same pairwise sum over
        its n contiguous values as that of `optimality_gap`."""
        m, n = v.shape
        if self.xstar is None and self.fstar is None:
            return np.full(m, np.nan)
        rows = (est / v[..., None]).reshape(m * n, -1)
        if self.xstar is not None:
            return self.suite.gap_values(rows, self.xstar).reshape(m, n).mean(axis=1)
        return self.suite.average_values(rows).reshape(m, n).mean(axis=1) - self.fstar

    def trace(self) -> RunTrace:
        self._flush()
        # Lyapunov columns this run did not record are None, not empty arrays.
        cols = {
            name: np.array(vals, dtype=int if name == "k" else float)
            for name, vals in self._rows.items()
            if vals or not name.startswith("phi")
        }
        return RunTrace(label=self.label, **cols)


def _apd_identity(params: APDParams, k: int) -> tuple:
    return params.tau(k), 0.0, params.alpha(k) * params.eta


def _apdsc_identity(params: APDSCParams, k: int) -> tuple:
    return params.tau, params.beta, params.alpha * params.eta


# The average-iterate identities by params type. An accelerated method gives
# (tau_k, beta, alpha_k eta): xbar = (1 - tau_k) ybar + tau_k zbar, and
# zbar_{k+1} = (1 - beta) zbar_k + beta xbar_k - alpha_k eta gbar_k (APD has
# beta = 0). Push-DIGing has no Y/Z recursion (None).
_IDENTITIES = {APDParams: _apd_identity, APDSCParams: _apdsc_identity, PushDIGingParams: None}


class IdentityMonitor:
    """Hook that tracks the worst residuals of the exact average-iterate
    identities along a run.

    The params type selects the identities (`_IDENTITIES`). Every run
    conserves push-sum mass, tracks the gradient average and steps its
    estimate as ybar_{k+1} = xbar_k - eta gbar_k, reported as "ybar", or as
    "xbar" for Push-DIGing, whose Y is its X. The accelerated methods add
    the zbar step and the coupling of xbar to ybar and zbar, at each state
    ("coupling") and along each step ("xbar"). Residuals are normalized by
    1 + the norms of the terms entering each identity, so the recorded
    maxima are directly comparable against a tolerance.
    """

    def __init__(self, mixing: MixingMatrix, params):
        if type(params) not in _IDENTITIES:
            raise ValueError(f"no average-iterate identities for {type(params).__name__}")
        self.n = mixing.n
        self.params = params
        self._identity = _IDENTITIES[type(params)]
        self._prev = None  # (k, xbar, zbar, gbar) of the last state
        self._worst = dict.fromkeys(("mass", "tracking", "ybar", "zbar", "xbar", "coupling"), 0.0)

    @property
    def max_mass_err(self) -> float:
        return self._worst["mass"]

    def _note(self, key: str, res, scale) -> None:
        self._worst[key] = max(self._worst[key], float(res / scale))

    def __call__(self, state: SolverState) -> None:
        nrm = np.linalg.norm
        xbar, ybar, zbar, gbar = (getattr(state, f).mean(axis=0) for f in "XYZG")
        gbar_true = state.grad_U.mean(axis=0)
        self._note("mass", abs(float(state.v.sum()) - self.n), 1.0)
        self._note("tracking", nrm(gbar - gbar_true), 1.0 + nrm(gbar_true))
        prev, self._prev = self._prev, (state.k, xbar, zbar, gbar)
        if self._identity is not None:
            tau = self._identity(self.params, state.k)[0]
            coef = (1.0 - tau) / tau
            res = nrm((xbar - zbar) - coef * (ybar - xbar))
            scale = 1.0 + nrm(xbar) + nrm(zbar) + coef * (nrm(ybar) + nrm(xbar))
            self._note("coupling", res, scale)
        if prev is None or state.k != prev[0] + 1:
            return
        k0, xbar0, zbar0, gbar0 = prev
        eta = self.params.eta
        step = nrm(ybar - (xbar0 - eta * gbar0)), 1.0 + nrm(xbar0) + eta * nrm(gbar0)
        if self._identity is None:
            self._note("xbar", *step)
            return
        self._note("ybar", *step)
        _, beta, gain = self._identity(self.params, k0)
        res = nrm(zbar - ((1.0 - beta) * zbar0 + beta * xbar0 - gain * gbar0))
        scale = 1.0 + nrm(zbar0) + (nrm(xbar0) if beta else 0.0) + gain * nrm(gbar0)
        self._note("zbar", res, scale)
        res = nrm(xbar - ((1.0 - tau) * ybar + tau * zbar))
        self._note("xbar", res, 1.0 + nrm(ybar) + nrm(zbar))

    def worst(self) -> dict:
        return dict(self._worst)
