"""Error metrics, Lyapunov functions, identity monitors, and rate fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixing import MixingMatrix, NormTransform
from .objectives import ObjectiveSuite
from .solvers import SolverState

__all__ = [
    "RunTrace",
    "TraceRecorder",
    "IdentityMonitor",
    "optimality_gap",
    "consensus_error",
    "lyapunov",
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
    """Mean over agents of f(estimate_i) - f(x*), f being the average objective.

    The gap comes from `suite.gap_values`, which works in float64 on the
    displacement estimate - x* and so resolves the deep tail of the gap.
    x* is required. fstar is not read: it stays only because the benchmark's
    sweep passes it by position.
    """
    if xstar is None:
        raise ValueError("optimality_gap needs the minimizer x*; xstar is None")
    return float(suite.gap_values(np.asarray(output, dtype=float), xstar).mean())


def _block(d: int, n: int) -> int:
    """Records per TraceRecorder block for d-column estimates of n agents:
    32, or fewer where the (3, B, d, n) float64 stack would exceed 0.75 MiB.
    Measured in TraceRecorder's docstring."""
    return max(1, min(32, 786_432 // (3 * d * n * 8)))


def _one(state: SolverState) -> tuple:
    """A state's X, Z, G agent-last in a one-record stack, and its v as (1, n)."""
    S = np.empty((3, 1, *state.X.T.shape))
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


def _records(p, S, v, lyapunov=None) -> dict:
    """Recorder columns but k and loss of m records: X, Z, G agent-last in
    the first m slots of a (3, B, d, n) stack S, v (m, n).

    Agent means are pairwise sums over the contiguous last axis. X, and with
    lyapunov = (nt, params, ks) also Z and G, are projected off the Perron
    direction in place as A - p m, m refined once by 1^T (A - p m) / n (near
    consensus Pi A is small and the plain mean's rounding would rule it).
    lyapunov adds params' Lyapunov pair at the records' iterations ks. Its
    weighted norms scale the projected stack by the norm's weights, entry by
    entry, so a record's value is the same in any block.
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
    nt, params, ks = lyapunov
    avg_name, cons_name = params.lyapunov_pair
    d = nt.delta
    # The average part weights xbar and zbar by the decayed push-sum error.
    coefs = [params.lyapunov_weights(k, d) for k in ks]
    decay = np.array([(1.0 - d) ** (2 * k) for k in ks])
    z_avg = np.array([(8.0 / d**2) * tau**2 for tau, _, _ in coefs])
    cols[avg_name] = decay * (_sqnorms(xbar) + z_avg * _sqnorms(zbar))
    # The consensus part sums the weighted-norm consensus errors of X, Z, G.
    P = np.multiply(S[:, :m], nt.w, out=W[:, :m])
    sq = [_sqnorms(field) for field in P]
    _, z_w, g_w = np.array(coefs).T
    cols[cons_name] = sq[0] + z_w * sq[1] + g_w * sq[2]
    return cols


def lyapunov(state: SolverState, k: int, params, nt: NormTransform) -> tuple:
    """params' Lyapunov pair at iteration k: (phi1, phi2) for APDParams,
    (phi3, phi4) for APDSCParams.

    The first weights the average parts by the decayed push-sum error; the
    second combines the weighted-norm consensus errors of X, Z and G.
    """
    if params.lyapunov_pair is None:
        raise ValueError(f"no Lyapunov pair for {type(params).__name__}")
    cols = _records(nt.p, *_one(state), (nt, params, [k]))
    return tuple(float(cols[name][0]) for name in params.lyapunov_pair)


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
    column is `optimality_gap` of the estimates, the gap from the required
    minimizer x*, exact in float64. Given a norm transform, the recorder
    adds the params' Lyapunov pair (`params.lyapunov_pair`), if it has one.
    With stride="auto" every iteration is recorded up to k = 10_000 and
    every 10th beyond. The last state passed is always recorded, so a run's
    trace ends at k = K whatever the stride.

    stride is "auto" or a positive int. A call copies X, Z and G agent-last
    (X.T, ...) into a (3, B, d, n) stack, v and the estimate's field into
    block buffers. A state the stride skips is copied to the next free slot
    too, where trace() records it if no later state came. Every column is
    evaluated B records at a time, when a block fills and in trace(); B is
    32, or fewer where the stack would exceed about 0.75 MB (16 at n = 400
    with d = 5).
    The loss takes one `gap_values` call on the block's B n ratio rows;
    the other columns go through `_records`, the kernel behind
    `consensus_error` and `lyapunov`, so each equals its per-call value bit
    for bit. It projects off the Perron
    direction in place in O(n d) (a norm transform must carry the mixing's
    Perron vector), and a Lyapunov block scales the projected stack by the
    norm's weights w, also in O(n d) per record.

    At n = 400 with d = 5 a full Lyapunov block (B = 16) takes 0.64-0.75
    ms for the whole kernel, 0.08-0.09 ms of it the scale, and 0.36-0.43
    ms for the loss; per record the kernel costs 40-47 us at B = 16,
    42-67 us at B = 8 and 45-49 us at B = 32 (one BLAS thread, 2-CPU
    x86-64 host, numpy 2.4; medians of 50 calls in each of 3 processes).
    On the n = 400 bench config, run in one process, B = 16 gave a peak
    RSS of 45.38-45.45 MB against 45.86-45.92 MB at B = 32, with the same
    output bytes; B = 64 had raised it by 3.2 MB over B = 32.
    """

    def __init__(
        self,
        suite: ObjectiveSuite,
        mixing: MixingMatrix,
        xstar,
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
        if stride != "auto" and (
            not isinstance(stride, int) or isinstance(stride, bool) or stride < 1
        ):
            raise ValueError(f'stride must be "auto" or a positive int, got {stride!r}')
        self.stride = stride
        self.label = label
        self.xstar = xstar
        self._rows = {name: [] for name in TRACE_COLUMNS}
        self._ks = []  # k of each record in the block
        self._skipped = None  # k of a skipped state held in the next free slot
        B = _block(suite.dim, mixing.n)
        self._stack = np.empty((3, B, suite.dim, mixing.n))  # X, Z, G agent-last
        self._est = np.empty((B, mixing.n, suite.dim))  # the loss's estimate field
        self._v = np.empty((B, mixing.n))
        if norm_transform is not None and not np.array_equal(norm_transform.p, mixing.p):
            raise ValueError("norm_transform was built for a different Perron vector")
        self._lyapunov = norm_transform is not None and getattr(params, "lyapunov_pair", None)

    def _due(self, k: int) -> bool:
        if self.stride == "auto":
            return k <= 10_000 or k % 10 == 0
        return k % self.stride == 0

    def __call__(self, state: SolverState) -> None:
        j = len(self._ks)
        self._stack[:, j] = state.X.T, state.Z.T, state.G.T
        self._est[j], self._v[j] = getattr(state, self.estimate), state.v
        if self._due(state.k):
            self._skipped = None
            self._keep(state.k)
        else:
            self._skipped = state.k

    def _keep(self, k: int) -> None:
        """Make the copy in the next free slot the record of iteration k."""
        self._rows["k"].append(k)
        self._ks.append(k)
        if len(self._ks) == len(self._v):
            self._flush()

    def _flush(self) -> None:
        """Evaluate the records in the block and empty it."""
        if not self._ks:
            return
        v = self._v[: len(self._ks)]
        self._rows["loss"].extend(self._losses(self._est[: len(v)], v).tolist())
        lyapunov = (self.nt, self.params, self._ks) if self._lyapunov else None
        for name, vals in _records(self.mixing.p, self._stack, v, lyapunov).items():
            self._rows[name].extend(vals.tolist())
        self._ks = []

    def _losses(self, est: np.ndarray, v: np.ndarray) -> np.ndarray:
        """`optimality_gap` of each record, from one suite call on the
        block's m n ratio rows; a record's mean is the same pairwise sum over
        its n contiguous values as that of `optimality_gap`."""
        m, n = v.shape
        rows = (est / v[..., None]).reshape(m * n, -1)
        return self.suite.gap_values(rows, self.xstar).reshape(m, n).mean(axis=1)

    def trace(self) -> RunTrace:
        if self._skipped is not None:
            self._keep(self._skipped)
            self._skipped = None
        self._flush()
        # Lyapunov columns this run did not record are None, not empty arrays.
        cols = {
            name: np.array(vals, dtype=int if name == "k" else float)
            for name, vals in self._rows.items()
            if vals or not name.startswith("phi")
        }
        return RunTrace(label=self.label, **cols)


class IdentityMonitor:
    """Hook that tracks the worst residuals of the exact average-iterate
    identities along a run.

    The params select the identities; params that do not track the
    gradient average (`tracks_gradient`) have none. Every run conserves
    push-sum mass, tracks the gradient average and steps its estimate as
    ybar_{k+1} = xbar_k - eta gbar_k, reported as "ybar", or as "xbar" for
    params without a Y/Z recursion (`average_step` None), whose Y is X.
    With `average_step` the zbar step and the coupling of xbar to ybar and
    zbar are checked too, at each state ("coupling") and along each step
    ("xbar"). Residuals are normalized by 1 + the norms of the terms
    entering each identity, so the recorded maxima are directly comparable
    against a tolerance.
    """

    def __init__(self, mixing: MixingMatrix, params):
        if not getattr(params, "tracks_gradient", False):
            raise ValueError(f"no average-iterate identities for {type(params).__name__}")
        self.n = mixing.n
        self.params = params
        self._average_step = params.average_step
        self._prev = None  # (k, xbar, zbar, gbar) of the last state
        self._worst = dict.fromkeys(("mass", "tracking", "ybar", "zbar", "xbar", "coupling"), 0.0)

    def _note(self, key: str, res, scale) -> None:
        self._worst[key] = max(self._worst[key], float(res / scale))

    def __call__(self, state: SolverState) -> None:
        nrm = np.linalg.norm
        xbar, ybar, zbar, gbar = (getattr(state, f).mean(axis=0) for f in "XYZG")
        gbar_true = state.grad_U.mean(axis=0)
        self._note("mass", abs(float(state.v.sum()) - self.n), 1.0)
        self._note("tracking", nrm(gbar - gbar_true), 1.0 + nrm(gbar_true))
        prev, self._prev = self._prev, (state.k, xbar, zbar, gbar)
        if self._average_step is not None:
            tau = self._average_step(state.k)[0]
            coef = (1.0 - tau) / tau
            res = nrm((xbar - zbar) - coef * (ybar - xbar))
            scale = 1.0 + nrm(xbar) + nrm(zbar) + coef * (nrm(ybar) + nrm(xbar))
            self._note("coupling", res, scale)
        if prev is None or state.k != prev[0] + 1:
            return
        k0, xbar0, zbar0, gbar0 = prev
        eta = self.params.eta
        step = nrm(ybar - (xbar0 - eta * gbar0)), 1.0 + nrm(xbar0) + eta * nrm(gbar0)
        if self._average_step is None:
            self._note("xbar", *step)
            return
        self._note("ybar", *step)
        _, beta, gain = self._average_step(k0)
        res = nrm(zbar - ((1.0 - beta) * zbar0 + beta * xbar0 - gain * gbar0))
        scale = 1.0 + nrm(zbar0) + (nrm(xbar0) if beta else 0.0) + gain * nrm(gbar0)
        self._note("zbar", res, scale)
        res = nrm(xbar - ((1.0 - tau) * ybar + tau * zbar))
        self._note("xbar", res, 1.0 + nrm(ybar) + nrm(zbar))

    def worst(self) -> dict:
        return dict(self._worst)
