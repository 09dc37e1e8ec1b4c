"""Decentralized first-order solvers driven by column-stochastic mixing.

All solvers share the stacked-iterate layout: X, Y, Z, G are (n, dim) with
one agent per row, v is the push-sum weight vector, and the mixing matrix
multiplies from the left, in the form `uniform_out_weights` builds (an
in-neighbor gather on large sparse graphs). Each step costs exactly one
gradient batch; the previous batch is cached on the state.

Each params type is the one description of its algorithm: its step, its
"auto" defaults and what the diagnostics compute for it (see `_Method`).
`run` drives any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .mixing import MixingMatrix, NormTransform
from .objectives import ObjectiveSuite

__all__ = [
    "DivergenceError",
    "APDParams",
    "APDSCParams",
    "PushDIGingParams",
    "SubgradPushParams",
    "SolverState",
    "TheoryInputs",
    "init_state",
    "run",
    "apd_run",
    "apdsc_run",
    "push_diging_run",
    "subgradient_push_run",
    "default_params_smooth",
    "default_params_sc",
    "calibrate_theory_inputs",
]

C4 = 26.0 * np.sqrt(np.e)  # tail constant of the schedule-sum bound
_CALIBRATION_STEPS = 50  # mixing rounds calibrate_theory_inputs watches v over
_C_PRAC = 0.3  # practical stepsize constant: "auto" runs at eta = _C_PRAC / L


class DivergenceError(RuntimeError):
    """A solver iterate became non-finite, or a push-sum weight non-positive;
    `what` says which. `algorithm`, when set (the experiment driver sets it),
    prefixes the message."""

    def __init__(self, iteration: int, what: str = "non-finite iterate"):
        super().__init__(iteration, what)
        self.iteration = iteration
        self.what = what
        self.algorithm = None

    def __str__(self) -> str:
        msg = f"{self.what} at iteration {self.iteration}"
        return msg if self.algorithm is None else f"{self.algorithm}: {msg}"


class _Method:
    """What every params type describes besides its fields: one algorithm.

    `step(state, mixing, suite)` advances a state by one iteration, and the
    classmethod `auto(suite, nt, K)` gives the practical defaults. The class
    attributes say what else the algorithm defines; this base holds the
    baselines' values:
    - theoretical: `auto` also takes theory= (TheoryInputs); given, the
      stepsize is the provable ceiling those graph quantities set, not the
      practical one;
    - strongly_convex: it needs a suite with mu > 0;
    - lyapunov_pair: the trace columns (average, consensus) of its Lyapunov
      pair, with `lyapunov_weights(k, delta)` giving (tau_k, Z weight,
      G weight) of that pair; None for no pair;
    - average_step: `average_step(k)` gives (tau_k, beta, alpha_k eta) of
      its average-iterate recursion, xbar = (1 - tau_k) ybar + tau_k zbar
      and zbar_{k+1} = (1 - beta) zbar_k + beta xbar_k - alpha_k eta gbar_k;
      None where it has no Y/Z recursion;
    - tracks_gradient: G tracks the gradient average, so the exact
      average-iterate identities hold.
    """

    theoretical = False
    strongly_convex = False
    lyapunov_pair = None
    average_step = None
    tracks_gradient = True


@dataclass(frozen=True)
class APDParams(_Method):
    """Parameters of the accelerated solver for smooth convex objectives.

    Schedules: tau_k = wb / (1 + wa k), alpha_k = pa / tau_k.
    """

    eta: float
    pa: float = 0.25
    wa: float = 0.25
    wb: float = 1.0
    K: int = field(kw_only=True)

    theoretical = True
    lyapunov_pair = ("phi1", "phi2")

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 0 < self.pa < 1:
            raise ValueError("pa must lie in (0, 1)")
        if not 0 < self.wb <= 1:
            raise ValueError("wb must lie in (0, 1]")
        if self.wa <= 0:
            raise ValueError("wa must be positive")
        if self.K < 0:
            raise ValueError("K must be nonnegative")

    def tau(self, k: int) -> float:
        return self.wb / (1.0 + self.wa * k)

    def alpha(self, k: int) -> float:
        return self.pa / self.tau(k)

    @classmethod
    def auto(cls, suite, nt, K: int, theory=None) -> APDParams:
        return default_params_smooth(suite.L, theory, K=K)

    def step(self, state, mixing, suite) -> SolverState:
        """One accelerated gradient-tracking step with the time-varying schedule."""
        Zmix = state.Z - (self.alpha(state.k) * self.eta) * state.G
        return _accelerated_step(state, mixing, suite, self.eta, Zmix, self.tau(state.k + 1))

    def lyapunov_weights(self, k: int, d: float) -> tuple:
        return self.tau(k), 6.0 / d**2, _c3(self.pa, d) * self.eta**2 / d**4

    def average_step(self, k: int) -> tuple:
        return self.tau(k), 0.0, self.alpha(k) * self.eta


@dataclass(frozen=True)
class APDSCParams(_Method):
    """Parameters of the accelerated solver for strongly convex objectives."""

    eta: float
    alpha: float
    beta: float
    tau: float
    K: int

    theoretical = True
    strongly_convex = True
    lyapunov_pair = ("phi3", "phi4")

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 < self.beta <= self.tau < 1:
            raise ValueError("need 0 < beta <= tau < 1")
        if self.K < 0:
            raise ValueError("K must be nonnegative")

    @classmethod
    def auto(cls, suite, nt, K: int, theory=None) -> APDSCParams:
        return default_params_sc(suite.L, suite.mu, theory, K=K, delta=nt.delta)

    def step(self, state, mixing, suite) -> SolverState:
        """One accelerated gradient-tracking step with constant coefficients."""
        b = self.beta
        Zmix = (1.0 - b) * state.Z + b * state.X - (self.alpha * self.eta) * state.G
        return _accelerated_step(state, mixing, suite, self.eta, Zmix, self.tau)

    def lyapunov_weights(self, k: int, d: float) -> tuple:
        at = self.alpha * self.tau
        return self.tau, 24.0 / (7.0 * d**2), _c5(at, d) * self.eta**2 / d**4

    def average_step(self, k: int) -> tuple:
        return self.tau, self.beta, self.alpha * self.eta


@dataclass(frozen=True)
class PushDIGingParams(_Method):
    """Push-sum gradient tracking with a constant stepsize.

    The Y/Z fields of the state mirror X, so its estimate is x_i / v_i.
    """

    eta: float
    K: int

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.K < 0:
            raise ValueError("K must be nonnegative")

    @classmethod
    def auto(cls, suite, nt, K: int) -> PushDIGingParams:
        return cls(eta=_C_PRAC / suite.L, K=K)

    def step(self, state, mixing, suite) -> SolverState:
        C = mixing.op
        v1 = C @ state.v
        X1 = C @ (state.X - self.eta * state.G)
        gU1 = suite.batch_grad(X1 / v1[:, None])
        G1 = C @ state.G + gU1 - state.grad_U
        return _advance(state, X1, X1, X1, G1, v1, gU1)


@dataclass(frozen=True)
class SubgradPushParams(_Method):
    """Push-sum gradient descent with stepsize step_c / sqrt(k + 1).

    The gradient is applied after mixing: X <- C X - eta_k grad F(V^{-1} X),
    with the schedule 1-based so the first step is well defined. The G field
    of the state is the current raw gradient batch, so no gradient average
    is tracked.
    """

    step_c: float
    K: int

    tracks_gradient = False

    def __post_init__(self):
        if self.step_c <= 0:
            raise ValueError("step_c must be positive")
        if self.K < 0:
            raise ValueError("K must be nonnegative")

    @classmethod
    def auto(cls, suite, nt, K: int) -> SubgradPushParams:
        return cls(step_c=0.18, K=K)

    def step(self, state, mixing, suite) -> SolverState:
        C = mixing.op
        eta_k = self.step_c / np.sqrt(state.k + 1.0)
        v1 = C @ state.v
        X1 = C @ state.X - eta_k * state.grad_U
        gU1 = suite.batch_grad(X1 / v1[:, None])
        return _advance(state, X1, X1, X1, gU1, v1, gU1)


@dataclass(frozen=True)
class SolverState:
    """Stacked iterates of one solver run.

    Y is every solver's reported estimate, read as V^{-1} Y. The baselines
    have no Y/Z recursion: from k = 1 their Y and Z are X itself (equal
    copies at k = 0), and subgradient push's G is the raw gradient batch.
    grad_U caches the gradient batch at V^{-1} X so a step evaluates only the
    new batch.
    """

    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    G: np.ndarray
    v: np.ndarray
    k: int
    grad_U: np.ndarray

    def ratio(self) -> np.ndarray:
        """Push-sum ratio estimate V^{-1} Y; each row is one agent."""
        return self.Y / self.v[:, None]


def _validate_v0(v0: np.ndarray) -> None:
    n = v0.shape[0]
    if (v0 <= 0).any():
        raise ValueError("v0 must be entrywise positive")
    if abs(v0.sum() - n) > 1e-8 * n:
        raise ValueError("v0 entries must sum to the agent count")


def init_state(X0: np.ndarray, v0: np.ndarray, suite: ObjectiveSuite) -> SolverState:
    _validate_v0(v0)
    X0 = np.array(X0, dtype=float)
    v0 = np.array(v0, dtype=float)
    gU = suite.batch_grad(X0 / v0[:, None])
    return SolverState(
        X=X0,
        Y=X0.copy(),
        Z=X0.copy(),
        G=gU.copy(),
        v=v0,
        k=0,
        grad_U=gU,
    )


def _advance(state, X1, Y1, Z1, G1, v1, gU1) -> SolverState:
    k1 = state.k + 1
    # Scanning X1 covers Y1 and Z1: the baselines pass X1 as all three, and
    # the accelerated X1 = (1 - tau) Y1 + tau Z1 (0 < tau < 1) is inf or NaN
    # wherever Y1 or Z1 is, as a finite multiple of inf or NaN is one (0 * inf
    # is NaN) and so is any sum with one.
    for a in (X1, G1, v1):
        if not np.isfinite(a).all():
            raise DivergenceError(k1)
    if v1.min() <= 0:
        raise DivergenceError(k1, what="non-positive push-sum weight")
    return SolverState(
        X=X1,
        Y=Y1,
        Z=Z1,
        G=G1,
        v=v1,
        k=k1,
        grad_U=gU1,
    )


def _accelerated_step(state, mixing, suite, eta: float, Zmix, tau: float) -> SolverState:
    """The step both accelerated solvers share: mix Y = X - eta G and the
    solver's Z update Zmix, couple X = (1 - tau) Y + tau Z, track G."""
    C = mixing.op
    v1 = C @ state.v
    Y1 = C @ (state.X - eta * state.G)
    Z1 = C @ Zmix
    X1 = (1.0 - tau) * Y1 + tau * Z1
    gU1 = suite.batch_grad(X1 / v1[:, None])
    G1 = C @ state.G + gU1 - state.grad_U
    return _advance(state, X1, Y1, Z1, G1, v1, gU1)


def run(X0, v0, mixing, suite, params, hooks=None):
    """Run params.K steps of params' algorithm, calling hooks on every state.

    Returns (output, trace): output row i is agent i's estimate y_i / v_i,
    and trace is hooks.trace() when the hook provides one. Steps and hooks
    run with numpy's overflow, invalid and divide warnings off: `_advance`
    turns every non-finite iterate into DivergenceError, and a diagnostic
    that overflows on the way there is recorded as inf.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = init_state(X0, v0, suite)
        if hooks is not None:
            hooks(state)
        for _ in range(params.K):
            state = params.step(state, mixing, suite)
            if hooks is not None:
                hooks(state)
        return state.ratio(), hooks.trace() if hasattr(hooks, "trace") else None


# The per-algorithm run names bench/child.py calls; ROADMAP item 10 moves it
# to `run` and deletes them.
apd_run = apdsc_run = run


def push_diging_run(X0, v0, mixing, suite, eta: float, K: int, hooks=None):
    return run(X0, v0, mixing, suite, PushDIGingParams(eta, K), hooks)


def subgradient_push_run(X0, v0, mixing, suite, step_c: float, K: int, hooks=None):
    return run(X0, v0, mixing, suite, SubgradPushParams(step_c, K), hooks)


@dataclass(frozen=True)
class TheoryInputs:
    """Graph-dependent quantities entering the provable stepsize ceilings."""

    n: int
    delta: float
    theta: float
    vhat: float
    v0_dist: float  # distance of v0 from the Perron vector in the weighted norm


def calibrate_theory_inputs(
    mixing: MixingMatrix,
    nt: NormTransform,
    v0: np.ndarray,
) -> TheoryInputs:
    """The theory's graph inputs from the mixing, its norm transform and the
    start weights v0. vhat, the push-sum weight floor's inverse, is measured
    as the largest 1 / min v over the first _CALIBRATION_STEPS mixing rounds
    from v0."""
    _validate_v0(v0)
    v = np.array(v0, dtype=float)
    vhat = 1.0 / v.min()
    for _ in range(_CALIBRATION_STEPS):
        v = mixing.op @ v
        vhat = max(vhat, 1.0 / v.min())
    return TheoryInputs(
        n=mixing.n,
        delta=nt.delta,
        theta=nt.theta,
        vhat=float(vhat),
        v0_dist=nt.vec_norm(np.asarray(v0, dtype=float) - mixing.p),
    )


def _c3(pa: float, d: float) -> float:
    return 3.0 * (d**2 + 2.0 * pa**2 * d + 4.0 * pa**2)


def _c5(at: float, d: float) -> float:  # at = alpha * tau
    return (8.0 / 7.0) * (1.5 * d + 6.0 * at**2 * d + 48.0 * at**2 / 7.0)


def _smooth_eta_ceiling(L, params: APDParams, ti: TheoryInputs) -> float:
    pa, wa, wb = params.pa, params.wa, params.wb
    d, th, vh, dist, n = ti.delta, ti.theta, ti.vhat, ti.v0_dist, ti.n
    c3 = _c3(pa, d)
    terms = [
        np.sqrt(pa) * d**4 / (np.sqrt(96.0 * (15.0 + 9.0 * pa) * c3 * C4) * th * vh * L),
        1.0 / (8.0 * pa * L),
        d**4 / (12.0 * th * vh * np.sqrt(c3 * C4 * (6.0 + pa)) * L),
        np.sqrt(wb) * d**4 / (12.0 * np.sqrt(3.0 * wa * c3 * C4) * th * vh * L),
        d**4 / (12.0 * th * vh * np.sqrt(c3 * C4) * L),
    ]
    if dist > 0:
        terms.append(
            n * pa * d**6 / (1920.0 * dist**2 * th**2 * vh**2 * (1.0 + pa) ** 2 * C4 * L)
        )
    return float(min(terms))


def _sc_eta_ceiling(L, at, ti: TheoryInputs) -> float:
    d, th, vh, dist, n = ti.delta, ti.theta, ti.vhat, ti.v0_dist, ti.n
    c5 = _c5(at, d)
    terms = [
        np.sqrt(at) * d**3 / (8.0 * np.sqrt(5.0 * c5 * (15.0 + 9.0 * at)) * th * vh * L),
        1.0 / (24.0 * at * L),
        d**3 / (8.0 * np.sqrt(5.0 * c5 * (18.0 + 3.0 * at)) * th * vh * L),
        d**3 / (8.0 * np.sqrt(15.0 * c5) * th * vh * L),
    ]
    if dist > 0:
        terms.append(
            at * n * d**4 / (2160.0 * th**2 * vh**2 * (1.0 + at) ** 2 * dist**2 * L)
        )
    return float(min(terms))


def default_params_smooth(L: float, theory: TheoryInputs | None = None, *, K: int) -> APDParams:
    """Default parameters for the smooth convex solver: APDParams' own
    schedule defaults with the practical stepsize _C_PRAC / L when `theory` is
    None, else with the provable stepsize ceiling that the graph quantities
    in `theory` set. Another practical stepsize is APDParams(eta=c / L, K=K).
    """
    if L <= 0:
        raise ValueError("L must be positive")
    params = APDParams(eta=_C_PRAC / L, K=K)
    if theory is not None:
        params = replace(params, eta=_smooth_eta_ceiling(L, params, theory))
    return params


def default_params_sc(
    L: float,
    mu: float,
    theory: TheoryInputs | None = None,
    c_prac: float = _C_PRAC,
    *,
    K: int,
    delta: float,
) -> APDSCParams:
    """Default parameters for the strongly convex solver on a graph whose
    contraction norm has gap delta (`NormTransform.delta`).

    The stepsize is the practical c_prac / L when `theory` is None, else the
    provable ceiling that the graph quantities in `theory` set (c_prac is
    then unused). Sets tau = sqrt(mu eta / 24) and alpha = 1 / (12 tau), so
    alpha tau = 1/12 and the candidate mu alpha eta / 2 equals tau. beta is
    the least of tau, mu alpha eta / 2 and the graph's caps delta / 16 and
    delta^2 / (8 tau).
    """
    if not 0 < mu <= L:
        raise ValueError("need 0 < mu <= L")
    at = 1.0 / 12.0
    eta = c_prac / L if theory is None else _sc_eta_ceiling(L, at, theory)
    tau = np.sqrt(mu * eta / 24.0)
    alpha = 1.0 / (12.0 * tau)
    beta = float(min(tau, 0.5 * mu * alpha * eta, delta / 16.0, delta**2 / (8.0 * tau)))
    return APDSCParams(eta=float(eta), alpha=float(alpha), beta=beta, tau=float(tau), K=K)
