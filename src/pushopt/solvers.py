"""Decentralized first-order solvers driven by column-stochastic mixing.

All solvers share the stacked-iterate layout: X, Y, Z, G are (n, dim) with
one agent per row, v is the push-sum weight vector, and the mixing matrix
multiplies from the left, in the form `MixingMatrix.op` picks (CSR on large
sparse graphs). Each step costs exactly one gradient batch; the
previous batch is cached on the state.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "apd_step",
    "apd_run",
    "apdsc_step",
    "apdsc_run",
    "push_diging_step",
    "push_diging_run",
    "subgradient_push_step",
    "subgradient_push_run",
    "centralized_agm_run",
    "AGMTrace",
    "default_params_smooth",
    "default_params_sc",
    "calibrate_theory_inputs",
]

C4 = 26.0 * np.sqrt(np.e)  # tail constant of the schedule-sum bound


class DivergenceError(RuntimeError):
    """A solver iterate became non-finite."""

    def __init__(self, iteration: int, what: str = "iterate"):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class APDParams:
    """Parameters of the accelerated solver for smooth convex objectives.

    Schedules: tau_k = wb / (1 + wa k), alpha_k = pa / tau_k.
    """

    eta: float
    pa: float = 0.25
    wa: float = 0.25
    wb: float = 1.0
    K: int = 1000

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


@dataclass(frozen=True)
class APDSCParams:
    """Parameters of the accelerated solver for strongly convex objectives."""

    eta: float
    alpha: float
    beta: float
    tau: float
    K: int = 1000

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 < self.beta <= self.tau < 1:
            raise ValueError("need 0 < beta <= tau < 1")
        if self.K < 0:
            raise ValueError("K must be nonnegative")


@dataclass(frozen=True)
class PushDIGingParams:
    """Parameters of push-sum gradient tracking with a constant stepsize."""

    eta: float
    K: int = 1000

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.K < 0:
            raise ValueError("K must be nonnegative")


@dataclass(frozen=True)
class SubgradPushParams:
    """Parameters of push-sum gradient descent with stepsize step_c / sqrt(k + 1)."""

    step_c: float
    K: int = 1000

    def __post_init__(self):
        if self.step_c <= 0:
            raise ValueError("step_c must be positive")
        if self.K < 0:
            raise ValueError("K must be nonnegative")


@dataclass(frozen=True)
class SolverState:
    """Stacked iterates of one solver run.

    Y is every solver's reported estimate, read as V^{-1} Y. The baselines
    have no Y/Z recursion: from k = 1 their Y and Z are X itself (equal
    copies at k = 0), and subgradient push's G is the raw gradient batch.
    grad_U caches the gradient batch at V^{-1} X so a step evaluates only the
    new batch. vhat_seen tracks the running max of 1 / min_i v_i.
    """

    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    G: np.ndarray
    v: np.ndarray
    k: int
    vhat_seen: float
    grad_U: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def ratio(self, field: str = "Y") -> np.ndarray:
        """Push-sum ratio estimate V^{-1} (field); each row is one agent."""
        M = getattr(self, field)
        return M / self.v[:, None]


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
        vhat_seen=float(1.0 / v0.min()),
        grad_U=gU,
    )


def _advance(state, X1, Y1, Z1, G1, v1, gU1) -> SolverState:
    k1 = state.k + 1
    if not (
        np.isfinite(X1).all()
        and np.isfinite(Y1).all()
        and np.isfinite(Z1).all()
        and np.isfinite(G1).all()
        and np.isfinite(v1).all()
    ):
        raise DivergenceError(k1)
    if v1.min() <= 0:
        raise DivergenceError(k1, what="push-sum weight")
    return SolverState(
        X=X1,
        Y=Y1,
        Z=Z1,
        G=G1,
        v=v1,
        k=k1,
        vhat_seen=max(state.vhat_seen, float(1.0 / v1.min())),
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


def apd_step(
    state: SolverState,
    mixing: MixingMatrix,
    suite: ObjectiveSuite,
    params: APDParams,
) -> SolverState:
    """One accelerated gradient-tracking step with the time-varying schedule."""
    Zmix = state.Z - (params.alpha(state.k) * params.eta) * state.G
    return _accelerated_step(state, mixing, suite, params.eta, Zmix, params.tau(state.k + 1))


def apdsc_step(
    state: SolverState,
    mixing: MixingMatrix,
    suite: ObjectiveSuite,
    params: APDSCParams,
) -> SolverState:
    """One accelerated gradient-tracking step with constant coefficients."""
    b = params.beta
    Zmix = (1.0 - b) * state.Z + b * state.X - (params.alpha * params.eta) * state.G
    return _accelerated_step(state, mixing, suite, params.eta, Zmix, params.tau)


def push_diging_step(state, mixing, suite, params: PushDIGingParams) -> SolverState:
    """One push-sum gradient-tracking step with a constant stepsize."""
    C = mixing.op
    v1 = C @ state.v
    X1 = C @ (state.X - params.eta * state.G)
    gU1 = suite.batch_grad(X1 / v1[:, None])
    G1 = C @ state.G + gU1 - state.grad_U
    return _advance(state, X1, X1, X1, G1, v1, gU1)


def subgradient_push_step(state, mixing, suite, params: SubgradPushParams) -> SolverState:
    """One push-sum gradient step with stepsize step_c / sqrt(k + 1)."""
    C = mixing.op
    eta_k = params.step_c / np.sqrt(state.k + 1.0)
    v1 = C @ state.v
    X1 = C @ state.X - eta_k * state.grad_U
    gU1 = suite.batch_grad(X1 / v1[:, None])
    return _advance(state, X1, X1, X1, gU1, v1, gU1)


def _drive(step, params, X0, v0, mixing, suite, hooks):
    """Run params.K steps, calling hooks on every state; return (V^-1 Y, trace)."""
    state = init_state(X0, v0, suite)
    if hooks is not None:
        hooks(state)
    for _ in range(params.K):
        state = step(state, mixing, suite, params)
        if hooks is not None:
            hooks(state)
    return state.ratio(), hooks.trace() if hasattr(hooks, "trace") else None


def apd_run(X0, v0, mixing, suite, params: APDParams, hooks=None):
    """Run the schedule-based accelerated solver for params.K steps.

    Returns (output, trace) where output row i is agent i's estimate
    y_i / v_i and trace is hooks.trace() when the hook provides one.
    """
    return _drive(apd_step, params, X0, v0, mixing, suite, hooks)


def apdsc_run(X0, v0, mixing, suite, params: APDSCParams, hooks=None):
    """Run the constant-coefficient accelerated solver for params.K steps."""
    return _drive(apdsc_step, params, X0, v0, mixing, suite, hooks)


def push_diging_run(X0, v0, mixing, suite, eta: float, K: int, hooks=None):
    """Gradient tracking with push-sum weights and a constant stepsize.

    The Y/Z fields of the state mirror X so trace handling is uniform
    across solvers. Output rows are x_i / v_i.
    """
    return _drive(push_diging_step, PushDIGingParams(eta, K), X0, v0, mixing, suite, hooks)


def subgradient_push_run(X0, v0, mixing, suite, step_c: float, K: int, hooks=None):
    """Push-sum gradient descent with the diminishing schedule c / sqrt(k+1).

    The gradient is applied after mixing: X <- C X - eta_k grad F(V^{-1} X),
    with the schedule 1-based so the first step is well defined. The G field
    of the state mirrors the current raw gradient batch.
    """
    params = SubgradPushParams(step_c, K)
    return _drive(subgradient_push_step, params, X0, v0, mixing, suite, hooks)


@dataclass(frozen=True)
class AGMTrace:
    """Iterate history of the centralized accelerated recursion."""

    x: np.ndarray  # (K+1, dim)
    y: np.ndarray
    z: np.ndarray


def centralized_agm_run(
    x0: np.ndarray,
    suite: ObjectiveSuite,
    eta: float,
    pa: float = 0.25,
    wa: float = 0.25,
    wb: float = 1.0,
    K: int = 1000,
) -> AGMTrace:
    """Single-agent accelerated recursion on the average objective.

    Matches the decentralized solver exactly when n = 1, C = [1], v0 = 1.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    params = APDParams(eta=eta, pa=pa, wa=wa, wb=wb, K=K)
    x = np.array(x0, dtype=float)
    y = x.copy()
    z = x.copy()
    xs, ys, zs = [x.copy()], [y.copy()], [z.copy()]
    for k in range(K):
        g = suite.average_grad(x)
        if not np.isfinite(g).all():
            raise DivergenceError(k)
        y1 = x - eta * g
        z1 = z - (params.alpha(k) * eta) * g
        tau_next = params.tau(k + 1)
        x = (1.0 - tau_next) * y1 + tau_next * z1
        y, z = y1, z1
        if not np.isfinite(x).all():
            raise DivergenceError(k + 1)
        xs.append(x.copy())
        ys.append(y.copy())
        zs.append(z.copy())
    return AGMTrace(x=np.array(xs), y=np.array(ys), z=np.array(zs))


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
    iters: int = 50,
) -> TheoryInputs:
    """Measure the push-sum weight floor over a short calibration run."""
    _validate_v0(v0)
    v = np.array(v0, dtype=float)
    vhat = 1.0 / v.min()
    for _ in range(iters):
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


def _smooth_eta_ceiling(L, pa, wa, wb, ti: TheoryInputs) -> float:
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


def default_params_smooth(
    L: float,
    mode: str = "practical",
    theory: TheoryInputs | None = None,
    c_prac: float = 0.3,
    K: int = 1000,
) -> APDParams:
    """Default schedule parameters for the smooth convex solver.

    Practical mode uses the hand-tuned stepsize c_prac / L. Theoretical mode
    evaluates the provable stepsize ceilings from the supplied graph
    quantities and therefore needs `theory`.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    pa, wb = 0.25, 1.0
    wa = wb / 4.0
    if mode == "practical":
        eta = c_prac / L
    elif mode == "theoretical":
        if theory is None:
            raise ValueError("theoretical mode needs TheoryInputs")
        eta = _smooth_eta_ceiling(L, pa, wa, wb, theory)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return APDParams(eta=eta, pa=pa, wa=wa, wb=wb, K=K)


def default_params_sc(
    L: float,
    mu: float,
    mode: str = "practical",
    theory: TheoryInputs | None = None,
    c_prac: float = 0.3,
    K: int = 1000,
    delta: float | None = None,
) -> APDSCParams:
    """Default parameters for the strongly convex solver.

    Sets tau = sqrt(mu eta / 24) and alpha = 1 / (12 tau), so alpha tau =
    1/12 and the candidate mu alpha eta / 2 equals tau. The graph-dependent
    caps on beta apply when delta is known (explicitly or via `theory`).
    """
    if not 0 < mu <= L:
        raise ValueError("need 0 < mu <= L")
    at = 1.0 / 12.0
    if mode == "practical":
        eta = c_prac / L
    elif mode == "theoretical":
        if theory is None:
            raise ValueError("theoretical mode needs TheoryInputs")
        eta = _sc_eta_ceiling(L, at, theory)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    tau = np.sqrt(mu * eta / 24.0)
    alpha = 1.0 / (12.0 * tau)
    beta_candidates = [tau, 0.5 * mu * alpha * eta]
    if delta is None and theory is not None:
        delta = theory.delta
    if delta is not None:
        beta_candidates += [delta / 16.0, delta**2 / (8.0 * tau)]
    beta = float(min(beta_candidates))
    return APDSCParams(eta=float(eta), alpha=float(alpha), beta=beta, tau=float(tau), K=K)
