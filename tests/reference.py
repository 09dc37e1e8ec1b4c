"""Reference code the tests check the package against, kept out of the
package because no program path runs it: the centralized accelerated
recursion that the decentralized solver reduces to on a one-node network,
and spot checks of the inexact descent inequalities the convergence proofs
rest on."""

from dataclasses import dataclass

import numpy as np

from pushopt import DivergenceError


def centralized_agm_run(x0: np.ndarray, suite, params) -> tuple:
    """Single-agent accelerated recursion on the average objective, K steps
    of the schedule of params (an APDParams).

    Returns the (K+1, dim) histories (x, y, z). They match the decentralized
    solver run with the same params exactly when n = 1, C = [1], v0 = 1.
    """
    eta = params.eta
    x = np.array(x0, dtype=float)
    y = x.copy()
    z = x.copy()
    xs, ys, zs = [x.copy()], [y.copy()], [z.copy()]
    for k in range(params.K):
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
    return np.array(xs), np.array(ys), np.array(zs)


@dataclass(frozen=True)
class InexactBoundsReport:
    """Outcome of the inexact convexity/strong-convexity spot-checks."""

    trials: int
    min_slack: float
    sc_slack: float | None
    violations: int


def check_inexact_bounds(suite, state, trials: int, seed: int, xstar) -> InexactBoundsReport:
    """Verify the descent bounds that hold despite gradient-average error.

    Samples random row pairs (a, b) and checks
    f(a) - f(b) <= <gbar, a - b> + (L / 2n) ||U - 1 a||_F^2; when the suite
    is strongly convex also checks the mu-variant at (xbar, x*), x* being
    the minimizer of the average objective. Slack is RHS - LHS; violations
    are counted below -1e-8 * scale.
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
