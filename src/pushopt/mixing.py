"""Column-stochastic mixing matrices and their spectral/contraction structure."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import DirectedGraph, is_strongly_connected

__all__ = [
    "MixingMatrix",
    "NormTransform",
    "uniform_out_weights",
    "perron_vector",
    "build_contraction_norm",
]


def _minus_perron(p: np.ndarray, A: np.ndarray) -> np.ndarray:
    """A - p 1^T / n, a new array.

    The rank-one term is broadcast from p / n rather than formed with
    np.outer: p_i * 1 is exact, so the entries are bitwise those of
    A - np.outer(p, np.ones(n)) / n without the n-by-n temporary.
    """
    return A - (p / p.shape[0])[:, None]


# Where the solvers switch to CSR; measured in MixingMatrix.op's docstring.
_CSR_MIN_N = 150
_CSR_MAX_FILL = 1 / 16


@dataclass(frozen=True)
class MixingMatrix:
    """Column-stochastic weights C with their Perron vector p.

    C[i, j] is the weight receiver i applies to sender j's message, so each
    column is owned by its sender and sums to one. p is the positive right
    eigenvector of C at eigenvalue 1, scaled so its entries sum to n. The
    contraction factor of C - p 1^T / n is not kept here: it belongs to the
    norm it is measured in, `build_contraction_norm(C, p).rho`.

    C is always the dense matrix. The solvers multiply by `op` instead: a
    read-only scipy CSR copy of C when n >= 150 and at most n^2 / 16 entries
    are nonzero, so one mixing round costs O(n + |E|) as in the push-sum
    protocol; C itself otherwise, where dense BLAS is faster.
    """

    C: np.ndarray
    p: np.ndarray

    @property
    def n(self) -> int:
        return self.C.shape[0]

    def error_map(self) -> np.ndarray:
        """The mixing-error matrix C - p 1^T / n."""
        return _minus_perron(self.p, self.C)

    @cached_property
    def op(self):
        """C in the form the solver products use, built on first use.

        A CSR array equal to C entry for entry when n >= 150 and at most
        n^2 / 16 entries are nonzero, else C. Both support `op @ X` for a
        vector or an (n, d) stack, but CSR sums each row in a different
        order, so its products differ from the dense ones in rounding.

        The rule comes from timing C @ X, X of shape (n, 5), with one BLAS
        thread on a 2-CPU x86-64 host (numpy 2.4, scipy 1.17), dense against
        CSR, on ring + 3n-link graphs (about 6n nonzeros): n = 20: 2.3 vs
        8.0 us; n = 96: 6.7 vs 11.0 us; n = 128: 10.1 vs 11.8 us; n = 150:
        13.5 vs 12.2 us; n = 200: 18.5 vs 11.4 us; n = 400: 78 vs 14 us.
        Three such products plus C @ v, as in one solver step, cost the
        same both ways near n = 150-160. Denser graphs favour the dense
        product: at n = 400 CSR wins at 6.5% nonzero (58 vs 78 us) and
        loses at 12.8% (108 vs 87 us).
        """
        n = self.n
        if n < _CSR_MIN_N or np.count_nonzero(self.C) > _CSR_MAX_FILL * n * n:
            return self.C
        # Imported only here: after `import pushopt.cli` it takes 0.2-0.27 s
        # and 13.5 MB of peak RSS, which a run with dense products never pays.
        import scipy.sparse

        op = scipy.sparse.csr_array(self.C)
        for a in (op.data, op.indices, op.indptr):
            a.flags.writeable = False
        return op


@dataclass(frozen=True)
class NormTransform:
    """The Perron-weighted diagonal norm, in which the mixing error contracts.

    The vector norm is x -> ||w x||_2 with w = sqrt(p_min / p) entrywise,
    and the matrix norm of an n-by-d stack is ||w[:, None] A||_F. As
    1 / theta <= w_i <= 1 with theta = sqrt(p_max / p_min),
    ||w x|| <= ||x|| <= theta ||w x|| for every x. The induced norm of
    C - p 1^T / n is ||D^-1/2 (C - p 1^T / n) D^1/2||_2, D = diag(p); rho is
    an upper bound of it on a 2^-32 grid, below 1 and at most about 3e-9
    above it at n = 400 (see `build_contraction_norm`), and delta =
    1 - rho - epsilon. Applying the norm costs O(n) per vector, O(n d) per
    stack. C is the mixing matrix the norm was built for (the caller's
    array, not a copy).
    """

    w: np.ndarray
    rho: float
    delta: float
    theta: float
    p: np.ndarray
    C: np.ndarray = field(repr=False)

    @property
    def Ctilde(self) -> np.ndarray:
        """The norm's matrix, diag(w): ||x|| = ||Ctilde x||_2. A new n-by-n
        array on each read; the library itself scales by w."""
        return np.diag(self.w)

    @property
    def contraction_norm(self) -> float:
        """||Ctilde (C - p 1^T / n) Ctilde^{-1}||_2, bounded from above: rho."""
        return self.rho

    @property
    def projector_norm(self) -> float:
        """||Ctilde (I - p 1^T / n) Ctilde^{-1}||_2 = 1.

        The map is I - u u^T with u = sqrt(p / n), whose eigenvalues are 1
        and 1 - ||u||^2 = 1 - sum(p) / n, which is 0 up to rounding: an
        orthogonal projector.
        """
        return 1.0

    def vec_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.w * x))

    def mat_norm(self, A: np.ndarray) -> float:
        return float(np.linalg.norm(self.w[:, None] * A))


def uniform_out_weights(g: DirectedGraph) -> MixingMatrix:
    """Mixing matrix where each sender splits weight evenly over itself and
    its out-neighbors.

    Column j carries 1/(outdeg(j)+1) at rows {j} and each receiver of j.
    """
    if not is_strongly_connected(g):
        raise ValueError("mixing weights require a strongly connected graph")
    n = g.n
    C = np.zeros((n, n))
    nbrs = g.out_neighbors()
    for j in range(n):
        w = 1.0 / (len(nbrs[j]) + 1)
        C[j, j] = w
        for i in nbrs[j]:
            C[i, j] = w
    return MixingMatrix(C=C, p=perron_vector(C))


def perron_vector(C: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Positive right eigenvector of a regular column-stochastic C at
    eigenvalue 1, normalized so its entries sum to n.

    Power iteration; raises if the residual does not fall below
    tol * ||p|| within the iteration cap (a non-regular matrix).
    """
    n = C.shape[0]
    cap = int(100 * n * max(np.log(n), 1.0)) + 10_000
    # C @ p of each iterate serves both its residual and the next iterate.
    Cp = C @ np.ones(n)
    for _ in range(cap):
        p = Cp
        p *= n / p.sum()
        Cp = C @ p
        if np.linalg.norm(Cp - p) <= tol * np.linalg.norm(p):
            break
    else:
        raise RuntimeError(
            "power iteration did not converge; matrix is not regular"
        )
    p *= n / p.sum()
    if p.min() <= 0:
        raise RuntimeError("Perron vector has nonpositive entries")
    return p


# rho is rounded up to this grid, so that rounding differences far below it
# (a different BLAS thread count, say) leave it, and every output, alone.
_RHO_GRID = 2.0**-32


def build_contraction_norm(
    C: np.ndarray, p: np.ndarray, epsilon: float = 0.0
) -> NormTransform:
    """Construct the Perron-weighted diagonal norm under which C - p 1^T / n
    contracts: delta = 1 - rho - epsilon, theta = sqrt(p_max / p_min).

    rho = ||M||_2 for M = D^-1/2 (C - p 1^T / n) D^1/2, D = diag(p), which
    equals S - u u^T with S = D^-1/2 C D^1/2 and u = sqrt(p / n). Where C
    is column-stochastic with a positive diagonal and a strongly connected
    graph (as `uniform_out_weights` builds it) and p its Perron vector, rho
    is the second singular value of S and below 1 (Fill, Ann. Appl. Probab.
    1(1), 1991: S S^T keeps C's support, so it is irreducible). rho >= 1
    raises ValueError, and epsilon must lie in [0, 1 - rho).

    M is formed once from the given p and C, entry by entry, and rho is the
    square root of the top eigenvalue of its Gram matrix G = M^T M from
    np.linalg.eigvalsh: no nonsymmetric eigen-work and no SVD. The computed
    value is then raised to a bound, with eps = 2^-52 and F = 2 trace(G),
    which is at least ||M||_F^2 (1 + n eps):
    - the Gram product's entrywise error, at most n (eps / 2) |M|^T |M|, has
      spectral norm at most n eps F / 2;
    - the eigensolver is backward stable: its eigenvalues are exact for G + E
      with ||E||_2 <= n^2 (eps / 2) ||G||_F (the worst-case form of the
      Householder tridiagonalization bound, Higham, Accuracy and Stability
      of Numerical Algorithms, 2nd ed., ch. 19), and ||G||_F <= F;
    so by Weyl the top eigenvalue of M^T M is within (n + n^2) (eps / 2) F
    of the computed one, lambda; the build adds twice that, n (n + 1) eps F,
    as slack for the constants these bounds leave open. Forming M rounds each entry by at most 3 eps (|S_ij| + u_i u_j),
    a spectral error of at most 3 eps (||M||_F + 2) <= 4 eps (sqrt(F) + 2).
    A final factor 1 + 2 eps covers the rounding of the bound's own sum
    and square root, and the result is rounded up to the 2^-32 grid.
    Rounding up only shrinks delta, so delta is a certificate. On the
    n = 400 bench graph (ring + 1200 links, seed 7) the computed value sits
    2.2e-16 above np.linalg.norm(M, 2), and the bound and the grid raise it
    by 3.0e-9 to rho = 0.8623.

    The build holds two n-by-n float64 arrays at once, M and G; eigvalsh's
    own copy of G replaces M. At n = 400 (one BLAS thread, 2-CPU x86-64
    host, numpy 2.4) it takes 10.8 ms (median of 25 calls), 8.1 ms of it
    the eigensolve.
    """
    C = np.asarray(C)
    p = np.asarray(p)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or p.shape != C.shape[:1]:
        raise ValueError(
            "C must be a square matrix and p a vector of its size; "
            f"got C of shape {C.shape} and p of shape {p.shape}"
        )
    if not p.min() > 0.0:
        raise ValueError(f"p must be positive; its smallest entry is {p.min()}")
    n = C.shape[0]
    root_p = np.sqrt(p)
    M = _minus_perron(p, C)
    M *= root_p
    M /= root_p[:, None]
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    G = M.T @ M
    del M
    F = 2.0 * float(np.trace(G))
    eps = np.finfo(float).eps
    top = float(np.linalg.eigvalsh(G)[-1]) + n * (n + 1) * eps * F
    rho = (np.sqrt(top) + 4.0 * eps * (np.sqrt(F) + 2.0)) * (1.0 + 2.0 * eps)
    rho = float(np.ceil(rho / _RHO_GRID) * _RHO_GRID)
    if rho >= 1.0:
        raise ValueError(f"contraction factor {rho} >= 1: invalid mixing matrix")
    if not 0.0 <= epsilon < 1.0 - rho:
        raise ValueError(f"epsilon must lie in [0, {1.0 - rho}); got {epsilon}")
    p_min = p.min()
    return NormTransform(
        w=np.sqrt(p_min / p),
        rho=rho,
        delta=1.0 - rho - epsilon,
        theta=float(np.sqrt(p.max() / p_min)),
        p=p.copy(),
        C=C,
    )
