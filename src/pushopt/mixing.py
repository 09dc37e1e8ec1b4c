"""Column-stochastic mixing matrices and their spectral/contraction structure."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .graphs import DirectedGraph, is_strongly_connected

__all__ = [
    "MixingMatrix",
    "NormTransform",
    "uniform_out_weights",
    "perron_vector",
    "build_contraction_norm",
]


def _minus_perron(p: np.ndarray, A: np.ndarray | None = None) -> np.ndarray:
    """A - p 1^T / n, with A = I by default (the projector off the Perron
    direction).

    The rank-one term is broadcast from p / n rather than formed with
    np.outer: p_i * 1 is exact, so the entries are bitwise those of
    A - np.outer(p, np.ones(n)) / n without the n-by-n temporary.
    """
    n = p.shape[0]
    if A is None:
        A = np.eye(n)
    return A - (p / n)[:, None]


# Where the solvers switch to CSR; measured in MixingMatrix.op's docstring.
_CSR_MIN_N = 150
_CSR_MAX_FILL = 1 / 16


@dataclass(frozen=True)
class MixingMatrix:
    """Column-stochastic weights C with Perron vector p and spectral gap data.

    C[i, j] is the weight receiver i applies to sender j's message, so each
    column is owned by its sender and sums to one. p is the positive right
    eigenvector of C at eigenvalue 1, scaled so its entries sum to n. The
    spectral radius sigma of C - p 1^T / n is not kept here: it is read off
    the contraction norm's Schur factorization, as
    `build_contraction_norm(C, p).sigma`.

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
        import scipy.sparse  # only here: the import adds about 0.6 MB of RSS

        op = scipy.sparse.csr_array(self.C)
        for a in (op.data, op.indices, op.indptr):
            a.flags.writeable = False
        return op


@dataclass(frozen=True)
class NormTransform:
    """Invertible matrix realizing a weighted norm that contracts the mixing error.

    The vector norm is x -> ||Ctilde x||_2 and the matrix norm of an n-by-p
    stack is ||Ctilde A||_F (column-wise application). Ctilde is scaled so
    ||Ctilde x|| <= ||x|| <= theta ||Ctilde x|| for every x; the induced norm
    of C - p 1^T / n is at most 1 - delta. sigma is the spectral radius of
    that map, strictly below 1, read off the Schur factorization the
    transform is built from; it is the library's only source of sigma.
    contraction_norm and projector_norm record the numerically measured
    induced norms of the mixing-error map and of I - p 1^T / n (the latter
    is exactly 1 only for the ideal transform, so the measured value is
    kept).
    """

    Ctilde: np.ndarray
    sigma: float
    delta: float
    theta: float
    p: np.ndarray
    contraction_norm: float
    projector_norm: float

    def vec_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.Ctilde @ x))

    def mat_norm(self, A: np.ndarray) -> float:
        return float(np.linalg.norm(self.Ctilde @ A))


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
    p = np.ones(n)
    for _ in range(cap):
        q = C @ p
        q *= n / q.sum()
        if np.linalg.norm(C @ q - q) <= tol * np.linalg.norm(q):
            p = q
            break
        p = q
    else:
        raise RuntimeError(
            "power iteration did not converge; matrix is not regular"
        )
    p *= n / p.sum()
    if p.min() <= 0:
        raise RuntimeError("Perron vector has nonpositive entries")
    return p


def _spectral_norm(A: np.ndarray) -> float:
    """||A||_2 without an SVD: the square root of the top eigenvalue of the
    Gram matrix of A / max|A|, from a symmetric eigensolver, times max|A|.

    The scaling keeps the Gram matrix's entries near 1 whatever the size of
    A's. On 400 x 400 matrices (one BLAS thread, 2-CPU x86-64 host, numpy
    2.4, scipy 1.17) this takes 7.6-9.2 ms against 17.6-18.8 ms for
    np.linalg.norm(A, 2), and the two agree within 2e-15 relative.
    """
    scale = np.abs(A).max()
    if scale == 0.0:
        return 0.0
    B = A / scale
    n = B.shape[1]
    top = scipy.linalg.eigh(B.T @ B, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    return float(scale * np.sqrt(top[0]))


def _schur_blocks(T: np.ndarray) -> tuple:
    """Read the diagonal blocks of a real Schur form T once.

    Returns (sigma, s, block_id). sigma is the spectral radius of T, checked
    to be below 1. Every eigenvalue sits in a diagonal block: |t_ii| for a
    1x1 block, and sqrt(det) for a standardized 2x2 block [[a, b], [c, a]]
    with bc < 0, whose complex pair a +- i sqrt(-bc) has modulus
    sqrt(a^2 - bc) (Golub & Van Loan, Matrix Computations, 7.4-7.5). A 2x2
    block's |a| is at most its modulus, so taking every |t_ii| as well
    leaves the maximum alone. s is the diagonal of the scaling that turns
    each 2x2 block into a rotation-like block whose spectral norm equals its
    spectral radius, and block_id[i] is the index of the diagonal block
    containing row i.
    """
    n = T.shape[0]
    i = np.flatnonzero(np.diag(T, -1))
    det = T[i, i] * T[i + 1, i + 1] - T[i, i + 1] * T[i + 1, i]
    sigma = float(max(np.abs(np.diag(T)).max(), np.sqrt(det).max(initial=0.0)))
    if sigma >= 1.0:
        raise ValueError(f"spectral radius {sigma} >= 1: invalid mixing matrix")
    # LAPACK standardized block: equal diagonal, opposite-sign corners.
    ratio = -T[i + 1, i] / T[i, i + 1]
    scaled = ratio > 0
    s = np.ones(n)
    s[i[scaled] + 1] = np.sqrt(ratio[scaled])
    second_rows = np.zeros(n, dtype=int)
    second_rows[i + 1] = 1
    return sigma, s, np.arange(n) - np.cumsum(second_rows)


def build_contraction_norm(
    C: np.ndarray, p: np.ndarray, epsilon: float | None = None
) -> NormTransform:
    """Construct the weighted norm under which C - p 1^T / n contracts.

    Uses a real Schur decomposition of the mixing-error map with a graded
    diagonal rescaling of the off-diagonal part, shrunk until the induced
    spectral norm falls below sigma + epsilon. Defaults to
    epsilon = (1 - sigma) / 2; a caller that picks epsilon from sigma reads
    it off the default transform first. That one factorization is the only
    nonsymmetric eigen-work: sigma is read off its diagonal blocks and kept
    on the result. The spectral norms are taken from symmetric eigensolves
    of Gram matrices.
    """
    M = _minus_perron(p, C)
    T, Q = scipy.linalg.schur(M, output="real")
    sigma, s, block_id = _schur_blocks(T)
    if epsilon is None:
        epsilon = (1.0 - sigma) / 2.0
    if not (0.0 < epsilon < 1.0 - sigma):
        raise ValueError(
            f"epsilon must lie in (0, {1.0 - sigma}); got {epsilon}"
        )
    target = sigma + epsilon

    # Aim slightly below the target so the re-measured norm of the assembled
    # transform stays under 1 - delta despite rounding.
    t = 1.0
    for _ in range(400):
        sd = s * t ** block_id
        A = T * (sd[None, :] / sd[:, None])
        if _spectral_norm(A) <= target * (1.0 - 1e-9):
            break
        t *= 0.8
    else:
        raise RuntimeError("graded rescaling failed to reach the contraction target")

    # (Q diag(sd))^{-1} has singular values 1/sd, so normalizing by the
    # largest keeps ||Ctilde x|| <= ||x|| with theta = max(sd)/min(sd).
    Ctilde = (Q / sd[None, :]).T
    Ctilde_inv = Q * sd[None, :]
    smax = 1.0 / sd.min()
    Ctilde = Ctilde / smax
    Ctilde_inv = Ctilde_inv * smax
    theta = float(sd.max() / sd.min())

    contraction = _spectral_norm(Ctilde @ M @ Ctilde_inv)
    projector_norm = _spectral_norm(Ctilde @ _minus_perron(p) @ Ctilde_inv)
    return NormTransform(
        Ctilde=Ctilde,
        sigma=sigma,
        delta=1.0 - sigma - epsilon,
        theta=theta,
        p=p.copy(),
        contraction_norm=contraction,
        projector_norm=projector_norm,
    )
