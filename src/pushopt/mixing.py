"""Column-stochastic mixing matrices and their spectral/contraction structure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraph, is_strongly_connected

__all__ = [
    "MixingMatrix",
    "NormTransform",
    "uniform_out_weights",
    "perron_vector",
    "build_contraction_norm",
]


def _minus_perron(p: np.ndarray, A) -> np.ndarray:
    """A - p 1^T / n as a new array, for A dense or an in-neighbor gather.

    The rank-one term is broadcast from q = p / n rather than formed with
    np.outer: q_i * 1 is exact, so the entries are bitwise those of
    A - np.outer(p, np.ones(n)) / n without the n-by-n temporary. From a
    gather, row i is filled with -q_i and A's nonzeros are added in place:
    -q_i + A[i, j] is A[i, j] - q_i exactly, so both forms give the same bits
    from one n-by-n allocation.
    """
    q = p / p.shape[0]
    if not isinstance(A, _InNeighborGather):
        return A - q[:, None]
    M = np.empty(A.shape)
    M[...] = -q[:, None]
    return A.add_into(M)


# Where the solvers switch to the in-neighbor gather; measured in
# uniform_out_weights' docstring.
_GATHER_MIN_N = 150
_GATHER_MAX_FILL = 1 / 16
_GATHER_MAX_PAD = 4


class _InNeighborGather:
    """C = A diag(c), A a 0/1 matrix, applied as one push-sum round: scale
    each sender j by its share c[j], then sum over each row's in-neighbors.

    index[s, i] is row i's s-th nonzero column in ascending order, and n,
    which points at a zero row, past row i's in-degree. `op @ A` takes a
    vector or an (n, d) stack. Each term c[j] * A[j] is C[i, j] * A[j]
    exactly, the sum over slots starts at 0.0 and runs in column order, and
    padding adds +0.0, so every product is bitwise that of a CSR row loop.
    """

    def __init__(self, index: np.ndarray, c: np.ndarray):
        self.index = index
        self.c = c

    @property
    def shape(self) -> tuple:
        n = self.c.shape[0]
        return (n, n)

    def add_into(self, out: np.ndarray) -> np.ndarray:
        """out += C in place, one addition per nonzero of C; returns out.

        Into zeros this gives C itself bit for bit: each nonzero C[i, j] is
        c[j], and zeros stay +0.0.
        """
        m, n = self.index.shape
        cols = self.index.T.reshape(-1)
        keep = cols < n
        cols = cols[keep]
        rows = np.repeat(np.arange(n), m)[keep]
        out[rows, cols] += self.c[cols]
        return out

    def __matmul__(self, A: np.ndarray) -> np.ndarray:
        n = self.c.shape[0]
        scaled = np.empty((n + 1,) + A.shape[1:])
        np.multiply(A, self.c.reshape((n,) + (1,) * (A.ndim - 1)), out=scaled[:n])
        scaled[n] = 0.0
        terms = scaled.take(self.index.reshape(-1), axis=0, mode="clip")
        return terms.reshape(self.index.shape + A.shape[1:]).sum(axis=0, initial=0.0)


class MixingMatrix:
    """Column-stochastic weights C, in the form the solvers multiply by, with
    their Perron vector p.

    C[i, j] is the weight receiver i applies to sender j's message, so each
    column is owned by its sender and sums to one. p is the positive right
    eigenvector of C at eigenvalue 1, scaled so its entries sum to n. The
    contraction factor of C - p 1^T / n is not kept here: it belongs to the
    norm it is measured in, `build_contraction_norm(op, p).rho`.

    `op` is C as the solver products use it: the dense C, or a read-only
    in-neighbor gather of it (`uniform_out_weights` picks the form from the
    graph). Both support `op @ X` for a vector or an (n, d) stack, and
    `build_contraction_norm` takes either. Where `op` is the gather, this
    object holds O(n + |E|) memory, and each read of `C` builds a new dense
    copy from it, which nothing keeps.
    """

    def __init__(self, op, p: np.ndarray):
        self.op = op
        self.p = p

    @property
    def C(self) -> np.ndarray:
        """The dense weights: `op` itself, or a new copy built from the
        gather on each read."""
        if isinstance(self.op, _InNeighborGather):
            return self.op.add_into(np.zeros(self.op.shape))
        return self.op

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def error_map(self) -> np.ndarray:
        """The mixing-error matrix C - p 1^T / n."""
        return _minus_perron(self.p, self.op)


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
    1 - rho. The induced norm of I - p 1^T / n is 1: it maps to
    I - u u^T with u = sqrt(p / n), an orthogonal projector as sum(p) = n.
    Applying the norm costs O(n) per vector, O(n d) per stack.
    """

    w: np.ndarray
    rho: float
    delta: float
    theta: float
    p: np.ndarray

    def vec_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.w * x))


def _uniform_out_op(g: DirectedGraph):
    """`uniform_out_weights`' C in the form the solvers multiply by, built
    from the edges: the in-neighbor gather or the dense C (see there)."""
    n = g.n
    senders, receivers = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T
    share = 1.0 / (np.bincount(senders, minlength=n) + 1)
    in_deg = np.bincount(receivers, minlength=n) + 1  # the sender itself too
    nnz = n + senders.shape[0]
    m = int(in_deg.max())
    if n < _GATHER_MIN_N or nnz > _GATHER_MAX_FILL * n * n or m * n > _GATHER_MAX_PAD * nnz:
        C = np.diag(share)
        C[receivers, senders] = share[senders]
        return C
    rows = np.concatenate([np.arange(n), receivers])
    cols = np.concatenate([np.arange(n), senders])
    order = np.lexsort((cols, rows))  # by row, columns ascending within one
    rows, cols = rows[order], cols[order]
    slot = np.arange(nnz) - (np.cumsum(in_deg) - in_deg)[rows]
    index = np.full((m, n), n, dtype=np.intp)
    index[slot, rows] = cols
    for a in (index, share):
        a.flags.writeable = False
    return _InNeighborGather(index, share)


def uniform_out_weights(g: DirectedGraph) -> MixingMatrix:
    """Mixing matrix where each sender splits weight evenly over itself and
    its out-neighbors, with its Perron vector.

    Column j carries 1/(outdeg(j)+1) at rows {j} and each receiver of j.
    `op` is built once, straight from the edges, and p is Perron iteration
    on it. It is an in-neighbor gather when n >= 150, C has at most n^2 / 16
    nonzeros and the largest in-degree m (counting the sender itself) keeps
    m n <= 4 nnz, so one mixing round costs O(n + |E|) as in the push-sum
    protocol; no dense C is formed then. Otherwise it is the dense C, where
    dense BLAS is faster. The gather sums each row in column order from 0.0,
    as a CSR product does, so its products differ from the dense ones in
    rounding but not from CSR's.

    Cost of one solver step's products (three with X of shape (n, 5) plus
    one with v; best of 15, one BLAS thread, 2-CPU x86-64 host, numpy 2.4)
    on ring + 3n-link graphs, against scipy 1.17 CSR and dense C:

        n       CSR (us)   gather (us)   dense (us)
        150     28         52-55         36-38
        400     41-47      116           219
        1000    78         292-307       3600-4100
        2000    136-161    540-585       22000-26000

    n >= 150 and the n^2 / 16 fill bound are the rule CSR products had. The
    gather keeps them although dense is faster near n = 150, so every graph
    gets the product form, and the bits, it had under CSR. Padding costs as
    much as nonzeros: at n = 400 with extra links into one node, the gather
    takes 158-186 us against 213-218 us dense at m n = 4 nnz and 277-293
    against 221-223 us at m n = 7.2 nnz, hence the bound of 4.
    """
    if not is_strongly_connected(g):
        raise ValueError("mixing weights require a strongly connected graph")
    op = _uniform_out_op(g)
    return MixingMatrix(op, perron_vector(op))


_PERRON_TOL = 1e-12  # perron_vector's relative residual


def perron_vector(C) -> np.ndarray:
    """Positive right eigenvector of a regular column-stochastic C at
    eigenvalue 1, normalized so its entries sum to n.

    C is a dense matrix or a `MixingMatrix.op`: only `C @ x` and `C.shape`
    are used. Power iteration; raises if the residual does not fall below
    _PERRON_TOL * ||p|| within the iteration cap (a non-regular matrix).
    `uniform_out_weights` runs it on the form the solvers use. Its cost on
    ring + 3n-link graphs (seed 7; median of 9 calls, one BLAS thread,
    2-CPU x86-64 host, numpy 2.4), on the dense C and on the gather:

        n       dense (ms)   gather (ms)
        160     1.0          1.4
        400     4.0          2.3
        1000    42           5.6
        2000    365          9.4
    """
    n = C.shape[0]
    cap = int(100 * n * max(np.log(n), 1.0)) + 10_000
    # C @ p of each iterate serves both its residual and the next iterate.
    Cp = C @ np.ones(n)
    for _ in range(cap):
        p = Cp
        p *= n / p.sum()
        Cp = C @ p
        if np.linalg.norm(Cp - p) <= _PERRON_TOL * np.linalg.norm(p):
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


def build_contraction_norm(C, p: np.ndarray) -> NormTransform:
    """Construct the Perron-weighted diagonal norm under which C - p 1^T / n
    contracts: delta = 1 - rho, theta = sqrt(p_max / p_min). C is a dense
    matrix or a `MixingMatrix.op`; both give the same result bit for bit.

    rho = ||M||_2 for M = D^-1/2 (C - p 1^T / n) D^1/2, D = diag(p), which
    equals S - u u^T with S = D^-1/2 C D^1/2 and u = sqrt(p / n). Where C
    is column-stochastic with a positive diagonal and a strongly connected
    graph (as `uniform_out_weights` builds it) and p its Perron vector, rho
    is the second singular value of S and below 1 (Fill, Ann. Appl. Probab.
    1(1), 1991: S S^T keeps C's support, so it is irreducible). rho >= 1
    raises ValueError.

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

    Memory: M is formed in one n-by-n array, from a gather without a dense
    C (see `_minus_perron`). G = M^T M is the second; it is then copied into
    M's buffer and freed, so eigvalsh's internal copy of its input replaces
    it rather than adding a third. Set-up through `build_problem` thus peaks
    at two n-by-n arrays, and at three where the caller holds a dense C.
    Freeing M in place of copying G keeps that count. It also kept the
    resident peak of `pushopt run` at n = 2000 (ring + 3n links) once no
    dense C was formed there: 2.388 against 2.384 x 8 n^2 above the
    imported CLI. Where a dense C of that size had been freed before the
    build, it did not (139.9 MB against 110 MB): glibc then served blocks of
    that size from the heap, and M's freed block was too small for
    eigvalsh's buffer (its copy plus the eigenvalues). At n = 400 (one BLAS
    thread, 2-CPU x86-64 host, numpy 2.4) the build takes 10.8 ms (median
    of 25 calls), 8.1 ms of it the eigensolve.
    """
    if not isinstance(C, _InNeighborGather):
        C = np.asarray(C)
    p = np.asarray(p)
    if len(C.shape) != 2 or C.shape[0] != C.shape[1] or p.shape != C.shape[:1]:
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
    # eigvalsh copies its input: G moves into M's buffer and its own is freed,
    # so that copy is the second n-by-n array, not a third.
    M[...] = G
    G = M
    F = 2.0 * float(np.trace(G))
    eps = np.finfo(float).eps
    top = float(np.linalg.eigvalsh(G)[-1]) + n * (n + 1) * eps * F
    rho = (np.sqrt(top) + 4.0 * eps * (np.sqrt(F) + 2.0)) * (1.0 + 2.0 * eps)
    rho = float(np.ceil(rho / _RHO_GRID) * _RHO_GRID)
    if rho >= 1.0:
        raise ValueError(f"contraction factor {rho} >= 1: invalid mixing matrix")
    p_min = p.min()
    return NormTransform(
        w=np.sqrt(p_min / p),
        rho=rho,
        delta=1.0 - rho,
        theta=float(np.sqrt(p.max() / p_min)),
        p=p.copy(),
    )
