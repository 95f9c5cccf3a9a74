"""Every sparse factorization, and the only SuperLU calls: the LU solve of A
with its accuracy gate, and the Gram order and bordered Gram factor of alpha_h.

Each SuperLU call starts on a released heap: :func:`release_heap` first hands
the free memory that glibc keeps from earlier stages back to the OS, so a
factor's pages are not added on top of it. With another C library it does
nothing.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from .errors import DimensionMismatch, InconsistentDof, NotSPD, SingularMatrix

EPS = np.finfo(float).eps
GROWTH_LIMIT = EPS ** -0.5


@dataclass(frozen=True)
class SolveReport:
    x: np.ndarray
    residual_norm: float
    backward_error: float
    nnz: int


try:  # glibc's int malloc_trim(size_t pad); other C libraries have none
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def release_heap() -> None:
    """Return the heap's free pages to the OS (glibc's ``malloc_trim(0)``).

    It frees nothing live and moves no bit of any result. Where the C library
    has no ``malloc_trim`` it does nothing.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _superlu(factor, error, what: str, *args, **kwargs):
    """One SuperLU call on a released heap; its RuntimeError is raised as
    ``error("what: reason")``."""
    release_heap()
    try:
        return factor(*args, **kwargs)
    except RuntimeError as exc:
        raise error(f"{what}: {exc}") from exc


def solve(A, b: np.ndarray) -> SolveReport:
    """Solve Ax = b by sparse LU with partial pivoting.

    The residual r = Ax - b is recomputed from A and b after the solve. The
    solve is accepted when x is finite, the normwise backward error
    eta = |r|_inf / (|A|_inf |x|_inf + |b|_inf) is at most n * eps (Rigal and
    Gaches; Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 7)
    and the growth |A|_inf |x|_inf / |b|_inf, a lower bound on cond(A) with
    no units, is at most eps^-1/2. The backward error alone would accept a
    near-singular A, which LU solves just as stably. Any other outcome is
    a singular system. ``residual_norm`` is the relative 2-norm residual.

    A CSC matrix, as :func:`shiftfem.assembly.assemble` returns, reaches
    SuperLU without a copy; any other input is converted first.
    """
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if n != A.shape[1]:
        raise DimensionMismatch(f"matrix is {n}x{A.shape[1]}, not square")
    if b.shape != (n,):
        raise DimensionMismatch(f"rhs has shape {b.shape}, expected ({n},)")
    if n == 0:
        return SolveReport(x=np.zeros(0), residual_norm=0.0, backward_error=0.0, nnz=0)
    a_inf = float(abs(A).sum(axis=1).max())  # before the LU, so |A| is not under it
    lu = _superlu(splu, SingularMatrix, "sparse LU factorization failed", A)
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solution contains non-finite entries")
    r = A @ x - b
    bnorm, resid = float(np.linalg.norm(b)), float(np.linalg.norm(r))
    rel = resid / bnorm if bnorm > 0 else resid
    b_inf, r_inf = float(np.abs(b).max()), float(np.abs(r).max())
    ax_inf = a_inf * float(np.abs(x).max())
    eta = r_inf / (ax_inf + b_inf) if r_inf > 0 else 0.0
    if eta > n * EPS:
        raise SingularMatrix(f"normwise backward error {eta:.3e} exceeds n*eps = {n * EPS:.3e}")
    if ax_inf > GROWTH_LIMIT * b_inf:  # with b = 0, any x != 0 is a null vector
        growth = ax_inf / b_inf if b_inf > 0 else math.inf
        raise SingularMatrix(f"growth |A| |x| / |b| = {growth:.3e} exceeds eps^-1/2 = "
                             f"{GROWTH_LIMIT:.3e}: the matrix is nearly singular")
    return SolveReport(x=x, residual_norm=rel, backward_error=eta, nnz=int(lu.nnz))


def fill_order(G) -> np.ndarray:
    """SuperLU's ``MMD_AT_PLUS_A`` column order of the square sparse G, as the
    ``perm_c`` of a factor of G: column j goes to position ``perm_c[j]``.

    Read off an incomplete LU that keeps almost no fill, which orders like the
    complete one at a fraction of its cost. Raises NotSPD if that LU breaks
    down, as it does on an exactly singular G.
    """
    return _superlu(spilu, NotSPD, "gram matrix is singular", sp.csc_matrix(G),
                    permc_spec="MMD_AT_PLUS_A", drop_tol=1.0, fill_factor=1,
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True}).perm_c


def bordered_schur(G, X, C, order) -> tuple[np.ndarray, np.ndarray]:
    """Prove the sparse n x n G symmetric positive definite, or raise NotSPD,
    and return S = C - X^T G^-1 X with its pivots, from one sparse LU of the
    bordered matrix K = [[G, X], [X^T, C]].

    ``X`` is sparse n x r, ``C`` dense r x r or None for a zero block, and
    ``order`` a column order of G from :func:`fill_order`. K is factored in
    that order with its r border rows and columns last, taking only diagonal
    pivots, so P K P^T = L D L^T with D = diag(U). Its leading n pivots are
    then those of P G P^T alone: G is SPD iff perm_r == perm_c there and every
    one of them is positive. They must clear n * eps * max|G|, as rounding can
    leave a singular G's last pivot just above zero; an SPD G's pivots are
    >= lambda_min. Block elimination leaves S in the trailing r x r block of
    L U, and its pivots as the last r of D. A trailing pivot off the diagonal
    means a leading block of S is exactly singular, so S is not definite as
    the inf-sup estimate needs: InconsistentDof.
    """
    n, r = X.shape
    G = sp.csr_matrix(G)
    G.sum_duplicates()
    g_max = float(np.abs(G.data).max(initial=0.0))
    if float(np.abs((G - G.T).data).max(initial=0.0)) > 1e-12 * g_max:
        raise NotSPD("gram matrix is not symmetric")
    # K in its factor order at once: relabelling the COO entries costs no
    # permuted copies of K, whose heap would stay under the factor
    K = sp.bmat([[G, X], [X.T, C]], format="coo")
    del G  # K has its entries: a Gram the caller passed as a temporary is freed before the LU
    q = np.r_[order, n + np.arange(r)].astype(K.row.dtype)
    K = sp.csc_matrix((K.data, (q[K.row], q[K.col])), shape=K.shape)
    lu = _superlu(splu, NotSPD, "gram matrix is singular", K, permc_spec="NATURAL",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    del K
    # SymmetricMode skips SuperLU's etree postorder, so NATURAL keeps K's order
    assert np.array_equal(lu.perm_c[n:], n + np.arange(r)), "SuperLU moved the border"
    pivots = lu.U.diagonal()  # builds and caches CSC copies of both L and U
    if not (np.array_equal(lu.perm_r[:n], lu.perm_c[:n])
            and np.all(pivots[:n] > n * EPS * g_max)):
        raise NotSPD("gram matrix is not positive definite "
                     f"(smallest pivot {pivots[:n].min()})")
    if not np.array_equal(lu.perm_r[n:], lu.perm_c[n:]):
        raise InconsistentDof("the Schur complement of a bordered Gram matrix is not "
                              "definite (off-diagonal pivot)")
    return lu.L[n:, n:].toarray() @ lu.U[n:, n:].toarray(), pivots[n:]
