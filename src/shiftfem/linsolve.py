"""Direct sparse solve for the nonsymmetric system, with residual check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, SingularMatrix

RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True)
class SolveReport:
    x: np.ndarray
    residual_norm: float
    nnz: int


def solve(A, b: np.ndarray) -> SolveReport:
    """Solve Ax = b by sparse LU with partial pivoting.

    The relative residual is recomputed from A and b after the solve rather
    than taken from the factorization; a residual above ``RESIDUAL_LIMIT``
    is treated as a singular system.
    """
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix is {A.shape[0]}x{A.shape[1]}, not square")
    if b.shape != (A.shape[0],):
        raise DimensionMismatch(f"rhs has shape {b.shape}, expected ({A.shape[0]},)")
    if A.shape[0] == 0:
        return SolveReport(x=np.zeros(0), residual_norm=0.0, nnz=0)
    try:
        lu = splu(A)
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SingularMatrix(f"sparse LU factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solution contains non-finite entries")
    bnorm = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(A @ x - b))
    rel = resid / bnorm if bnorm > 0 else resid
    if rel > RESIDUAL_LIMIT:
        raise SingularMatrix(f"relative residual {rel:.3e} exceeds {RESIDUAL_LIMIT}")
    return SolveReport(x=x, residual_norm=rel, nnz=int(lu.nnz))
