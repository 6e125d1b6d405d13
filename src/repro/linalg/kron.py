"""Kronecker-product lifting for exact Sylvester solves.

The Sylvester equation ``X = A·X·B + C`` (footnote 14 of the paper) is
linear in ``X``; vectorizing both sides with the column-stacking operator
``vec`` gives ``vec(X) = (Bᵀ ⊗ A)·vec(X) + vec(C)``, i.e. a single sparse
linear system.  For SimRank specifically (``A = C·Q``, ``B = Qᵀ``,
``C = (1-C)·Iₙ``) this yields the *exact* fixed point, which the test
suite uses as ground truth on small graphs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..exceptions import DimensionError


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: ``vec(X)[i + n*j] = X[i, j]``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise DimensionError(f"vec expects a matrix, got ndim={matrix.ndim}")
    return matrix.reshape(-1, order="F")


def unvec(vector: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``rows x cols`` matrix."""
    vector = np.asarray(vector)
    if vector.size != rows * cols:
        raise DimensionError(
            f"cannot unvec length-{vector.size} vector into {rows}x{cols}"
        )
    return vector.reshape(rows, cols, order="F")


def solve_sylvester_kron(
    a_matrix, b_matrix, c_matrix: np.ndarray
) -> np.ndarray:
    """Exactly solve ``X = A·X·B + C`` via the Kronecker-lifted linear system.

    ``A`` and ``B`` may be dense or scipy-sparse; the solve is performed
    with a sparse LU factorization of ``I - Bᵀ ⊗ A``.  Complexity is
    ``O(n^6)`` worst case, so this is strictly a small-graph oracle.
    """
    a_sparse = sp.csr_matrix(a_matrix)
    b_sparse = sp.csr_matrix(b_matrix)
    n, n2 = a_sparse.shape
    if n != n2 or b_sparse.shape != (n, n):
        raise DimensionError(
            f"A and B must be square and equal-sized, got {a_sparse.shape} "
            f"and {b_sparse.shape}"
        )
    c_dense = np.asarray(c_matrix, dtype=np.float64)
    if c_dense.shape != (n, n):
        raise DimensionError(
            f"C must have shape ({n}, {n}), got {c_dense.shape}"
        )
    # Imported here: it loads ``scipy.linalg`` too, which nothing but
    # this small-graph oracle needs, so importing the package stays lean.
    import scipy.sparse.linalg as spla

    system = sp.identity(n * n, format="csc") - sp.kron(
        b_sparse.T, a_sparse, format="csc"
    )
    solution = spla.spsolve(system, vec(c_dense))
    return unvec(solution, n, n)


def exact_simrank_kron(q_matrix, damping: float) -> np.ndarray:
    """Exact matrix-form SimRank ``S = C·Q·S·Qᵀ + (1-C)·I`` on a small graph.

    This is the fixed point of Eq. (2) of the paper, computed without
    iteration; used as the oracle for convergence tests.
    """
    q_sparse = sp.csr_matrix(q_matrix)
    n = q_sparse.shape[0]
    identity = np.eye(n)
    return solve_sylvester_kron(
        damping * q_sparse, q_sparse.T, (1.0 - damping) * identity
    )
