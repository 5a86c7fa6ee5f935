"""Rank-truncated design factors and Woodbury-identity solves.

The design matrix X (n x (p+1)) is replaced by its top-l SVD factors
U diag(d) V'. Ridge systems (X'WX + Sigma^-1)^-1 rhs are then solved in rank
space: X'WX ~ S'S with S = C_w V' and C_w the l x l weighted-Gram Cholesky
factor (``weighted_cholesky``, O(n l^2 + l^3)), through an l x l Woodbury
core (``WoodburySolver``). S itself is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from spatialboost.errors import ConfigurationError, NumericalError

# diagonal jitter escalation (relative to the mean diagonal) before a Gram
# matrix is declared indefinite
JITTERS = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class TruncatedDesign:
    """Top-l SVD factors of the design matrix.

    U: n x l orthonormal, d: l non-increasing positive singular values,
    V: (p+1) x l orthonormal. ``relative_residual_energy`` is the share of
    the design's energy the truncation drops, ||X - U diag(d) V'||_F^2 /
    ||X||_F^2, the quantity ``rank_tol`` bounds.
    """

    U: np.ndarray
    d: np.ndarray
    V: np.ndarray
    relative_residual_energy: float

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def p1(self) -> int:
        return self.V.shape[0]

    @property
    def rank(self) -> int:
        return self.d.size

    def matvec(self, beta: np.ndarray) -> np.ndarray:
        """X beta through the factors."""
        return self.U @ (self.d * (self.V.T @ beta))

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X' r through the factors."""
        return self.V @ (self.d * (self.U.T @ r))

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.d) @ self.V.T


def _signed_svd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD with a deterministic sign convention: the first entry of each
    right singular vector with magnitude above 1e-12 is made positive."""
    U, s, Vt = np.linalg.svd(np.asarray(X, dtype=float), full_matrices=False)
    V = Vt.T
    for k in range(V.shape[1]):
        col = V[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            V[:, k] = -col
            U[:, k] = -U[:, k]
    return U, s, V


def _residuals(s: np.ndarray) -> tuple[np.ndarray, float]:
    """From the singular values ``s`` of X: resid[l - 1] = ||X - X_l||_F^2
    for l = 1 .. s.size, and ||X||_F^2."""
    tail = np.cumsum(s[::-1] ** 2)[::-1]  # tail[l] = ||X - X_l||_F^2
    return np.append(tail[1:], 0.0), float(tail[0])


def _rank_for(s: np.ndarray, tol: float) -> int:
    """Smallest l with ||X - X_l||_F^2 <= tol ||X||_F^2."""
    if tol <= 0 or not np.isfinite(tol):
        raise ConfigurationError(f"tol must be positive and finite, got {tol}")
    resid, total = _residuals(s)
    return int(np.argmax(resid <= tol * total)) + 1


def _checked_design(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise ConfigurationError("empty design matrix")
    return X


def select_rank(X: np.ndarray, tol: float = 0.01) -> int:
    """Smallest l with ||X - X_l||_F^2 / ||X||_F^2 <= tol (always >= 1)."""
    return _rank_for(np.linalg.svd(_checked_design(X), compute_uv=False), tol)


def truncate_design(
    X: np.ndarray, l: int | None = None, tol: float = 0.01
) -> TruncatedDesign:
    """Optimal rank-l factorization of X with deterministic signs.

    With ``l`` None the rank is the smallest whose relative residual energy
    is at most ``tol`` (the ``select_rank`` rule), read off the singular
    values of the one SVD that also gives the factors.
    """
    X = _checked_design(X)
    U, s, V = _signed_svd(X)
    if l is None:
        l = _rank_for(s, tol)
    if not 1 <= l <= s.size:
        raise ConfigurationError(f"rank l={l} outside [1, {s.size}]")
    resid, total = _residuals(s)
    return TruncatedDesign(
        U=np.ascontiguousarray(U[:, :l]),
        d=s[:l].copy(),
        V=np.ascontiguousarray(V[:, :l]),
        relative_residual_energy=float(resid[l - 1] / total) if total > 0 else 0.0,
    )


def _chol_with_jitter(G: np.ndarray, context: str):
    scale = max(float(np.mean(np.diag(G))), np.finfo(float).tiny)
    for jit in JITTERS:
        try:
            return cho_factor(G + jit * scale * np.eye(G.shape[0]), lower=False)
        except np.linalg.LinAlgError:
            continue
    cond = np.linalg.cond(G)
    raise NumericalError(
        f"{context}: {G.shape[0]}x{G.shape[0]} system not positive definite "
        f"after jitter escalation (cond~{cond:.3e})"
    )


class WoodburySolver:
    """Applies (S'S + Sigma^-1)^-1 with S = C V' and Sigma = diag(sigma) as

        Sigma r - Sigma V C' (I + C (V' Sigma V) C')^-1 C V' Sigma r,

    without forming the l x (p+1) matrix S. V must have orthonormal columns
    (V'V = I), as the right factor of a ``TruncatedDesign`` does. Then
    V' Sigma V = c I + V_B' diag(sigma_B - c) V_B with c = min sigma and
    B = {j : sigma_j > c}, so the core is I + c C C' + T T' with
    T = C V_B' diag(sigma_B - c)^(1/2). It costs O(l^3 + |B| l^2), and every
    other product with S is a matvec through C and V. Only the core is
    factored; the factor is cached so repeated solves (e.g. posterior mean
    plus a Gaussian draw) reuse it.
    """

    def __init__(self, C: np.ndarray, V: np.ndarray, sigma: np.ndarray):
        C = np.atleast_2d(np.asarray(C, dtype=float))
        V = np.asarray(V, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
            raise ConfigurationError("prior covariance entries must be positive")
        if V.shape[0] != sigma.size or C.shape != (V.shape[1], V.shape[1]):
            raise ConfigurationError(
                f"C {C.shape} and V {V.shape} do not fit Sigma with "
                f"{sigma.size} entries"
            )
        self.C, self.V, self.sigma = C, V, sigma
        c = sigma.min()
        B = np.flatnonzero(sigma > c)
        T = C @ (V[B] * np.sqrt(sigma[B] - c)[:, None]).T
        core = c * (C @ C.T) + T @ T.T + np.eye(C.shape[0])
        self._factor = _chol_with_jitter(core, "woodbury core")

    def solve_core(self, rhs: np.ndarray) -> np.ndarray:
        """(I + S Sigma S')^-1 rhs."""
        return cho_solve(self._factor, rhs)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(S'S + Sigma^-1)^-1 rhs for a vector or matrix rhs."""
        rhs = np.asarray(rhs, dtype=float)
        vec = rhs.ndim == 1
        R = rhs[:, None] if vec else rhs
        SigR = self.sigma[:, None] * R
        w = self.solve_core(self.C @ (self.V.T @ SigR))
        out = SigR - self.sigma[:, None] * (self.V @ (self.C.T @ w))
        return out[:, 0] if vec else out


def weighted_cholesky(design: TruncatedDesign, W: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor C_w (l x l) of D U' diag(W) U D.

    With S = C_w V', S'S approximates X' diag(W) X within truncation error;
    S itself is never formed. W entries may be zero (IRLS weights vanish at
    saturated fits); an all-zero W yields C_w = 0.
    """
    W = np.asarray(W, dtype=float)
    if np.any(W < 0):
        raise ConfigurationError("weights must be non-negative")
    B = design.U * np.sqrt(W)[:, None]
    G = (B.T @ B) * np.outer(design.d, design.d)
    if not np.any(np.diag(G) > 0):
        return np.zeros((design.rank, design.rank))
    factor, _ = _chol_with_jitter(0.5 * (G + G.T), "weighted Gram")
    return np.triu(factor)
