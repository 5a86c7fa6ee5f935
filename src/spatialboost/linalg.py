"""Rank-truncated design factors and Woodbury-identity solves.

The design matrix X (n x (p+1)) is replaced by its top-l singular triplets,
X_l = U diag(d) V', where truncation saves work (rank space, below). They
come from the eigendecomposition of the Gram matrix of X's short side
(X X' when n <= p+1, else X'X): one BLAS product and an ``eigh`` of a
min(n, p+1)-sided matrix, so the long-side vectors are one more product
(V = X'U / d or U = X V / d). A Gram squares the condition number, so
eigenvalues at or below max(n, p+1) eps lambda_1 are rounding noise; the
rank is capped at the count above that floor, whether it comes from
``rank_tol`` or is given explicitly. Sample space reads no singular
vector, so the rank is chosen from the Gram's eigenvalues alone
(``eigvalsh``), and ``eigh`` runs only for a design in rank space.

Ridge systems (X_l'WX_l + Sigma^-1)^-1 rhs are solved through a Woodbury
core (``WoodburySolver``) in one of two spaces, chosen once per design from
(n, l) by ``truncate_design``, and each design stores only what its space
reads (``TruncatedDesign.sample_space`` reports which):

- rank space (3 l < 2 n): U, d and V. X_l'WX_l = S'S with S = C_w V' and
  C_w the l x l weighted-Gram Cholesky factor (``weighted_cholesky``,
  O(n l^2 + l^3)); the core is l x l.
- sample space (3 l >= 2 n): X' itself and K = X X'. The n x n core, the
  (p+1) x n design and each solve cost the same whatever l is, so the
  design is not truncated: its rank is the numerical rank and its
  residual energy 0. S = diag(sqrt W) X, and the core is built from K,
  which is fixed for the design, so no weighted Gram is formed.

S itself is never formed in either space. The core I + S Sigma S' has every
eigenvalue >= 1, so it needs no jitter: each use solves it by one LU solve
(``numpy.linalg.solve``) with all its right-hand sides at once.

A Woodbury build allocates no design-sized temporary. In sample space it
sums the core's rank-|B| part over blocks of at most n markers, so it needs
O(n^2) whatever |B| is: the n x n core, an n x n scratch whose leading rows
hold a block of T' and then, a chunk of rows at a time, (cC C') o K, and,
once |B| > n, each later block's n x n product. In rank space the core's
temporaries are at most V's size, (p+1) x l, and the weighted Gram is
summed over blocks of at most max(l, COLUMN_BLOCK) individuals in one
l x max(l, COLUMN_BLOCK) scratch, so a rank-space step allocates no n x l
temporary.

A sample-space design owns the buffers its products and Woodbury builds
write into: ``TruncatedDesign.workspace``, a ``Workspace`` holding the
core, the scratch and the float block of X' (below). The first product
or build on the design allocates them, every later one writes into them
in place, and they go when the design does. So every EM fit on a design
(the kappa scan's, one per kappa) and the chain after them share one set.
A core built there is valid only until the next build on the same design:
one solver per design at a time. ``dataclasses.replace(design)`` gives the
same factors with fresh buffers. At n = 250 an n x n array is 500 KB,
above glibc's initial 128 KiB mmap threshold, so a fresh one per step can
be a fresh mapping, faulted in page by page. Two n x n arrays are still
allocated per step: the LAPACK copy of the core inside
``numpy.linalg.solve`` (numpy has no in-place LU), and, only once |B| > n,
a later block's product, which a held buffer would keep resident beside
the core, the scratch and that copy. A rank-space design holds no buffer:
its steps allocate their scratch and l x l arrays per step.

A sample-space design keeps the X' that ``FilterConfig.factor`` hands over
without a copy, in the dtype it was built in: int8 for the loader's
genotypes (23 MiB at 2000 x 12000). No float copy of it is built. Every
pass over it moves whole rows of X', MARKER_BLOCK markers at a time, each
block cast to float64 in the design's "block" buffer (``_cast``; an
integer's cast is exact), so the buffer is min(MARKER_BLOCK, p+1) x n
floats. X' w takes each block's rows of the product in one call, so its
entries are whole dot products and equal one float ``gemv`` bit for bit
(on OpenBLAS at 256 markers per block, not at 32). X u sums the blocks'
products X'[b]' u[b] in block order. A core build gathers its rows of X'
in X's dtype and casts them into its scratch. The short-side Gram is
summed over blocks of at least MARKER_BLOCK markers (individuals for a
tall X), one symmetric product each; its entries, sums of integer
products, are exact, so it equals the one-shot product, and so do its
eigenvalues and the rank.

A rank-space design keeps U as U' (l x n, C-contiguous), computed from X'
cast to float64 once. A tall one at full rank drops nothing, so it holds
that float X' itself in rank-space form: U' is X', d = 1 and V = I. Below
full rank U' is built in a new array, and the float X' is freed when the
factor returns, so the design is never held twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spatialboost.errors import ConfigurationError, NumericalError

# diagonal jitter escalation (relative to the mean diagonal) before a Gram
# matrix is declared indefinite
JITTERS = (0.0, 1e-10, 1e-8, 1e-6)
# a rank-space product with U' runs over blocks of max(l, COLUMN_BLOCK)
# individuals, so its l x max(l, COLUMN_BLOCK) scratch does not grow with n
COLUMN_BLOCK = 512
# a sample-space core adds (cC C') o K in chunks of at least this many rows
MASK_ROWS = 32
# every pass over a sample-space X' casts this many of its markers (rows)
# to float64 at a time
MARKER_BLOCK = 256


class Workspace:
    """Named float buffers that a design's products and Woodbury builds
    reuse (see the module docstring).

    ``array`` hands out a C-contiguous view holding whatever its last user
    left there; a buffer is replaced by a larger one when a request
    outgrows it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        size = shape[0] * shape[1]
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


@dataclass(frozen=True)
class TruncatedDesign:
    """Top-l factors of the design matrix X, in the form its Woodbury space
    reads.

    A rank-space design holds U (n x l) and V ((p+1) x l), both orthonormal,
    and d, l non-increasing positive singular values; a tall one at full
    rank holds X itself as U = X, d = 1 and V = I. U is the F-ordered view
    U'.T of a C-contiguous l x n U', the layout the weighted Gram reads in
    column blocks. A sample-space design holds instead Xt = X' itself as a
    C-contiguous (p+1) x n array of any numeric dtype (int8 from
    ``FilterConfig.factor`` on genotypes), K = X X' (n x n, float64) and d,
    at the numerical rank; its U and V are None, and its products read Xt
    MARKER_BLOCK rows at a time in its own buffers, ``workspace``: X' w
    equals one float gemv bit for bit, and X u is a sum over the blocks in
    block order (see the module docstring). ``relative_residual_energy`` is
    the share of the design's energy the truncation drops,
    ||X - X_l||_F^2 / ||X||_F^2, the quantity ``rank_tol`` bounds (0 in
    sample space and at full rank).
    """

    d: np.ndarray
    relative_residual_energy: float
    U: np.ndarray | None = None
    V: np.ndarray | None = None
    Xt: np.ndarray | None = None
    K: np.ndarray | None = None
    workspace: Workspace = field(
        default_factory=Workspace, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return self.U.shape[0] if self.U is not None else self.K.shape[0]

    @property
    def p1(self) -> int:
        return self.V.shape[0] if self.V is not None else self.Xt.shape[0]

    @property
    def rank(self) -> int:
        return self.d.size

    @property
    def sample_space(self) -> bool:
        """Whether the design holds the n x n sample-space form (X', K),
        which ``truncate_design`` picks for 3 l >= 2 n."""
        return self.K is not None

    def matvec(self, beta: np.ndarray) -> np.ndarray:
        """X_l beta through the stored factors."""
        if self.sample_space:
            return _times(self.Xt, beta, self.workspace)
        return self.U @ (self.d * (self.V.T @ beta))

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X_l' r through the stored factors."""
        if self.sample_space:
            return _t_times(self.Xt, r, self.workspace)
        return self.V @ (self.d * (self.U.T @ r))


def _residuals(s: np.ndarray) -> tuple[np.ndarray, float]:
    """From the singular values ``s`` of X: resid[l - 1] = ||X - X_l||_F^2
    for l = 1 .. s.size, and ||X||_F^2."""
    tail = np.cumsum(s[::-1] ** 2)[::-1]  # tail[l] = ||X - X_l||_F^2
    return np.append(tail[1:], 0.0), float(tail[0])


def check_rank_tol(tol: float) -> None:
    """Reject a ``rank_tol`` that is not positive and finite."""
    if tol <= 0 or not np.isfinite(tol):
        raise ConfigurationError(f"rank_tol must be positive and finite, got {tol}")


def select_rank(X: np.ndarray, tol: float) -> int:
    """``truncate_design``'s rank for ``tol``: the smallest l with
    ||X - X_l||_F^2 / ||X||_F^2 <= tol (always >= 1), capped at the
    numerical rank, and the numerical rank itself when that l is at least
    2n/3, where the design is kept exact (sample space)."""
    return truncate_design(X, tol=tol).rank


def _signs(V: np.ndarray) -> np.ndarray:
    """+-1 per column of V, making its first entry with magnitude above
    1e-12 positive."""
    first = np.argmax(np.abs(V) > 1e-12, axis=0)
    return np.where(V[first, np.arange(V.shape[1])] < 0, -1.0, 1.0)


def _blocks(m: int, size: int) -> list[slice]:
    """range(m) cut into ceil(m / size) slices of near-equal length, none
    longer than ``size``: lengths differ by at most one, so no block is a
    lone row when the split is uneven."""
    count = -(-m // size)
    return [slice(m * i // count, m * (i + 1) // count) for i in range(count)]


def _truncation(
    lam: np.ndarray, shape: tuple[int, int], l: int | None, tol: float | None
) -> tuple[np.ndarray, int, int, float]:
    """From the short-side Gram's eigenvalues ``lam``, ascending as ``eigh``
    and ``eigvalsh`` give them: X's singular values (descending), its
    numerical rank k, the rank (``l``, or the smallest whose relative
    residual energy is at most ``tol``) capped at k, and that rank's
    relative residual energy."""
    n, p1 = shape
    lam = lam[::-1]
    s = np.sqrt(np.maximum(lam, 0.0))
    resid, total = _residuals(s)
    if l is None:  # the smallest l with ||X - X_l||_F^2 <= tol ||X||_F^2
        check_rank_tol(tol)
        l = int(np.argmax(resid <= tol * total)) + 1
    elif not 1 <= l <= s.size:
        raise ConfigurationError(f"rank l={l} outside [1, {s.size}]")
    # the numerical rank: the eigenvalues above max(n, p+1) eps lambda_1
    k = int(np.count_nonzero(lam > max(n, p1) * np.finfo(float).eps * lam[0]))
    if k == 0:
        raise ConfigurationError("design matrix has no non-zero singular value")
    l = min(l, k)
    return s, k, l, float(resid[l - 1] / total) if total > 0 else 0.0


def _cast(src: np.ndarray, workspace: Workspace) -> np.ndarray:
    """``src`` as float64 in the "block" buffer of ``workspace``, which the
    next cast overwrites; the cast of an integer entry is exact."""
    block = workspace.array("block", src.shape)
    np.copyto(block, src)
    return block


def _times(Xt: np.ndarray, u: np.ndarray, workspace: Workspace) -> np.ndarray:
    """X u = Xt' u for a vector or matrix u: the products of blocks of
    MARKER_BLOCK markers (rows of Xt), each cast in ``workspace``, with
    their entries of u, summed in block order."""
    out = np.zeros((Xt.shape[1],) + np.shape(u)[1:])
    for a in range(0, Xt.shape[0], MARKER_BLOCK):
        out += _cast(Xt[a:a + MARKER_BLOCK], workspace).T @ u[a:a + MARKER_BLOCK]
    return out


def _t_times(Xt: np.ndarray, w: np.ndarray, workspace: Workspace) -> np.ndarray:
    """X' w = Xt w for a vector or matrix w, over blocks of MARKER_BLOCK
    markers (rows of Xt), each cast in ``workspace``: each block's entries
    of X' w are its own product."""
    out = np.empty((Xt.shape[0],) + np.shape(w)[1:])
    for a in range(0, Xt.shape[0], MARKER_BLOCK):
        rows = slice(a, a + MARKER_BLOCK)
        np.matmul(_cast(Xt[rows], workspace), w, out=out[rows])
    return out


def _gram(A: np.ndarray) -> np.ndarray:
    """A'A, summed over blocks of max(side, MARKER_BLOCK) rows of A, each
    cast to float64 and taken in one symmetric product (a syrk). For
    integer entries every partial sum is an exact integer, so the sum
    equals the one-shot product's whatever the blocks."""
    side = A.shape[1]
    workspace, step = Workspace(), max(side, MARKER_BLOCK)
    G, P = np.zeros((side, side)), np.empty((side, side))
    for a in range(0, A.shape[0], step):
        B = _cast(A[a:a + step], workspace)
        np.matmul(B.T, B, out=P)
        G += P
    return G


def truncate_design(
    X: np.ndarray, l: int | None = None, tol: float | None = None
) -> TruncatedDesign:
    """Optimal rank-l factors of X from the short-side Gram's
    eigendecomposition, stored in the form the design's Woodbury space
    reads.

    With ``l`` None the rank is the smallest whose relative residual energy
    is at most ``tol``, which is then required (the ``select_rank`` rule).
    Either way it is capped at the numerical rank (see the module
    docstring), so an explicit ``l`` may come back lower. A rank at or above
    2n/3 means sample space, where X is kept exact at its numerical rank;
    its d come from ``eigvalsh``, and only ``rank`` reads them. ``eigh``
    runs only when the rank lands in rank space, and its own values then
    give the rank, d and the residual.
    Rank-space factors carry deterministic signs: the first entry of each
    column of V with magnitude above 1e-12 is positive.
    A tall design at full rank (p+1) drops nothing and holds X itself:
    U = X, d = 1 and V = I.
    X may have any numeric dtype. The Gram is summed over blocks of X cast
    to float64, and rank space casts X to float64 once. Pass X as the
    transpose of a C-contiguous (p+1) x n array and a sample-space design
    keeps that array as its X', in its dtype, without a copy (so does a
    full-rank tall one as its U', when the array is float64); any other X
    is copied, and X is never written.
    """
    if l is None and tol is None:
        raise TypeError("truncate_design needs tol when l is None")
    X = np.asarray(X)
    if X.size == 0:
        raise ConfigurationError("empty design matrix")
    n, p1 = X.shape
    # the Gram G of X's short side (X X' when n <= p+1, else X'X): its
    # eigenvectors, in descending order of the eigenvalues, are the left
    # (wide X) or right (tall X) singular vectors
    G = _gram(X.T if n <= p1 else X)
    lam = np.linalg.eigvalsh(G)
    s, k, rank, rre = _truncation(lam, X.shape, l, tol)
    if 3 * rank < 2 * n:  # rank space, from eigh's own values
        lam, Q = np.linalg.eigh(G)
        s, k, rank, rre = _truncation(lam, X.shape, l, tol)
    if 3 * rank >= 2 * n:  # sample space: X itself, at the numerical rank
        Xt = np.ascontiguousarray(X.T)
        K = G if n <= p1 else _gram(Xt)
        return TruncatedDesign(d=s[:k].copy(), relative_residual_energy=0.0, Xt=Xt, K=K)
    X = np.asarray(X, dtype=float)  # rank space reads a float X
    if rank == p1:  # tall (a wide X at l = p+1 >= n is sample space) and exact
        return TruncatedDesign(d=np.ones(rank), relative_residual_energy=0.0,
                               U=np.ascontiguousarray(X.T).T, V=np.eye(rank))
    d = s[:rank].copy()
    Q = Q[:, ::-1][:, :rank]
    if n <= p1:
        V = X.T @ Q
        V /= d
        sign = _signs(V)
        V *= sign
        Ut = np.ascontiguousarray(Q.T)
        Ut *= sign[:, None]
    else:
        V = Q * _signs(Q)
        A = V.T / d[:, None]
        Ut = np.empty((rank, n))
        for cols in _blocks(n, max(rank, COLUMN_BLOCK)):
            np.matmul(A, X.T[:, cols], out=Ut[:, cols])
    return TruncatedDesign(d=d, relative_residual_energy=rre, U=Ut.T, V=V)


def _chol_with_jitter(G: np.ndarray, context: str) -> np.ndarray:
    """Lower Cholesky factor L of G = L L', escalating the diagonal jitter
    until G is positive definite."""
    if not np.all(np.isfinite(G)):
        raise NumericalError(f"{context}: non-finite entries")
    scale = max(float(np.mean(np.diag(G))), np.finfo(float).tiny)
    for jit in JITTERS:
        try:
            jittered = G + jit * scale * np.eye(G.shape[0]) if jit else G
            return np.linalg.cholesky(jittered)
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

    without forming S. The left factor C takes one of two forms:

    - rank space: C is an l x l matrix and V ((p+1) x l) has orthonormal
      columns, as the right factor of a ``TruncatedDesign`` does;
    - sample space: C is a vector of n entries standing for diag(C), V is
      X' ((p+1) x n, any numeric dtype, read a block at a time), and
      ``gram`` is K = V'V = X X'.

    With G = V'V (I in rank space), V' Sigma V = c G + V_B' diag(sigma_B - c)
    V_B for c = min sigma and B = {j : sigma_j > c}, so the core is
    I + c C G C' + T T' with T = C V_B' diag(sigma_B - c)^(1/2). In rank space
    that costs O(l^3 + |B| l^2), and T is formed whole: its |B| x l scaled
    rows of V are at most V's size. In sample space C G C' is (C C') o K,
    formed without a product, and T holds scaled rows of V, so it costs
    O(n^2 |B|) and the core's 2n^3/3 LU solve. There T T' is summed over
    blocks of at most n markers of B, so a build needs O(n^2) beside the
    core whatever |B| is, and never a copy of V_B. Every other product with
    S is a matvec through C and V.
    A sample-space build writes its core and each block of T' into two
    n x n buffers of ``workspace`` (a fresh ``Workspace`` when None), and
    its products with X' cast their blocks in a third; a rank-space solver
    does not use it.
    The core is symmetric with every eigenvalue >= 1, so it is solved as is,
    without jitter; a caller with several right-hand sides passes them
    together to one ``solve_core`` (or ``solve``) call.
    """

    def __init__(
        self,
        C: np.ndarray,
        V: np.ndarray,
        sigma: np.ndarray,
        gram: np.ndarray | None = None,
        workspace: Workspace | None = None,
    ):
        C = np.asarray(C, dtype=float)
        self._diag = C.ndim == 1
        if not self._diag:
            C = np.atleast_2d(C)
        V = np.asarray(V)
        sigma = np.asarray(sigma, dtype=float)
        if not np.all(np.isfinite(sigma)):  # a fit that diverged
            raise NumericalError("prior covariance entries must be finite")
        if np.any(sigma <= 0):
            raise ConfigurationError("prior covariance entries must be positive")
        k = V.shape[1]
        if self._diag:
            fits = C.shape == (k,) and np.shape(gram) == (k, k)
        else:
            fits = C.shape == (k, k) and gram is None
        if V.shape[0] != sigma.size or not fits:
            raise ConfigurationError(
                f"C {C.shape}, V {V.shape} and gram {np.shape(gram)} do not "
                f"fit Sigma with {sigma.size} entries"
            )
        workspace = Workspace() if workspace is None else workspace
        self.C, self.V, self.sigma, self._workspace = C, V, sigma, workspace
        c = sigma.min()
        B = np.flatnonzero(sigma > c)
        if self._diag:
            # the core is (cC C') o K + T_1 T_1' + T_2 T_2' + ... over blocks
            # of at most n markers of B: each block's rows of T' are cast
            # from V into one n x n scratch and scaled there. The first
            # block's T T' is formed in the core, and (cC C') o K is added to
            # it (the same sum, since a + b == b + a) in row chunks of the
            # scratch that block already filled, at least MASK_ROWS of them:
            # with |B| <= n a build writes only the core and those rows
            core = workspace.array("core", (k, k))
            scratch = workspace.array("scratch", (k, k))
            cC = c * C
            if not B.size:
                np.multiply(np.outer(cC, C, out=core), gram, out=core)
            for i, rows in enumerate(_blocks(B.size, k)):
                Bb = B[rows]
                Tt = scratch[: Bb.size]
                for a in range(0, Bb.size, MARKER_BLOCK):
                    # V's rows, gathered in its dtype and cast exactly
                    Tt[a:a + MARKER_BLOCK] = V[Bb[a:a + MARKER_BLOCK]]
                Tt *= np.sqrt(sigma[Bb] - c)[:, None]
                Tt *= C
                if i == 0:
                    np.matmul(Tt.T, Tt, out=core)
                    for part in _blocks(k, max(Bb.size, MASK_ROWS)):
                        M = np.outer(cC[part], C, out=scratch[: part.stop - part.start])
                        M *= gram[part]
                        core[part] += M
                else:
                    core += Tt.T @ Tt
        else:
            T = C @ (V[B] * np.sqrt(sigma[B] - c)[:, None]).T
            core = c * (C @ C.T) + T @ T.T
        core.flat[:: k + 1] += 1.0
        if not np.all(np.isfinite(core)):
            raise NumericalError(f"woodbury core: non-finite entries ({k}x{k})")
        self._core = core

    @property
    def core_dim(self) -> int:
        """Side of the core: l in rank space, n in sample space."""
        return self.V.shape[1]

    def left(self, u: np.ndarray) -> np.ndarray:
        """S u for a vector or matrix u."""
        if not self._diag:
            return self.C @ (self.V.T @ u)
        # diag(C) scales the rows of a vector or matrix
        return (self.C * _times(self.V, u, self._workspace).T).T

    def left_t(self, w: np.ndarray) -> np.ndarray:
        """S' w for a vector or matrix w."""
        if not self._diag:
            return self.V @ (self.C.T @ w)
        return _t_times(self.V, (self.C * w.T).T, self._workspace)

    def solve_core(self, rhs: np.ndarray) -> np.ndarray:
        """(I + S Sigma S')^-1 rhs for a vector or matrix rhs, by one LU
        solve."""
        try:
            out = np.linalg.solve(self._core, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"woodbury core: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise NumericalError("woodbury core: non-finite solution")
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(S'S + Sigma^-1)^-1 rhs for a vector or matrix rhs."""
        rhs = np.asarray(rhs, dtype=float)
        vec = rhs.ndim == 1
        R = rhs[:, None] if vec else rhs
        SigR = self.sigma[:, None] * R
        w = self.solve_core(self.left(SigR))
        out = SigR - self.sigma[:, None] * self.left_t(w)
        return out[:, 0] if vec else out


def weighted_cholesky(design: TruncatedDesign, W: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor C_w (l x l) of D U' diag(W) U D, the transpose
    of its lower factor. The Gram is a sum of syrk products over column
    blocks of U', scaled in one reused l x max(l, COLUMN_BLOCK) scratch, so
    its memory does not depend on n, and it is exactly symmetric.

    With S = C_w V', S'S approximates X' diag(W) X within truncation error;
    S itself is never formed. W comes checked by ``weighted_woodbury``; its
    entries may be zero (IRLS weights vanish at saturated fits), and an
    all-zero W yields C_w = 0.
    """
    if design.sample_space:
        raise ConfigurationError("weighted_cholesky needs a rank-space design")
    Ut, l = design.U.T, design.rank
    width = max(l, COLUMN_BLOCK)
    scratch = np.empty((l, min(design.n, width)))
    G = np.zeros((l, l))
    for cols in _blocks(design.n, width):
        B = scratch[:, : cols.stop - cols.start]
        np.multiply(Ut[:, cols], np.sqrt(W[cols]), out=B)
        G += B @ B.T  # a syrk: exactly symmetric
    G *= np.outer(design.d, design.d)
    if not np.any(np.diag(G) > 0):
        return np.zeros((l, l))
    return _chol_with_jitter(G, "weighted Gram").T


def weighted_woodbury(
    design: TruncatedDesign, W: np.ndarray, sigma: np.ndarray
) -> WoodburySolver:
    """Solver for (X_l' diag(W) X_l + diag(sigma)^-1)^-1 in the design's
    space: the left factor is diag(sqrt W) with X' and K in sample space,
    and C_w from ``weighted_cholesky`` with V in rank space; W is checked
    here for both (n entries, finite, non-negative). A sample-space core is
    built in the design's own buffers, so it is valid only until the next
    ``weighted_woodbury`` on the same design: one solver per design at a
    time."""
    W = np.asarray(W, dtype=float)
    if W.shape != (design.n,):
        raise ConfigurationError(f"{W.size} weights for {design.n} individuals")
    if not np.all(np.isfinite(W)):
        raise NumericalError("weights must be finite")
    if np.any(W < 0):
        raise ConfigurationError("weights must be non-negative")
    if not design.sample_space:
        return WoodburySolver(weighted_cholesky(design, W), design.V, sigma)
    return WoodburySolver(np.sqrt(W), design.Xt, sigma, gram=design.K,
                          workspace=design.workspace)
