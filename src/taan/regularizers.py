"""Coordinate-matrix regularizers of the multi-task loss.

Three penalties on a task-by-basis coordinate matrix alpha:

  * trace norm: nuclear norm of alpha, a low-rank surrogate on the raw
    coordinates;
  * cosine: negative mean pairwise cosine similarity of the activation
    functions (function-space, via the Gram cache);
  * distance: mean pairwise squared function distance.

Both pairwise means run over all ordered task pairs including i = j; the
diagonal contributes a constant (-1 per pair for cosine, 0 for distance) and
never affects gradients.
"""

import enum
from dataclasses import dataclass

import numpy as np

from taan.metrics import (
    DEGENERATE_NORM_EPS,
    DegenerateFunctionError,
    GramCache,
    NumericError,
)

SINGULAR_VALUE_CUTOFF = 1e-10


class RegKind(enum.Enum):
    NONE = "none"
    TRACE_NORM = "trace"
    COSINE = "cos"
    DISTANCE = "dis"


@dataclass(frozen=True)
class RegConfig:
    kind: RegKind = RegKind.NONE
    coefficient: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, RegKind):
            object.__setattr__(self, "kind", RegKind(self.kind))
        c = float(self.coefficient)
        if not np.isfinite(c) or c < 0.0:
            raise ValueError(f"coefficient must be finite and >= 0, got {c}")
        object.__setattr__(self, "coefficient", c)


def _as_matrix(alpha):
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 2:
        raise ValueError(f"expected a 2-D coordinate matrix, got {alpha.shape}")
    return alpha


def trace_norm(alpha):
    """Nuclear norm: the sum of singular values."""
    alpha = _as_matrix(alpha)
    return float(np.linalg.svd(alpha, compute_uv=False).sum())


def trace_norm_grad(alpha):
    """Subgradient U V' from the thin SVD, dropping directions whose
    singular value falls below the cutoff (any subdifferential element is
    valid; this choice is deterministic)."""
    alpha = _as_matrix(alpha)
    u, s, vt = np.linalg.svd(alpha, full_matrices=False)
    keep = s > SINGULAR_VALUE_CUTOFF
    return u[:, keep] @ vt[keep, :]


def _pairwise_inner(alpha, cache):
    # IP[i, j] = s + (a_i + a_j)' v + a_i' G a_j for all task pairs
    u = alpha @ cache.relu_hinge
    p = alpha @ cache.hinge_hinge @ alpha.T
    return cache.relu_relu + u[:, None] + u[None, :] + p


def _row_norms(ip):
    q = np.diag(ip)
    if np.any(q < -1e-10):
        raise NumericError(f"negative self inner product {q.min()!r}")
    return np.sqrt(np.maximum(q, 0.0))


def cosine_reg(alpha, cache: GramCache):
    """Negative mean of all pairwise cosine similarities (in [-1, 1])."""
    alpha = _as_matrix(alpha)
    ip = _pairwise_inner(alpha, cache)
    n = _row_norms(ip)
    if np.any(n <= DEGENERATE_NORM_EPS):
        raise DegenerateFunctionError(
            "cosine regularizer hit a near-zero-norm activation"
        )
    cos = ip / np.outer(n, n)
    return float(-cos.mean())


def distance_reg(alpha, cache: GramCache):
    """Mean of all pairwise squared function distances (>= 0): the centred
    form (2 / T) sum_t (a_t - a_bar)' G (a_t - a_bar)."""
    alpha = _as_matrix(alpha)
    t = alpha.shape[0]
    centered = t * alpha - alpha.sum(axis=0)  # T (a_t - a_bar): no division
    quad = np.einsum("ij,ij->", centered @ cache.hinge_hinge, centered)
    return float(2.0 * quad / t**3)


def regularizer_value(kind: RegKind, alpha, cache=None):
    if kind is RegKind.NONE:
        return 0.0
    if kind is RegKind.TRACE_NORM:
        return trace_norm(alpha)
    if cache is None:
        raise ValueError(f"{kind} requires a Gram cache")
    if kind is RegKind.COSINE:
        return cosine_reg(alpha, cache)
    return distance_reg(alpha, cache)


def reg_grad(kind: RegKind, alpha, cache=None):
    """Gradient of the selected regularizer with respect to alpha."""
    alpha = _as_matrix(alpha)
    t = alpha.shape[0]
    if kind is RegKind.NONE:
        return np.zeros_like(alpha)
    if kind is RegKind.TRACE_NORM:
        return trace_norm_grad(alpha)
    if cache is None:
        raise ValueError(f"{kind} requires a Gram cache")
    if kind is RegKind.DISTANCE:
        # row t of the gradient: (4 / T^2) * sum_j G (a_t - a_j)
        centered = t * alpha - alpha.sum(axis=0)[None, :]
        return (4.0 / t**2) * centered @ cache.hinge_hinge
    # cosine, by the quotient rule: with w_i = v + G a_i and n_i = ||F_i||,
    # dL/da_t = -(2/T^2) sum_j (w_j / (n_t n_j) - C_tj w_t / n_t^2)
    ip = _pairwise_inner(alpha, cache)
    n = _row_norms(ip)
    if np.any(n <= DEGENERATE_NORM_EPS):
        raise DegenerateFunctionError(
            "cosine regularizer hit a near-zero-norm activation"
        )
    cos = ip / np.outer(n, n)
    w = cache.relu_hinge[None, :] + alpha @ cache.hinge_hinge
    scaled = w / n[:, None]
    grad = (1.0 / n)[:, None] * scaled.sum(axis=0)[None, :] - (
        cos.sum(axis=1) / n**2
    )[:, None] * w
    return (-2.0 / t**2) * grad
