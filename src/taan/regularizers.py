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

from taan.apl import _coords
from taan.data import _real
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
        c = _real("coefficient", self.coefficient, 0, np.inf, closed=True)
        object.__setattr__(self, "coefficient", c)


def trace_norm(alpha):
    """Nuclear norm: the sum of singular values."""
    return float(np.linalg.svd(_coords(alpha, None, 2), compute_uv=False).sum())


def trace_norm_grad(alpha):
    """Subgradient U V' from the thin SVD, dropping directions whose
    singular value falls below the cutoff (any subdifferential element is
    valid; this choice is deterministic)."""
    u, s, vt = np.linalg.svd(_coords(alpha, None, 2), full_matrices=False)
    keep = s > SINGULAR_VALUE_CUTOFF
    return u[:, keep] @ vt[keep, :]


def _cosine_terms(alpha, cache):
    """alpha @ G, the row norms n_i = ||F_i|| and the matrix of pairwise
    cosines C_ij, from IP[i, j] = s + (a_i + a_j)' v + a_i' G a_j."""
    ag = alpha @ cache.hinge_hinge
    u = alpha @ cache.relu_hinge
    ip = cache.relu_relu + u[:, None] + u[None, :] + ag @ alpha.T
    q = np.diag(ip)
    if np.any(q < -1e-10):
        raise NumericError(f"negative self inner product {q.min()!r}")
    n = np.sqrt(np.maximum(q, 0.0))
    if np.any(n <= DEGENERATE_NORM_EPS):
        raise DegenerateFunctionError(
            "cosine regularizer hit a near-zero-norm activation"
        )
    return ag, n, ip / np.outer(n, n)


def _centred_gram(alpha, cache):
    """T (a_t - a_bar) for every row (no division), and its product with G."""
    centred = alpha.shape[0] * alpha - alpha.sum(axis=0)
    return centred, centred @ cache.hinge_hinge


def cosine_reg(alpha, cache: GramCache):
    """Negative mean of all pairwise cosine similarities (in [-1, 1])."""
    _, _, cos = _cosine_terms(_coords(alpha, cache.basis_count, 2), cache)
    return float(-cos.mean())


def distance_reg(alpha, cache: GramCache):
    """Mean of all pairwise squared function distances (>= 0): the centred
    form (2 / T) sum_t (a_t - a_bar)' G (a_t - a_bar)."""
    alpha = _coords(alpha, cache.basis_count, 2)
    centred, centred_g = _centred_gram(alpha, cache)
    quad = np.einsum("ij,ij->", centred_g, centred)
    return float(2.0 * quad / alpha.shape[0] ** 3)


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
    if kind is RegKind.NONE:
        return np.zeros_like(_coords(alpha, None, 2))
    if kind is RegKind.TRACE_NORM:
        return trace_norm_grad(alpha)
    if cache is None:
        raise ValueError(f"{kind} requires a Gram cache")
    alpha = _coords(alpha, cache.basis_count, 2)
    t = alpha.shape[0]
    if kind is RegKind.DISTANCE:
        # row t of the gradient: (4 / T^2) * sum_j G (a_t - a_j)
        return (4.0 / t**2) * _centred_gram(alpha, cache)[1]
    # cosine, by the quotient rule: with w_i = v + G a_i and n_i = ||F_i||,
    # dL/da_t = -(2/T^2) sum_j (w_j / (n_t n_j) - C_tj w_t / n_t^2)
    ag, n, cos = _cosine_terms(alpha, cache)
    w = cache.relu_hinge[None, :] + ag
    scaled = w / n[:, None]
    grad = (1.0 / n)[:, None] * scaled.sum(axis=0)[None, :] - (
        cos.sum(axis=1) / n**2
    )[:, None] * w
    return (-2.0 / t**2) * grad
