"""Dense numeric kernels: the single source of floating-point semantics.

Every other module computes through these functions, so their numerical
behaviour is pinned down deliberately:

* ``matmul`` never goes through BLAS.  The expansion algebra leans on two
  properties BLAS kernels do not guarantee: (1) replicated weight
  rows/columns must produce bitwise-identical outputs, and (2) a sum
  whose only nonzero terms form an exact ± pair must evaluate to exactly
  zero (fused multiply-adds break this by cancelling a rounded product
  against an exact one).  A one-time probe checks whether this build's
  non-BLAS ``einsum`` loop honours both properties; if not, matmul falls
  back to rounding each product individually and accumulating with
  numpy's pairwise summation, which satisfies them by construction.
* ``matmul`` takes its right operand as stored or as a transposed view:
  every weight matrix is stored (out, in) and multiplied as ``w.T``, so
  callers never copy a weight to transpose it.  einsum walks a view in
  a different order than a C-contiguous array, so the probe checks both
  properties in both layouts.
* ``layernorm`` uses the population variance (``ddof=0``).
* ``gelu`` is the exact erf-based form, not the tanh approximation.

Tensors are numpy arrays of dtype float32 or float64.
Kernels raise :class:`NumericsError` rather than letting NaN/Inf escape.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import NumericsError, ShapeError

SUPPORTED_DTYPES = (np.float32, np.float64)


def _require_float(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        raise ShapeError(f"{name}: unsupported dtype {x.dtype} (want float32/float64)")
    return x


def _check_finite(x: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericsError(f"{op} produced non-finite values")
    return x


#: inner-axis slab size bounding the m*k*n product temporary
_CHUNK = 256


@np.errstate(over="ignore", invalid="ignore")
def _multiply_then_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # an overflow or inf * 0 here is reported by matmul's finiteness check,
    # not as a numpy warning (einsum raises none for either)
    out = None
    for s in range(0, max(a.shape[1], 1), _CHUNK):
        part = (a[:, s:s + _CHUNK, None] * b[None, s:s + _CHUNK, :]).sum(axis=1)
        out = part if out is None else out + part
    return out


def _einsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # optimize=False keeps einsum on its non-BLAS sum-of-products loop
    return np.einsum("ik,kj->ij", a, b, optimize=False)


def _einsum_is_trustworthy() -> bool:
    """Check the two accumulation properties matmul promises (see module
    docstring) on this numpy build, across the k-slab boundary, with the
    right operand C-contiguous and as a transposed (Fortran-order) view."""
    g = np.random.Generator(np.random.Philox(key=[7, 11]))
    for k_half in (5, _CHUNK):
        h = g.standard_normal((3, 2 * k_half))
        h[:, k_half:] = h[:, :k_half]
        w = np.zeros((2 * k_half, 4))
        for t in range(4):
            z = t % k_half
            w[z, t] = 0.02 * (t + 1)
            w[z + k_half, t] = -w[z, t]
        base = g.standard_normal((k_half, 7))
        dup = np.hstack([base, base, base[:, :2]])
        lhs = g.standard_normal((3, k_half))
        for layout in (np.ascontiguousarray, np.asfortranarray):
            if not np.all(_einsum(h, layout(w)) == 0.0):
                return False
            c = _einsum(lhs, layout(dup))
            for j in range(dup.shape[1]):
                if not np.array_equal(c[:, j], c[:, j % 7]):
                    return False
    return True


_inner = None


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_l A[i,l] * B[l,j], with replica-stable accumulation."""
    global _inner
    a = _require_float(a, "matmul lhs")
    b = _require_float(b, "matmul rhs")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul dtype mismatch: {a.dtype} vs {b.dtype}")
    if _inner is None:
        _inner = _einsum if _einsum_is_trustworthy() else _multiply_then_sum
    return _check_finite(_inner(a, b), "matmul")


def layernorm(x: np.ndarray, mu: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """Normalize the trailing axis to zero mean / unit population variance,
    then scale by ``mu`` and shift by ``beta``."""
    x = _require_float(x, "layernorm input")
    d = x.shape[-1]
    if mu.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layernorm params must have shape ({d},), got {mu.shape}/{beta.shape}")
    centered = x - x.mean(axis=-1, keepdims=True)
    # the population variance, as x.var computes it, without centering again
    var = np.mean(np.square(centered), axis=-1, keepdims=True)
    denom = var + eps
    if np.any(denom <= 0.0):
        raise NumericsError("layernorm: Var[x] + eps is not positive")
    out = centered / np.sqrt(denom) * mu + beta
    return _check_finite(out, "layernorm")


def rmsnorm(x: np.ndarray, mu: np.ndarray, eps: float) -> np.ndarray:
    """Scale the trailing axis by 1/sqrt(mean(x^2) + eps), then by ``mu``."""
    x = _require_float(x, "rmsnorm input")
    d = x.shape[-1]
    if mu.shape != (d,):
        raise ShapeError(f"rmsnorm mu must have shape ({d},), got {mu.shape}")
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    denom = ms + eps
    if np.any(denom <= 0.0):
        raise NumericsError("rmsnorm: mean(x^2) + eps is not positive")
    out = x / np.sqrt(denom) * mu
    return _check_finite(out, "rmsnorm")


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    m = _require_float(m, "softmax input")
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D matrix, got shape {m.shape}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return _check_finite(out, "softmax_rows")


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise nonlinearity: ``relu`` or exact erf-based ``gelu``."""
    x = _require_float(x, "activation input")
    if kind == "relu":
        out = np.maximum(x, 0)
    elif kind == "gelu":
        out = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)).astype(x.dtype))
    else:
        raise ShapeError(f"unknown activation kind {kind!r}")
    return _check_finite(out, "activation")
