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
* Under ``split_on``, which hands the calling thread a pool of workers,
  ``matmul`` splits a large product's output columns into slabs, one per
  worker, and ``model.mha_forward`` its heads into contiguous groups.
  Neither changes a bit.  A head's output depends on that head's weights
  alone.  einsum's loop computes every output element from the same row
  and column, adding the same products in the same order, however many
  columns it writes; so a slab, written by the inner loop straight into
  its columns of the output, holds the bits of those columns of the
  whole product.  A second probe checks that, in both layouts, with cuts
  at odd columns, across a replica group and through a product of ±
  pairs, when the first product would split; on a build that fails it,
  and with the fallback loop, matmul never splits.  Outside
  ``split_on``, and in a task on the pool, kernels run serially, so no
  task waits on the pool.
* ``layernorm`` uses the population variance (``ddof=0``).
* ``gelu`` is the exact erf-based form, ``x Phi(x)``, not the tanh
  approximation.  Its ``erf`` is this module's own, in numpy alone: a
  table of erf at every 1/256 on [0, 6] (``erf_table``), corrected by
  a degree-5 Taylor polynomial about the nearest grid point, whose
  coefficients are derived from erf's derivative when this module is
  imported.  Against mpmath it is within 0.83 ulp of the exact value
  (glibc's ``erf``, which ``math.erf`` calls, is within 0.95), and
  the tests hold it within 1 ulp of ``math.erf``.  It is a pure
  elementwise function: a value's bits do not depend on the array's
  size, shape or the value's position in it, so replicated units get
  bitwise-identical activations.  ``erf`` and ``gelu`` run in chunks
  of at most ``_CHUNK_ELEMS`` values, which bounds their temporaries;
  a float32 input is evaluated in float64 and rounded once.

Tensors are numpy arrays of dtype float32 or float64.
Kernels raise :class:`NumericsError` rather than letting NaN/Inf escape.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .erf_table import ERF_HI_LO
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


def _einsum(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # optimize=False keeps einsum on its non-BLAS sum-of-products loop
    return np.einsum("ik,kj->ij", a, b, out=out, optimize=False)


#: the right operand's two layouts: as stored, and as the transposed view
#: of an (out, in) weight, which einsum walks in another order
_LAYOUTS = (np.ascontiguousarray, np.asfortranarray)


def _probe_operands():
    """The probe's operands, for an inner extent inside the first k-slab
    and across its boundary: ``h @ w`` sums a ± pair of bitwise-equal
    columns in each output column, and the columns of ``lhs @ dup``
    repeat every 7."""
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
        yield h, w, g.standard_normal((3, k_half)), dup


def _einsum_is_trustworthy() -> bool:
    """Check the two accumulation properties matmul promises (see module
    docstring) on this numpy build, across the k-slab boundary, with the
    right operand C-contiguous and as a transposed (Fortran-order) view."""
    for h, w, lhs, dup in _probe_operands():
        for layout in _LAYOUTS:
            if not np.all(_einsum(h, layout(w)) == 0.0):
                return False
            c = _einsum(lhs, layout(dup))
            for j in range(dup.shape[1]):
                if not np.array_equal(c[:, j], c[:, j % 7]):
                    return False
    return True


def _slabs_equal_whole(a: np.ndarray, b: np.ndarray, cuts) -> bool:
    """Whether einsum's column slabs of ``a @ b``, cut at ``cuts`` and
    each written into its columns of one output, hold the whole product's
    bits."""
    out = np.empty((a.shape[0], b.shape[1]))
    bounds = [0, *cuts, b.shape[1]]
    for s, e in zip(bounds, bounds[1:]):
        _einsum(a, b[:, s:e], out=out[:, s:e])
    return np.array_equal(out.view(np.uint64), _einsum(a, b).view(np.uint64))


def _einsum_slabs_are_exact() -> bool:
    """Check that einsum's column slabs, written into one output, equal
    the whole product bit for bit, in both layouts, on the probe's
    operands: cut at odd columns, into single columns, across the
    replica groups and through the ± pairs' product."""
    return all(_slabs_equal_whole(lhs, layout(dup), (1, 4, 10, 11, 15))
               and _slabs_equal_whole(h, layout(w), (1, 2))
               for h, w, lhs, dup in _probe_operands() for layout in _LAYOUTS)


_inner = None
_slabs_exact = None


def matmul_inner():
    """matmul's inner loop, chosen by the probe on first use.  Callers
    about to run matmul on several threads call it first, so that the
    probe runs once, on one thread."""
    global _inner
    if _inner is None:
        _inner = _einsum if _einsum_is_trustworthy() else _multiply_then_sum
    return _inner


def _splits_exactly() -> bool:
    """Whether einsum's column slabs hold the whole product's bits; probed
    when the first product would split, on the thread that holds the pool
    (a task never splits), so that a process that never splits never
    allocates the probe's operands."""
    global _slabs_exact
    if _slabs_exact is None:
        _slabs_exact = _einsum_slabs_are_exact()
    return _slabs_exact


#: multiply-adds per part: a call of W multiply-adds splits into at most
#: W // _SPLIT_WORK parts, so a product splits in two from 2.1M.  Measured
#: on a 2-core VM with both cores free, as the median speed of 2 column
#: slabs on 2 threads over the unsplit product across 10 alternating
#: sets, for a (16, k) operand times the transposed view of an (n, k)
#: weight (k x n): 128x256 (0.52M) 0.61x, 256x256 (1.05M) 1.02x,
#: 256x384 (1.57M) 1.00x, 384x384 (2.36M) 1.33x, 256x768 (3.15M) 1.21x,
#: 384x768 (4.72M) 1.40x, 768x768 (9.44M) 1.67x, 768x3072 (37.7M) 1.82x.
_SPLIT_WORK = 1 << 20


class _Split(threading.local):
    """The pool this thread's kernel calls split on, and its worker
    count: set by :func:`split_on`, and unset on every other thread."""

    pool = None
    workers = 1


_split = _Split()


@contextlib.contextmanager
def split_on(pool, workers: int):
    """Inside the block, let this thread's large kernel calls split their
    work into up to ``workers`` parts, run on ``pool`` (an executor with
    ``map``).  The caller owns the pool and shuts it down."""
    _split.pool, _split.workers = pool, workers
    try:
        yield
    finally:
        _split.pool, _split.workers = None, 1


def split_ranges(units: int, work: int) -> list[tuple[int, int]]:
    """Contiguous ranges ``(start, stop)`` that cover ``range(units)`` in
    order, for a call of ``units`` independent units (heads, columns) and
    ``work`` multiply-adds: one range unless this thread has a pool
    (:func:`split_on`), else at most one per worker, per unit and per
    :data:`_SPLIT_WORK` multiply-adds."""
    if _split.pool is None:
        return [(0, units)]
    parts = max(1, min(_split.workers, units, work // _SPLIT_WORK if _SPLIT_WORK else units))
    return [(units * p // parts, units * (p + 1) // parts) for p in range(parts)]


def split_map(fn, items: list) -> list:
    """``[fn(item) for item in items]``, run on this thread's pool when
    there is more than one item.  A task runs with no pool of its own, so
    nothing it calls splits again and no task waits on the pool."""
    if len(items) < 2:
        return [fn(item) for item in items]

    def task(item):
        saved = _split.pool  # a pool may run a task on the calling thread
        _split.pool = None
        try:
            return fn(item)
        finally:
            _split.pool = saved

    return list(_split.pool.map(task, items))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_l A[i,l] * B[l,j], with replica-stable accumulation;
    split into column slabs under :func:`split_on` when it is large."""
    a = _require_float(a, "matmul lhs")
    b = _require_float(b, "matmul rhs")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul dtype mismatch: {a.dtype} vs {b.dtype}")
    inner = matmul_inner()
    # the fallback loop is not split: its sums run in another order for
    # a single column
    if _split.pool is not None and inner is _einsum:
        (m, k), n = a.shape, b.shape[1]
        slabs = split_ranges(n, m * k * n)
        if len(slabs) > 1 and _splits_exactly():
            out = np.empty((m, n), a.dtype)
            split_map(lambda r: inner(a, b[:, r[0]:r[1]], out=out[:, r[0]:r[1]]), slabs)
            return _check_finite(out, "matmul")
    return _check_finite(inner(a, b), "matmul")


@np.errstate(over="ignore", invalid="ignore")
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
    if not np.all((denom > 0.0) & (denom < np.inf)):
        raise NumericsError("layernorm: Var[x] + eps is not positive and finite")
    out = centered / np.sqrt(denom) * mu + beta
    return _check_finite(out, "layernorm")


@np.errstate(over="ignore", invalid="ignore")
def rmsnorm(x: np.ndarray, mu: np.ndarray, eps: float) -> np.ndarray:
    """Scale the trailing axis by 1/sqrt(mean(x^2) + eps), then by ``mu``."""
    x = _require_float(x, "rmsnorm input")
    d = x.shape[-1]
    if mu.shape != (d,):
        raise ShapeError(f"rmsnorm mu must have shape ({d},), got {mu.shape}")
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    denom = ms + eps
    if not np.all((denom > 0.0) & (denom < np.inf)):
        raise NumericsError("rmsnorm: mean(x^2) + eps is not positive and finite")
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


#: points per unit of the erf table, the degree of its Taylor polynomials,
#: and where the table ends: erf(x) rounds to 1.0 from x = 5.922 on
_ERF_GRID = 256
_ERF_DEGREE = 5
_ERF_END = 6.0
#: |x| / 2 past which gelu's erf(|x| / sqrt 2) rounds to 1.0 (from 4.187)
_GELU_HALF_END = 4.2
#: 2/sqrt(pi) - 1, correctly rounded (2/sqrt(pi) rounded, minus 1, is not)
_EFX = 0.12837916709551257


def _erf_rows() -> np.ndarray:
    """The erf table as rows by grid point ``a = k / _ERF_GRID``: ``hi`` and
    ``lo`` (erf(a) = hi + lo), then ``c1 - 1`` and ``c2 .. c5``, where
    ``c_n = (2/sqrt(pi)) exp(-a^2) (-1)^(n-1) H_(n-1)(a) / n!`` is the n-th
    Taylor coefficient of erf at ``a`` and ``H`` are the physicists'
    Hermite polynomials.  ``c1 - 1`` is taken through expm1, so it is
    accurate to its own last bit, not only to ``c1``'s."""
    a = np.arange(len(ERF_HI_LO)) / _ERF_GRID
    c1_less_1 = np.array([_EFX + (1.0 + _EFX) * math.expm1(-t * t) for t in a])
    c1 = 1.0 + c1_less_1
    hermite = [np.ones_like(a), 2.0 * a]
    for n in range(1, _ERF_DEGREE - 1):
        hermite.append(2.0 * a * hermite[n] - 2.0 * n * hermite[n - 1])
    higher = [(-1) ** (n - 1) * c1 * hermite[n - 1] / math.factorial(n)
              for n in range(2, _ERF_DEGREE + 1)]
    hi, lo = np.array(ERF_HI_LO).T
    # C order, so that gathering a row of indices reads rows, not columns
    return np.ascontiguousarray([hi, lo, c1_less_1, *higher])


_ERF_ROWS = _erf_rows()

#: the most values erf and gelu evaluate at once
_CHUNK_ELEMS = 2048


def _erf_scaled(s: np.ndarray) -> np.ndarray:
    """erf(s / _ERF_GRID) for float64 ``s`` in [0, _ERF_END * _ERF_GRID], overwriting
    ``s``: with ``k`` the nearest grid point and ``h = (s - k) / _ERF_GRID``,
    ``hi + (h + (lo + h (c1 - 1 + h (c2 + ... + h c5))))``.  The leading
    ``h`` is split out of ``c1 h`` so that it is added exactly."""
    k = np.rint(s)
    at = k.astype(np.intp)
    h = s
    h -= k
    del k  # freed before the gather, the chunk's largest allocation
    h *= 1.0 / _ERF_GRID
    hi, lo, *c = _ERF_ROWS.take(at, axis=1)
    # Horner's rule, in the gathered row of the last coefficient
    p = c[-1]
    p *= h
    for cn in reversed(c[:-1]):
        p += cn
        p *= h
    p += lo
    p += h
    p += hi
    return p


def _erf64(x: np.ndarray) -> np.ndarray:
    s = np.abs(x)
    # fmin maps NaN into the table; the NaN is restored below
    np.fmin(s, _ERF_END, out=s)
    s *= _ERF_GRID
    p = _erf_scaled(s)
    np.copysign(p, x, out=p)
    np.copyto(p, x, where=np.isnan(x))
    return p


@np.errstate(invalid="ignore")
def _gelu64(x: np.ndarray) -> np.ndarray:
    # x Phi(x) = x/2 + |x|/2 erf(|x| / sqrt 2), which cannot overflow; at
    # x = -inf it is inf - inf, a NaN that activation's finiteness check reports
    half = x * 0.5
    abs_half = np.abs(half)
    # a NaN in x reaches the result through half
    s = np.fmin(abs_half, _GELU_HALF_END)
    s *= math.sqrt(2.0) * _ERF_GRID  # |x| / sqrt 2, scaled
    p = _erf_scaled(s)
    p *= abs_half
    p += half
    return p


def _chunked(f, x: np.ndarray) -> np.ndarray:
    """``f`` over ``x`` in float64, one chunk of at most ``_CHUNK_ELEMS``
    values at a time, into an array of ``x``'s shape and dtype."""
    flat = x.reshape(-1)
    if flat.size <= _CHUNK_ELEMS:
        return f(flat.astype(np.float64, copy=False)).astype(x.dtype, copy=False).reshape(x.shape)
    out = np.empty_like(flat)
    for s in range(0, flat.size, _CHUNK_ELEMS):
        out[s:s + _CHUNK_ELEMS] = f(flat[s:s + _CHUNK_ELEMS].astype(np.float64, copy=False))
    return out.reshape(x.shape)


def erf(x) -> np.ndarray:
    """The error function, elementwise, within 1 ulp of the exact value
    (see the module docstring).  A float32 array gives float32; anything
    else is evaluated as float64."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    return _chunked(_erf64, x)


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise nonlinearity: ``relu`` or exact erf-based ``gelu``."""
    x = _require_float(x, "activation input")
    if kind == "relu":
        out = np.maximum(x, 0)
    elif kind == "gelu":
        out = _chunked(_gelu64, x)
    else:
        raise ShapeError(f"unknown activation kind {kind!r}")
    return _check_finite(out, "activation")
