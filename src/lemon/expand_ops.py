"""Lossless expansion operators for vectors, matrices, biases, and norm layers.

All operators grow a trailing dimension from ``d_s`` to ``d_t >= d_s`` by
repeating the source ``floor(d_t/d_s)`` times and then filling the
``d_t mod d_s`` tail positions according to a mode:

=========  =====================================================
``avg``    tail = mean of the source entries (or row-mean, for rows)
``zero``   tail = zeros
``circ``   tail = leading source entries, wrapping circularly
``rand``   tail = caller-supplied values
=========  =====================================================

Each operator carries a losslessness contract relating what happens to an
expanded input with what happens to the original.  Row expansions leave
inputs untouched and expand outputs (``M* @ x == expand(M @ x)``); column
expansions accept expanded inputs and reproduce the original output
(``M* @ expand(x) == M @ x``).  A column expansion splits ``M``'s fan-out
between the copies; the split is the grown matrix itself, which
:func:`expand_matrix_cols` checks.  Choosing unequal parts
(:func:`lemon.expander.column_split`) is what breaks the symmetry of
replicated units.

Operators are pure and deterministic.  The ``rand`` tails and column
splits are always explicit arguments; no operator draws randomness
internally.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ShapeError, SplitError

VECTOR_MODES = ("avg", "zero", "circ", "rand")
ROW_MODES = ("avg", "zero", "circ")
COL_MODES = ("rand", "circ")

#: relative tolerance for column-split sum constraints (violations are
#: hard errors, never silently renormalized)
SPLIT_TOL = 1e-12

#: the sum checks read this many bytes of rows at a time
_CHECK_BYTES = 1 << 20


def _check_extents(d_s: int, d_t: int) -> tuple[int, int]:
    """Return (copies, tail) for an expansion d_s -> d_t."""
    if d_s <= 0:
        raise ShapeError(f"source extent must be positive, got {d_s}")
    if d_t < d_s:
        raise ShapeError(f"target extent {d_t} smaller than source {d_s}")
    return d_t // d_s, d_t % d_s


def expand_vector(x: np.ndarray, d_t: int, mode: str,
                  tail: np.ndarray | None = None) -> np.ndarray:
    """Expand a vector (or the trailing axis of a stack of vectors).

    ``tail`` is required for mode ``rand`` and must have length
    ``d_t mod len(x)`` along the trailing axis.
    """
    x = np.asarray(x)
    d_s = x.shape[-1]
    k, r = _check_extents(d_s, d_t)
    if mode not in VECTOR_MODES:
        raise ShapeError(f"unknown vector expansion mode {mode!r}")
    if r == 0:
        tail_part = x[..., :0]
    elif mode == "avg":
        tail_part = np.broadcast_to(x.mean(axis=-1, keepdims=True), x.shape[:-1] + (r,))
    elif mode == "zero":
        tail_part = np.zeros(x.shape[:-1] + (r,), dtype=x.dtype)
    elif mode == "circ":
        tail_part = x[..., :r]
    else:  # rand
        if tail is None:
            raise ShapeError("rand mode requires an explicit tail")
        tail = np.asarray(tail, dtype=x.dtype)
        if tail.shape != x.shape[:-1] + (r,):
            raise ShapeError(f"rand tail has shape {tail.shape}, want {x.shape[:-1] + (r,)}")
        tail_part = tail
    # allocated once, with x copied into its k column blocks in place; a
    # reshape that had to copy would drop the write, so it raises instead
    out = np.empty(x.shape[:-1] + (d_t,), dtype=np.result_type(x, tail_part))
    out[..., :k * d_s].reshape(x.shape[:-1] + (k, d_s), copy=False)[...] = x[..., None, :]
    out[..., k * d_s:] = tail_part
    return out


def row_blocks(m: np.ndarray, d_t: int, mode: str) -> list[tuple[slice, np.ndarray]]:
    """The row expansion of ``m`` to d_t rows as ``(rows, block)`` pairs,
    in row order: ``block`` is what the grown matrix holds in ``rows``.
    That is ``m`` itself ``floor(d_t/d_s)`` times, then the tail rows:
    the leading rows of ``m`` (``circ``), or its row-mean (``avg``) or
    zeros (``zero``) broadcast from one row."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"a row expansion expects a matrix, got shape {m.shape}")
    if mode not in ROW_MODES:
        raise ShapeError(f"unknown row expansion mode {mode!r}")
    p, n = m.shape
    k, r = _check_extents(p, d_t)
    blocks = [(slice(i * p, (i + 1) * p), m) for i in range(k)]
    if r > 0:
        if mode == "avg":
            tail = np.broadcast_to(m.mean(axis=0, keepdims=True), (r, n))
        elif mode == "zero":
            tail = np.broadcast_to(np.zeros((1, n), dtype=m.dtype), (r, n))
        else:
            tail = m[:r]
        blocks.append((slice(k * p, d_t), tail))
    return blocks


def expand_matrix_rows(m: np.ndarray, d_t: int, mode: str) -> np.ndarray:
    """Grow the row count of ``m`` from d_s to d_t.

    Rows repeat circularly; the tail rows are the row-mean (``avg``),
    zeros (``zero``), or the leading rows again (``circ``), as
    :func:`row_blocks` lays them out.  The result satisfies
    ``m* @ x == expand_vector(m @ x, d_t, mode)``.
    """
    blocks = row_blocks(m, d_t, mode)
    grown = np.empty((d_t, blocks[0][1].shape[1]), dtype=blocks[0][1].dtype)
    for rows, block in blocks:
        grown[rows] = block
    return grown


@np.errstate(over="ignore", invalid="ignore")
def _split_close(target: np.ndarray, *terms: np.ndarray) -> bool:
    """Whether the sum of ``terms`` is within ``SPLIT_TOL`` of ``target``,
    relative to its largest magnitude.  A sum that overflows or turns NaN
    is not, and gives no warning: the caller raises SplitError.

    The rows are checked about ``_CHECK_BYTES`` at a time, so the check's
    temporaries stay that small however large the matrix is."""
    if not target.size:
        return True
    limit = SPLIT_TOL * max(1.0, float(target.max()), -float(target.min()))
    step = max(1, _CHECK_BYTES // (target.shape[1] * target.itemsize))
    for i in range(0, target.shape[0], step):
        rows = slice(i, i + step)
        err = functools.reduce(np.add, (term[rows] for term in terms)) - target[rows]
        # max(x.max(), -x.min()) is abs(x).max() without an abs temporary;
        # written so that a NaN is never within the limit
        if not max(float(err.max()), -float(err.min())) <= limit:
            return False
    return True


def expand_matrix_cols(m: np.ndarray, d_t: int, mode: str,
                       grown: np.ndarray) -> np.ndarray:
    """Check that ``grown`` is a lossless column expansion of ``m`` to d_t
    columns, and return it.

    ``grown`` is the ``(p, d_t)`` matrix of a column split: its first
    ``k = floor(d_t/d_s)`` column blocks of ``d_s`` columns are the
    per-copy parts, and its last ``r = d_t mod d_s`` columns are the
    ``rand`` tail or the ``circ`` residual.  ``rand`` mode requires
    ``sum(parts) == m`` and yields ``grown @ zero_expand(x) == m @ x``;
    the tail is free, since it only ever multiplies zeros.  ``circ``
    mode requires ``residual + sum(parts)[:, :r] == m[:, :r]`` and
    ``sum(parts)[:, r:] == m[:, r:]``, since the leading columns wrap
    around once more, and yields ``grown @ circ_expand(x) == m @ x``.
    Violations beyond ``SPLIT_TOL`` (relative) raise :class:`SplitError`.
    """
    m = np.asarray(m)
    grown = np.asarray(grown)
    if m.ndim != 2:
        raise ShapeError(f"expand_matrix_cols expects a matrix, got shape {m.shape}")
    if mode not in COL_MODES:
        raise ShapeError(f"unknown column expansion mode {mode!r}")
    p, d_s = m.shape
    k, r = _check_extents(d_s, d_t)
    if grown.shape != (p, d_t):
        raise SplitError(f"split has shape {grown.shape}, want {(p, d_t)}")
    parts = [grown[:, i * d_s:(i + 1) * d_s] for i in range(k)]
    if mode == "rand" or r == 0:
        if not _split_close(m, *parts):
            raise SplitError(f"{mode} split parts do not sum to the source matrix")
    else:  # circ
        extra = grown[:, k * d_s:]
        if not _split_close(m[:, :r], *(part[:, :r] for part in parts), extra):
            raise SplitError("circ split violates the wrapped-column constraint")
        if not _split_close(m[:, r:], *(part[:, r:] for part in parts)):
            raise SplitError("circ split parts do not sum to the source columns")
    return grown


def expand_bias(b: np.ndarray, d_t: int, mode: str) -> np.ndarray:
    """Expand a bias vector; the add-bias operator then maps mode-expanded
    inputs to mode-expanded outputs."""
    if mode not in ROW_MODES:
        raise ShapeError(f"unknown bias expansion mode {mode!r}")
    return expand_vector(b, d_t, mode)


def norm_expansion_gain(d_s: int, d_t: int) -> float:
    """Scale applied to norm weights so expanded statistics match.

    Equal to ``sqrt(floor(d_t/d_s) * d_s / d_t)``; 1 exactly when ``d_t``
    is a multiple of ``d_s``, and in (0, 1] otherwise.  Averaging-expanded
    inputs shrink the population variance by this factor squared, so the
    weight and eps are corrected by the gain and its square.
    """
    k, r = _check_extents(d_s, d_t)
    if r == 0:
        return 1.0
    return math.sqrt(k * d_s / d_t)


def expand_layernorm(mu: np.ndarray, beta: np.ndarray, eps: float, d_t: int,
                     tail: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Expand LayerNorm parameters from d_s to d_t.

    Returns ``(mu*, beta*, eps*)`` with ``mu* = gain * rand_expand(mu, tail)``,
    ``beta* = zero_expand(beta)`` and ``eps* = gain^2 * eps``.  Feeding the
    expanded layer an average-expanded input reproduces the original output
    padded with zeros: ``LN*(avg_expand(x)) == zero_expand(LN(x))``.
    ``tail`` is free (it only ever scales zeros) and must have length
    ``d_t mod d_s``.
    """
    mu = np.asarray(mu)
    gain = norm_expansion_gain(mu.shape[-1], d_t)
    mu_t = np.asarray(gain * expand_vector(mu, d_t, "rand", tail=tail), dtype=mu.dtype)
    beta_t = expand_vector(beta, d_t, "zero")
    return mu_t, beta_t, gain * gain * eps


def expand_rmsnorm(mu: np.ndarray, eps: float, d_t: int,
                   tail: np.ndarray) -> tuple[np.ndarray, float]:
    """Expand RMS-norm parameters from d_s to d_t.

    Returns ``(mu*, eps*)`` such that ``RMS*(zero_expand(x)) ==
    zero_expand(RMS(x))``.  Note the input side is zero expansion here,
    not average expansion: zero padding preserves the mean square up to
    the same gain factor.
    """
    mu = np.asarray(mu)
    gain = norm_expansion_gain(mu.shape[-1], d_t)
    mu_t = np.asarray(gain * expand_vector(mu, d_t, "rand", tail=tail), dtype=mu.dtype)
    return mu_t, gain * gain * eps
