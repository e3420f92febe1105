"""Checkpoint-level verification: losslessness, symmetry, fixtures.

``verify_lossless`` evaluates two checkpoints on seeded random inputs
and reports the worst logit difference (and, for token models, the worst
token-table difference); ``symmetry_report`` measures how
far apart the fan-out vectors of replicated units ended up; and
``init_random_model`` writes deterministic random fixtures.  The
hand-written gradient step for the two-layer toy network lives here too,
for demonstrating that unequal fan-out makes replicated units diverge
under training while equal fan-out keeps them locked together.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .container import CheckpointReader, write_checkpoint
# not called here: kept for perfbench/tests, which look the binding up in this module
from .container import read_checkpoint  # noqa: F401
from .errors import PlanError, ShapeError
from .expand_ops import expand_vector
from .expander import _as64, _stream_mode
from .kernels import activation
from .model import (ModelSpec, ModelWeights, block_forward, decode, embed,
                    random_weights)
from .rng import check_seed, substream

#: environment variable capping verification parallelism
THREADS_ENV = "LEMON_THREADS"

#: default tolerance per stored weight dtype; a float32 model on either
#: side gives the pair the float32 value
DEFAULT_TOL = {np.dtype(np.float64): 1e-10, np.dtype(np.float32): 1e-5}


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class SampleDiff:
    index: int
    worst_position: tuple[int, ...]
    abs_diff: float


@dataclass(frozen=True)
class VerifyReport:
    """The worst logit difference over the samples and, for token
    models, the worst difference between the big token table and the
    expanded small one (None for vision models)."""

    max_abs_diff: float
    tol: float
    samples: list[SampleDiff]
    embedding_diff: float | None = None

    @property
    def passed(self) -> bool:
        return (self.max_abs_diff <= self.tol
                and (self.embedding_diff is None or self.embedding_diff <= self.tol))

    def to_dict(self) -> dict:
        return {"max_abs_diff": self.max_abs_diff, "tol": self.tol,
                "embedding_diff": self.embedding_diff, "passed": self.passed,
                "samples": [{"index": s.index,
                             "worst_position": list(s.worst_position),
                             "abs_diff": s.abs_diff} for s in self.samples]}


def _compatible(a: ModelSpec, b: ModelSpec) -> None:
    same = (a.input_kind == b.input_kind
            and a.vocab_or_classes == b.vocab_or_classes
            and a.patch_dim == b.patch_dim
            and a.num_patches == b.num_patches)
    if not same:
        raise PlanError("checkpoints accept different inputs or emit different logits")


def _draw_input(spec: ModelSpec, rng: np.random.Generator, seq_len: int):
    if spec.input_kind == "token":
        return rng.integers(0, spec.vocab_or_classes, size=seq_len)
    return rng.standard_normal((spec.num_patches, spec.patch_dim))


def verify_lossless(small_path, big_path, samples: int, seed: int,
                    tol: float | None, seq_len: int = 16) -> VerifyReport:
    """Compare two checkpoints on ``samples`` seeded random inputs and,
    for token models, on every row of the token table.

    Evaluation runs in float64 regardless of the stored dtype.  A ``tol``
    of None takes :data:`DEFAULT_TOL` of the stored dtypes: 1e-10 when
    both checkpoints hold float64 weights, 1e-5 once either holds
    float32, whose expansions agree only to float32 resolution.  The
    report carries the per-sample worst logit positions; it is a pure
    function of (checkpoints, samples, seed), independent of the thread
    count set via ``LEMON_THREADS``.  Zero samples or a zero sequence
    length would pass on no evidence, so both are rejected, and so is a
    NaN, infinite or negative ``tol``, which would fail or pass every
    pair.

    The samples read only the token rows they draw, so the big token
    table is also compared, whole, with the small one expanded to the
    big width in the stream's vector mode, within ``tol``.  A big width
    that is no expansion of the small one raises :class:`ShapeError`.

    Both models are read a block at a time, after their headers and
    tensor tables have been checked: every sample passes through block
    ``i`` before block ``i + 1`` is read, so no more than one block of
    either model is held at once.
    """
    if samples < 1:
        raise PlanError(f"--samples must be at least 1, got {samples}")
    if seq_len < 1:
        raise PlanError(f"--seq-len must be at least 1, got {seq_len}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise PlanError(f"--tol must be finite and non-negative, got {tol}")
    check_seed(seed)
    with CheckpointReader(small_path) as small, CheckpointReader(big_path) as big, \
            _sample_map() as each:
        small_spec = small.spec
        _compatible(small_spec, big.spec)
        if tol is None:
            tol = max(DEFAULT_TOL[small.dtype], DEFAULT_TOL[big.dtype])
        small_shell, big_shell = _as64(small.shell()), _as64(big.shell())
        embedding_diff = _embedding_diff(small_shell, small_spec, big_shell, big.spec)
        inputs = [_draw_input(small_spec, substream(seed, "verify", i), seq_len)
                  for i in range(samples)]
        want = _logits(small, small_shell, inputs, each)
        got = _logits(big, big_shell, inputs, each)

    results = []
    for i, (a, b) in enumerate(zip(got, want)):
        diff = np.abs(a - b)
        pos = np.unravel_index(int(np.argmax(diff)), diff.shape)
        results.append(SampleDiff(i, tuple(int(p) for p in pos), float(diff[pos])))
    worst = max((s.abs_diff for s in results), default=0.0)
    return VerifyReport(worst, tol, results, embedding_diff)


def _embedding_diff(small: ModelWeights, small_spec: ModelSpec,
                    big: ModelWeights, big_spec: ModelSpec) -> float | None:
    """The largest difference between the big token table and the small
    one expanded to the big width, or None for vision models, whose
    embedding every sample reads whole."""
    if small_spec.input_kind != "token":
        return None
    try:
        want = expand_vector(small.embedding.token_table, big_spec.width,
                             _stream_mode(small_spec.norm_style))
    except ShapeError as exc:
        raise ShapeError(f"big width {big_spec.width} is no expansion of small width "
                         f"{small_spec.width}") from exc
    return float(np.abs(big.embedding.token_table - want).max())


def _logits(reader: CheckpointReader, shell: ModelWeights, inputs: list, each) -> list:
    """The logits of every input under ``reader``'s model, whose float64
    embedding and decoder are ``shell``: the embedding, each block as it
    is read, then the decoder, which is exactly what ``model_forward``
    computes."""
    spec = reader.spec
    xs = each(lambda x: embed(x, shell, spec), inputs)
    for i in range(spec.depth):
        block = _as64(reader.block(i))
        xs = each(lambda x: block_forward(x, block, spec), xs)
        del block  # before the next block is read
    return each(lambda x: decode(x, shell, spec), xs)


@contextlib.contextmanager
def _sample_map():
    """``map`` over samples as a list, on ``LEMON_THREADS`` threads."""
    workers = _thread_count()
    if workers == 1:
        yield lambda fn, items: [fn(x) for x in items]
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# symmetry report


def symmetry_report(ckpt_path, duplicate_map: dict) -> list[dict]:
    """Minimum pairwise fan-out distance for every replicated-unit group.

    A replica's fan-out is its block of columns of the output projection
    (stored (out, in)): ``head_dim`` columns of ``attn.wo`` for a head,
    one column of ``mlp.w2`` for a hidden unit.  Groups expanded with
    equal splits report exactly 0; symmetry-broken groups report a
    positive distance.  A malformed map
    (a block without a valid index, or a group that is not at least two
    in-range replicas) raises :class:`PlanError`.  Of the checkpoint's
    payload, only those two projections of the blocks the map names are
    read.
    """
    with CheckpointReader(ckpt_path) as reader:
        spec = reader.spec
        if duplicate_map.get("version") != 1:
            raise PlanError("unsupported duplicate map version")
        entries: list[dict] = []
        blocks = duplicate_map.get("blocks", [])
        if not isinstance(blocks, list):
            raise PlanError("duplicate map blocks must be a list")
        for blk_entry in blocks:
            bi = blk_entry.get("index") if isinstance(blk_entry, dict) else None
            if not _is_index(bi, spec.depth):
                raise PlanError(f"duplicate map references missing block {bi!r}")
            for kind, units, size, tensor in (
                    ("attn_head", spec.n_heads, spec.head_dim, "attn.wo"),
                    ("mlp_hidden", spec.hidden_dim, 1, "mlp.w2")):
                groups = _checked_groups(blk_entry.get(f"{kind}_groups", {}), units,
                                         f"block {bi} {kind}_groups")
                if not groups:
                    continue
                w = reader.tensor(f"blocks.{bi}.{tensor}")
                for src, members in groups.items():
                    vecs = [w[:, m * size:(m + 1) * size] for m in members]
                    dist = min(float(np.abs(a - b).max())
                               for i, a in enumerate(vecs) for b in vecs[i + 1:])
                    entries.append({"block": bi, "kind": kind, "source": int(src),
                                    "replicas": list(members), "min_distance": dist})
    return entries


def _is_index(value, n: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < n


def _checked_groups(groups, units: int, where: str) -> dict:
    """One block's replica groups, or PlanError if any group is malformed."""
    if not isinstance(groups, dict):
        raise PlanError(f"duplicate map {where} must be an object")
    for src, members in groups.items():
        if not (str(src).isdigit() and isinstance(members, list) and len(members) >= 2
                and all(_is_index(m, units) for m in members)):
            raise PlanError(f"duplicate map {where}[{src!r}] must list at least "
                            f"2 replicas in [0, {units})")
    return groups


def load_duplicate_map(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise PlanError(f"{path}: duplicate map must be a JSON object")
    return data


def duplicate_map_path(ckpt_path) -> str:
    """Sidecar path the expand command writes next to a checkpoint."""
    return f"{ckpt_path}.duplicates.json"


# ---------------------------------------------------------------------------
# fixtures


def init_random_model(spec: ModelSpec, seed: int, out_path, dtype=np.float64) -> None:
    """Write a deterministic random checkpoint for a spec."""
    spec.validate()
    weights = random_weights(spec, substream(check_seed(seed), "init"), dtype=dtype)
    write_checkpoint(weights, spec, out_path)


# ---------------------------------------------------------------------------
# toy-network gradient step (symmetry-breaking demonstration)


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(z.dtype)
    # d/dz [z * Phi(z)] = Phi(z) + z * phi(z)
    return (0.5 * (1.0 + erf(z / math.sqrt(2.0)))
            + z * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))


def toy_mlp_gradient_step(w1: np.ndarray, v: np.ndarray, x: np.ndarray,
                          target: float, lr: float,
                          kind: str = "gelu") -> tuple[np.ndarray, np.ndarray]:
    """One gradient-descent step on ``(v . act(w1 @ x) - target)^2``.

    Hand-written gradients (no autodiff anywhere in this package):
    with ``h = w1 @ x`` and residual ``g = 2 (v . act(h) - target)``,
    ``dL/dv = g * act(h)`` and ``dL/dw1[j] = g * v[j] * act'(h[j]) * x``.
    Replicated hidden units with equal fan-in receive gradients scaled
    by their fan-out weights, so equal fan-out keeps them identical and
    unequal fan-out drives them apart.
    """
    h = w1 @ x
    a = activation(h, kind)
    g = 2.0 * (float(v @ a) - target)
    grad_v = g * a
    grad_w1 = (g * v * _act_grad(h, kind))[:, None] * x[None, :]
    return w1 - lr * grad_w1, v - lr * grad_v
