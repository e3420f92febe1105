"""Checkpoint-level verification: losslessness, symmetry, fixtures.

``verify_lossless`` evaluates two checkpoints on seeded random inputs
and reports the worst logit difference; ``symmetry_report`` measures how
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

from .container import CheckpointReader, read_checkpoint, write_checkpoint
from .errors import PlanError
from .model import (ModelSpec, block_forward, decode, embed, model_forward,
                    random_weights)
from .rng import substream

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
    max_abs_diff: float
    tol: float
    samples: list[SampleDiff]

    @property
    def passed(self) -> bool:
        return self.max_abs_diff <= self.tol

    def to_dict(self) -> dict:
        return {"max_abs_diff": self.max_abs_diff, "tol": self.tol,
                "passed": self.passed,
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
    """Compare two checkpoints on ``samples`` seeded random inputs.

    Evaluation runs in float64 regardless of the stored dtype.  A ``tol``
    of None takes :data:`DEFAULT_TOL` of the stored dtypes: 1e-10 when
    both checkpoints hold float64 weights, 1e-5 once either holds
    float32, whose expansions agree only to float32 resolution.  The
    report carries the per-sample worst logit positions; it is a pure
    function of (checkpoints, samples, seed), independent of the thread
    count set via ``LEMON_THREADS``.  Zero samples or a zero sequence
    length would pass on no evidence, so both are rejected.

    The small model is read whole.  The big one is read a block at a
    time, after its header and tensor table have been checked: every
    sample passes through block ``i`` before block ``i + 1`` is read, so
    no more than one of its blocks is held at once.
    """
    if samples < 1:
        raise PlanError(f"--samples must be at least 1, got {samples}")
    if seq_len < 1:
        raise PlanError(f"--seq-len must be at least 1, got {seq_len}")
    small_w, small_spec = read_checkpoint(small_path)
    with CheckpointReader(big_path) as big, _sample_map() as each:
        big_spec = big.spec
        _compatible(small_spec, big_spec)
        if tol is None:
            tol = max(DEFAULT_TOL[small_w.dec_bias.dtype], DEFAULT_TOL[big.dtype])
        small64 = _as64(small_w)
        inputs = [_draw_input(small_spec, substream(seed, "verify", i), seq_len)
                  for i in range(samples)]
        want = each(lambda x: model_forward(x, small64, small_spec), inputs)
        shell = _as64(big.shell())
        xs = each(lambda x: embed(x, shell, big_spec), inputs)
        for i in range(big_spec.depth):
            block = _as64(big.block(i))
            xs = each(lambda x: block_forward(x, block, big_spec), xs)
            del block  # before the next block is read
        got = each(lambda x: decode(x, shell, big_spec), xs)

    results = []
    for i, (a, b) in enumerate(zip(got, want)):
        diff = np.abs(a - b)
        pos = np.unravel_index(int(np.argmax(diff)), diff.shape)
        results.append(SampleDiff(i, tuple(int(p) for p in pos), float(diff[pos])))
    worst = max((s.abs_diff for s in results), default=0.0)
    return VerifyReport(worst, tol, results)


@contextlib.contextmanager
def _sample_map():
    """``map`` over samples as a list, on ``LEMON_THREADS`` threads."""
    workers = _thread_count()
    if workers == 1:
        yield lambda fn, items: [fn(x) for x in items]
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


def _as64(w):
    """The weights in float64; float64 arrays are passed through uncopied."""
    from .expander import map_arrays
    return map_arrays(w, lambda a: np.asarray(a, dtype=np.float64))


# ---------------------------------------------------------------------------
# symmetry report


def symmetry_report(ckpt_path, duplicate_map: dict) -> list[dict]:
    """Minimum pairwise fan-out distance for every replicated-unit group.

    For MLP hidden units the fan-out is the unit's column of the second
    layer; for attention heads it is the head's row block of the output
    projection.  Groups expanded with equal splits report exactly 0;
    symmetry-broken groups report a positive distance.  A malformed map
    (a block without a valid index, or a group that is not at least two
    in-range replicas) raises :class:`PlanError`.  Of the checkpoint's
    payload, only those two projections of the blocks the map names are
    read.
    """
    with CheckpointReader(ckpt_path) as reader:
        spec = reader.spec
        if duplicate_map.get("version") != 1:
            raise PlanError("unsupported duplicate map version")
        hd = spec.head_dim
        entries: list[dict] = []
        blocks = duplicate_map.get("blocks", [])
        if not isinstance(blocks, list):
            raise PlanError("duplicate map blocks must be a list")
        for blk_entry in blocks:
            bi = blk_entry.get("index") if isinstance(blk_entry, dict) else None
            if not _is_index(bi, spec.depth):
                raise PlanError(f"duplicate map references missing block {bi!r}")
            for kind, units, tensor in (("attn_head", spec.n_heads, "attn.wo"),
                                        ("mlp_hidden", spec.hidden_dim, "mlp.w2")):
                groups = _checked_groups(blk_entry.get(f"{kind}_groups", {}), units,
                                         f"block {bi} {kind}_groups")
                if not groups:
                    continue
                w = reader.tensor(f"blocks.{bi}.{tensor}")
                for src, members in groups.items():
                    if kind == "attn_head":
                        vecs = [w[m * hd:(m + 1) * hd, :].ravel() for m in members]
                    else:
                        vecs = [w[:, m] for m in members]
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
    weights = random_weights(spec, substream(seed, "init"), dtype=dtype)
    write_checkpoint(weights, spec, out_path)


# ---------------------------------------------------------------------------
# toy-network gradient step (symmetry-breaking demonstration)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return 0.5 * z * (1.0 + erf(z / math.sqrt(2.0)))


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
    a = _act(h, kind)
    g = 2.0 * (float(v @ a) - target)
    grad_v = g * a
    grad_w1 = (g * v * _act_grad(h, kind))[:, None] * x[None, :]
    return w1 - lr * grad_w1, v - lr * grad_v
