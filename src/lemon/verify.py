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
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .container import CheckpointReader, write_checkpoint
# not called here: kept for perfbench/tests, which look the binding up in this module
from .container import read_checkpoint  # noqa: F401
from .errors import NumericsError, PlanError, ShapeError
from .expand_ops import expand_vector
from .expander import _as64, _stream_mode
from .kernels import activation, erf, matmul_inner, split_on
from .model import (EmbeddingWeights, ModelSpec, ModelWeights,
                    attention_schema, attention_sublayer, bias_only, decode,
                    embed, flat_arrays, mlp_schema, mlp_sublayer,
                    nonfinite_tensor, random_weights)
from .rng import check_seed, substream

#: environment variable setting verification parallelism
THREADS_ENV = "LEMON_THREADS"

#: multiply-adds one sample sends through the big model's MLP (tokens x
#: width x hidden_dim) below which a default verify runs its samples on
#: one thread: there two threads' hand-offs cost more than a second core
#: saves.  Measured on a 2-core VM with both cores free, 2 samples, as
#: the median speed of 2 threads over 1 across 10 alternating pairs
#: (2 -> 4 blocks, 2 -> 5 for 32->48, seq-len 16 unless given):
#: 32->48 (147K) 0.63x, 64->96 (590K) 0.68x, 64->96 at seq-len 64
#: (2.4M) 0.89x, 128->192 (2.4M) 0.97x, 160->240 (3.7M) 1.04x,
#: 128->192 at seq-len 32 (4.7M) 1.13x, 192->288 (5.3M) 1.09x,
#: 256->384 (9.4M) 1.25x.
_PARALLEL_WORK = 1 << 22

#: default tolerance per stored weight dtype; a float32 model on either
#: side gives the pair the float32 value
DEFAULT_TOL = {np.dtype(np.float64): 1e-10, np.dtype(np.float32): 1e-5}


def _thread_count(work: int) -> int:
    """Workers for a verify whose samples are ``work`` multiply-adds each
    (see :data:`_PARALLEL_WORK`): ``LEMON_THREADS`` when it is set, else
    the cores this process may run on, or one below ``_PARALLEL_WORK``.
    A ``LEMON_THREADS`` that is not a positive integer raises
    :class:`PlanError`."""
    value = os.environ.get(THREADS_ENV) or None  # set but empty reads as unset
    if value is None:
        if work < _PARALLEL_WORK:
            return 1
        return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    try:
        count = int(value) if value.isdigit() else 0
    except ValueError:  # more digits than int() converts
        count = 0
    if count < 1:
        raise PlanError(f"{THREADS_ENV} must be a positive integer, got {value!r}")
    return count


def _sample_work(spec: ModelSpec, seq_len: int) -> int:
    """The multiply-adds one sample sends through one MLP of ``spec``'s
    model: its tokens (a vision model's patches and class token) times
    width times hidden_dim."""
    rows = seq_len if spec.input_kind == "token" else spec.num_patches + 1
    return rows * spec.width * spec.hidden_dim


@dataclass(frozen=True)
class SampleDiff:
    index: int
    worst_position: tuple[int, ...]
    abs_diff: float


@dataclass(frozen=True)
class VerifyReport:
    """The worst logit difference over the samples and, for token
    models, the worst difference between the big token table and the
    expanded small one (None for vision models).  ``skipped`` counts the
    big model's attention and MLP modules that were evaluated as their
    output bias alone (``model.bias_only``), out of ``modules``."""

    max_abs_diff: float
    tol: float
    samples: list[SampleDiff]
    embedding_diff: float | None = None
    skipped: int = 0
    modules: int = 0

    @property
    def passed(self) -> bool:
        return (self.max_abs_diff <= self.tol
                and (self.embedding_diff is None or self.embedding_diff <= self.tol))

    def to_dict(self) -> dict:
        return {"max_abs_diff": self.max_abs_diff, "tol": self.tol,
                "embedding_diff": self.embedding_diff, "passed": self.passed,
                "skipped_modules": self.skipped, "modules": self.modules,
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
    function of (checkpoints, samples, seed), with the same bits however
    the work is spread over threads.  The workers are the cores this
    process may run on, or one for a model too small to gain from
    threads (:data:`_PARALLEL_WORK`); ``LEMON_THREADS=N`` sets them to
    N.  With at least as many samples as workers, the samples own the
    cores, a sample per task.  With fewer, the samples run in turn on
    the calling thread and the kernels own the cores: each module's
    heads run in contiguous groups and each large matmul in column
    slabs.  That changes no bit, because a head's output depends on its
    own weights alone and a slab computes every output element from the
    same row and column, in the same order, as the whole product does
    (``kernels`` probes it).  Zero samples or a zero sequence
    length would pass on no evidence, so both are rejected, and so is a
    NaN, infinite or negative ``tol``, which would fail or pass every
    pair.

    The samples read only the token rows they draw, so the big token
    table is also compared, whole, with the small one expanded to the
    big width in the stream's vector mode, within ``tol``.  A big width
    that is no expansion of the small one raises :class:`ShapeError`.

    Both models are read a part at a time, after their headers and
    tensor tables have been checked.  The two token tables come first,
    for that comparison and the samples' embeddings, and are dropped.
    Then every sample passes through each attention or MLP module before
    the next is read, and last through the final norm and decoder.  So
    no more than one module of either model is held at once, and each
    tensor is read once (a tied decoder rereads its token table).  A
    module that is only its bias (:func:`model.bias_only`) is not
    evaluated; a NaN or Inf among its tensors raises
    :class:`NumericsError`, as one in an evaluated module does.
    """
    if samples < 1:
        raise PlanError(f"--samples must be at least 1, got {samples}")
    if seq_len < 1:
        raise PlanError(f"--seq-len must be at least 1, got {seq_len}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise PlanError(f"--tol must be finite and non-negative, got {tol}")
    check_seed(seed)
    with CheckpointReader(small_path) as small, CheckpointReader(big_path) as big, \
            _sample_map(samples, _sample_work(big.spec, seq_len)) as each:
        small_spec, big_spec = small.spec, big.spec
        _compatible(small_spec, big_spec)
        if tol is None:
            tol = max(DEFAULT_TOL[small.dtype], DEFAULT_TOL[big.dtype])
        small_emb, big_emb = _in64(small, small.embedding()), _in64(big, big.embedding())
        embedding_diff = _embedding_diff(small_emb, small_spec, big_emb, big_spec)
        inputs = [_draw_input(small_spec, substream(seed, "verify", i), seq_len)
                  for i in range(samples)]
        want = each(lambda x: embed(x, small_emb, small_spec), inputs)
        got = each(lambda x: embed(x, big_emb, big_spec), inputs)
        del small_emb, big_emb  # a tied decoder rereads its table
        scratch = _module_scratch(small, big)
        want, _ = _through_blocks(small, want, each, scratch)
        got, skipped = _through_blocks(big, got, each, scratch)
        del scratch  # before either decoder is read
        want, got = _decoded(small, want, each), _decoded(big, got, each)
        modules = 2 * big_spec.depth

    results = []
    for i, (a, b) in enumerate(zip(got, want)):
        diff = np.abs(a - b)
        pos = np.unravel_index(int(np.argmax(diff)), diff.shape)
        results.append(SampleDiff(i, tuple(int(p) for p in pos), float(diff[pos])))
    worst = max((s.abs_diff for s in results), default=0.0)
    return VerifyReport(worst, tol, results, embedding_diff, skipped, modules)


def _in64(reader: CheckpointReader, w):
    """``w``, read from ``reader``, in float64: converted only when the
    checkpoint holds another dtype, and otherwise ``w`` itself."""
    return w if reader.dtype == np.float64 else _as64(w)


def _embedding_diff(small: EmbeddingWeights, small_spec: ModelSpec,
                    big: EmbeddingWeights, big_spec: ModelSpec) -> float | None:
    """The largest difference between the big token table and the small
    one expanded to the big width, or None for vision models, whose
    embedding every sample reads whole."""
    if small_spec.input_kind != "token":
        return None
    try:
        want = expand_vector(small.token_table, big_spec.width,
                             _stream_mode(small_spec.norm_style))
    except ShapeError as exc:
        raise ShapeError(f"big width {big_spec.width} is no expansion of small width "
                         f"{small_spec.width}") from exc
    return float(np.abs(big.token_table - want).max())


#: each block's two sub-layers: the reader method that reads one, its
#: tensors' names, and the function that runs it
_SUBLAYERS = {"attention": (attention_schema, attention_sublayer),
              "mlp": (mlp_schema, mlp_sublayer)}


def _module_scratch(*readers: CheckpointReader) -> tuple[np.ndarray, np.ndarray]:
    """Byte buffers that hold the largest attention or MLP module of
    ``readers``' models.  Each module is read into them over the one
    before, so that no module leaves its memory behind as a hole in the
    heap that the next, of another size, cannot reuse."""
    sizes = [r.module_bytes() for r in readers]
    return tuple(np.empty(max(s[b] for s in sizes), np.uint8) for b in (0, 1))


def _through_blocks(reader: CheckpointReader, xs: list, each,
                    scratch: tuple[np.ndarray, np.ndarray]) -> tuple[list, int]:
    """``xs``, the streams ``reader``'s embedding gave, through each
    attention or MLP module of its model in turn, as ``model_forward``
    runs them.  Every stream passes through a module before the next is
    read into ``scratch`` over it, so one module is held at a time.

    Whether a module is only its bias is decided once, as it is read, for
    every stream; such a module is not evaluated, so its incoming weights
    and biases, which nothing else reads, are checked for NaN and Inf
    instead (:class:`NumericsError`, as an evaluated one would raise).
    The count of such modules comes back with the streams."""
    spec = reader.spec
    skipped = 0
    for i in range(spec.depth):
        for part, (schema, sublayer) in _SUBLAYERS.items():
            norm, module = (_in64(reader, w) for w in getattr(reader, part)(i, scratch))
            skip = bias_only(module)
            if skip:
                # the bias alone reads all but the incoming weights and biases:
                # bias_only found every output-projection entry zero or a
                # finite ± pair, and a kernel checks what the norm and the
                # output bias give
                incoming = flat_arrays(module)[:-2]
                names = list(schema(spec, i, reader.dtype))[-2 - len(incoming):-2]
                bad = nonfinite_tensor(incoming, names)
                if bad is not None:
                    raise NumericsError(f"{reader.path}: tensor {bad} holds NaN or Inf")
                skipped += 1
            xs = each(lambda x: sublayer(x, norm, module, spec, skip), xs)
    return xs, skipped


def _decoded(reader: CheckpointReader, xs: list, each) -> list:
    """The logits of ``xs``, the streams leaving ``reader``'s last block:
    its final norm and decoder, read here (a tied decoder rereads the
    token table)."""
    spec = reader.spec
    emb = reader.embedding() if spec.tied_decoder else EmbeddingWeights()
    shell = _in64(reader, ModelWeights(emb, [], *reader.decoder()))
    return each(lambda x: decode(x, shell, spec), xs)


@contextlib.contextmanager
def _sample_map(samples: int, work: int):
    """``map`` over ``samples`` samples of ``work`` multiply-adds each, as
    a list, with :func:`_thread_count` workers.  With one, in a plain
    loop.  With no more workers than samples, on a pool, a sample per
    task.  With fewer samples than workers, in a plain loop, while the
    kernels split each large call on the pool (``kernels.split_on``),
    which starts a thread only for a part no idle one can take.  A pool
    is shut down, its threads joined, when the block exits, also on an
    error.  Each sample's result has the same bits either way."""
    workers = _thread_count(work)
    serial = lambda fn, items: [fn(x) for x in items]  # noqa: E731
    if workers == 1:
        yield serial
        return
    matmul_inner()  # the probe runs here, once, not on two threads at a time
    if samples >= workers:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield lambda fn, items: list(pool.map(fn, items))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool, split_on(pool, workers):
        yield serial


# ---------------------------------------------------------------------------
# symmetry report


def symmetry_report(ckpt_path, duplicate_map: dict) -> list[dict]:
    """Minimum pairwise fan-out distance for every replicated-unit group.

    A replica's fan-out is its block of columns of the output projection
    (stored (out, in)): ``head_dim`` columns of ``attn.wo`` for a head,
    one column of ``mlp.w2`` for a hidden unit.  Groups expanded with
    equal splits report exactly 0; symmetry-broken groups report a
    positive distance.  A malformed map (a block without a valid index,
    a group that is not at least two in-range replicas, or a unit named
    twice in one block's groups of one kind) raises :class:`PlanError`.
    Of the checkpoint's payload, only those two projections of the
    blocks the map names are read.
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
                dists = _min_distances(reader.tensor(f"blocks.{bi}.{tensor}"),
                                       list(groups.values()), size)
                entries += [{"block": bi, "kind": kind, "source": int(src),
                             "replicas": list(members), "min_distance": dist}
                            for (src, members), dist in zip(groups.items(), dists)]
    return entries


#: values one gather of ``_min_distances`` takes at most: 2 MB of float64
#: columns, small enough that the allocator reuses its blocks from chunk
#: to chunk instead of faulting in a fresh mapping for each.  The 1,536
#: pairs of a 768 x 3,072 ``mlp.w2`` took 9.1 ms in one gather and 4.7 ms
#: in chunks (2-core x86-64 VM, numpy 2.4)
_GATHER = 1 << 18


def _min_distances(w: np.ndarray, groups: list[list[int]], size: int) -> list[float]:
    """Each group's smallest ``max |a - b|`` over every pair of its
    members' fan-outs, ``a`` and ``b`` being ``size`` columns of ``w``.

    Groups of one size are measured together, a chunk of them at a time:
    the fan-outs of their first members are gathered at once, then those
    of their second, and so on, and each pair of positions is compared
    across the chunk.  Pairs are taken in order, and a later one replaces
    the smallest so far only when it is smaller, so the result is that of
    Python's ``min`` over the pairs, NaN included."""
    units = w.reshape(w.shape[0], -1, size)
    step = max(1, _GATHER // (w.shape[0] * size))
    by_size: dict[int, list[int]] = {}
    for k, members in enumerate(groups):
        by_size.setdefault(len(members), []).append(k)
    dists = [0.0] * len(groups)
    for n, ks in by_size.items():
        for c in range(0, len(ks), step):
            chunk = ks[c:c + step]
            members = np.array([groups[k] for k in chunk])
            # the fan-outs of every group's i-th member: (out, groups, size)
            cols = [np.take(units, members[:, i], axis=1) for i in range(n)]
            best = None
            for i, j in itertools.combinations(range(n), 2):
                gap = np.subtract(cols[i], cols[j])
                gap = np.abs(gap, out=gap).max(axis=(0, 2))
                best = gap if best is None else np.where(gap < best, gap, best)
            for k, dist in zip(chunk, best.tolist()):
                dists[k] = dist
    return dists


def _is_index(value, n: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < n


def _checked_groups(groups, units: int, where: str) -> dict:
    """One block's groups of one kind, or PlanError if one is malformed or names a unit twice."""
    if not isinstance(groups, dict):
        raise PlanError(f"duplicate map {where} must be an object")
    seen: set[int] = set()
    for src, members in groups.items():
        if not (str(src).isdecimal() and isinstance(members, list) and len(members) >= 2
                and all(_is_index(m, units) for m in members)):
            raise PlanError(f"duplicate map {where}[{src!r}] must list at least "
                            f"2 replicas in [0, {units})")
        if len(set(members)) < len(members) or not seen.isdisjoint(members):
            raise PlanError(f"duplicate map {where}[{src!r}] names a unit twice")
        seen.update(members)
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
