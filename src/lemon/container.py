"""Bit-exact single-file checkpoint container, plus model-config JSON parsing.

File layout (all integers little-endian)::

    bytes 0..3    magic "LEMN"
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..15   header_len, uint64
    16..          header_len bytes of UTF-8 JSON
    ...           tensor payload, raw row-major little-endian values

The header JSON holds the model spec and a tensor table of
``{name, dtype, shape, byte_offset, byte_length}`` records.  Offsets are
absolute, 64-byte aligned, non-overlapping, and in-bounds; scalar eps
values travel as zero-dimensional float64 tensors.  Readers reject any
file the validator rejects; nothing is partially loaded.

Readers take the prefix and header first, checking ``header_len``
against the file size before reading it, then read each tensor straight
into its own array.  The file is never held whole in memory and never
mapped: ``expand --out`` may truncate a file in place while another
process reads it, and a mapped reader would then die of SIGBUS instead
of raising :class:`TruncatedPayloadError`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagicError, ContainerError, MalformedHeaderError,
                     PlanError, TruncatedPayloadError, UnsupportedVersionError)
from .model import (AttentionWeights, BlockWeights, EmbeddingWeights,
                    HeadWeights, MlpWeights, ModelSpec, ModelWeights,
                    NormParams, validate_weights)

MAGIC = b"LEMN"
VERSION = 1
ALIGNMENT = 64
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header_len

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


# ---------------------------------------------------------------------------
# tensor naming schema


def _norm_items(prefix: str, norm: NormParams) -> list[tuple[str, np.ndarray]]:
    items = [(f"{prefix}.mu", norm.mu)]
    if norm.beta is not None:
        items.append((f"{prefix}.beta", norm.beta))
    items.append((f"{prefix}.eps", np.asarray(norm.eps, dtype=np.float64)))
    return items


def named_tensors(w: ModelWeights, spec: ModelSpec) -> list[tuple[str, np.ndarray]]:
    """Flatten model weights into the container's (name, tensor) schema."""
    items: list[tuple[str, np.ndarray]] = []
    emb = w.embedding
    if spec.input_kind == "token":
        items.append(("embedding.token_table", emb.token_table))
    else:
        items += [("embedding.patch_weight", emb.patch_weight),
                  ("embedding.patch_bias", emb.patch_bias),
                  ("embedding.cls_token", emb.cls_token),
                  ("embedding.positions", emb.positions)]
    for i, blk in enumerate(w.blocks):
        p = f"blocks.{i}"
        items += _norm_items(f"{p}.ln1", blk.ln1)
        for h, head in enumerate(blk.attn.heads):
            for f in ("wq", "wk", "wv", "bq", "bk", "bv"):
                items.append((f"{p}.attn.head{h}.{f}", getattr(head, f)))
        items += [(f"{p}.attn.wo", blk.attn.wo), (f"{p}.attn.bo", blk.attn.bo)]
        items += _norm_items(f"{p}.ln2", blk.ln2)
        for f in ("w1", "b1", "w2", "b2"):
            items.append((f"{p}.mlp.{f}", getattr(blk.mlp, f)))
    if w.final_norm is not None:
        items += _norm_items("final_norm", w.final_norm)
    if w.dec_weight is not None:
        items.append(("decoder.weight", w.dec_weight))
    items.append(("decoder.bias", w.dec_bias))
    return items


def _spec_to_dict(spec: ModelSpec) -> dict:
    return dataclasses.asdict(spec)


def _spec_from_dict(d: dict) -> ModelSpec:
    if not isinstance(d, dict):
        raise MalformedHeaderError("model spec must be a JSON object")
    fields = {f.name for f in dataclasses.fields(ModelSpec)}
    unknown = set(d) - fields
    if unknown:
        raise MalformedHeaderError(f"unknown model spec fields: {sorted(unknown)}")
    try:
        spec = ModelSpec(**d)
        spec.validate()
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedHeaderError(f"invalid model spec: {exc}") from exc
    return spec


# ---------------------------------------------------------------------------
# writing


def write_checkpoint(w: ModelWeights, spec: ModelSpec, path) -> None:
    """Serialize weights + spec; writing then reading is bitwise exact."""
    validate_weights(w, spec)
    tensors = []
    for name, arr in named_tensors(w, spec):
        arr = np.asarray(arr)
        if arr.ndim:
            arr = np.ascontiguousarray(arr)  # would promote 0-d eps to 1-d
        if arr.dtype not in _DTYPE_NAMES:
            raise PlanError(f"tensor {name} has unsupported dtype {arr.dtype}")
        tensors.append((name, arr.astype(arr.dtype.newbyteorder("<"), copy=False)))

    def layout(header_len: int) -> list[dict]:
        table = []
        offset = _align(_PREFIX.size + header_len)
        for name, arr in tensors:
            length = arr.nbytes
            table.append({"name": name, "dtype": _DTYPE_NAMES[arr.dtype],
                          "shape": list(arr.shape), "byte_offset": offset,
                          "byte_length": length})
            offset = _align(offset + length)
        return table

    # the header length depends on the offsets it contains; iterate to a
    # fixed point (offset digit counts grow monotonically, so this settles)
    header_len = 0
    for _ in range(8):
        header = json.dumps({"model_spec": _spec_to_dict(spec),
                             "tensors": layout(header_len)},
                            separators=(",", ":")).encode("utf-8")
        if len(header) == header_len:
            break
        header_len = len(header)
    else:
        raise PlanError("header layout did not converge")

    table = layout(header_len)
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, header_len))
        fh.write(header)
        pos = _PREFIX.size + header_len
        for (name, arr), entry in zip(tensors, table):
            fh.write(b"\0" * (entry["byte_offset"] - pos))
            fh.write(arr.tobytes())
            pos = entry["byte_offset"] + entry["byte_length"]


# ---------------------------------------------------------------------------
# validation and reading


_REQUIRED_ENTRY_KEYS = {"name", "dtype", "shape", "byte_offset", "byte_length"}


def validate_header(blob: bytes, file_size: int | None = None) -> list[Diagnostic]:
    """Check every container invariant that is visible without the payload.

    ``blob`` must contain at least the fixed prefix and the JSON header;
    ``file_size`` (defaulting to ``len(blob)``) bounds the payload checks.
    An empty list means the header is valid.
    """
    size = len(blob) if file_size is None else file_size
    diags: list[Diagnostic] = []
    if len(blob) < _PREFIX.size:
        return [Diagnostic("truncated_payload", "file shorter than the fixed prefix")]
    magic, version, header_len = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        return [Diagnostic("bad_magic", f"magic {magic!r} != {MAGIC!r}")]
    if version > VERSION:
        return [Diagnostic("unsupported_version", f"version {version} > {VERSION}")]
    if _PREFIX.size + header_len > size:
        return [Diagnostic("truncated_payload", "declared header extends past the file")]
    if len(blob) < _PREFIX.size + header_len:
        return [Diagnostic("truncated_payload", "header bytes missing from the blob")]
    try:
        header = json.loads(blob[_PREFIX.size:_PREFIX.size + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [Diagnostic("malformed_header", f"header is not valid JSON: {exc}")]
    if not isinstance(header, dict) or "model_spec" not in header or "tensors" not in header:
        return [Diagnostic("malformed_header", "header must hold model_spec and tensors")]
    table = header["tensors"]
    if not isinstance(table, list):
        return [Diagnostic("malformed_header", "tensor table must be a list")]

    seen: dict[str, tuple[int, int]] = {}
    spans: list[tuple[int, int, str]] = []
    for i, entry in enumerate(table):
        if not isinstance(entry, dict) or set(entry) != _REQUIRED_ENTRY_KEYS:
            diags.append(Diagnostic("malformed_header", f"table entry {i} has wrong keys"))
            continue
        name = entry["name"]
        if not isinstance(name, str) or not name:
            diags.append(Diagnostic("malformed_header", f"table entry {i} has a bad name"))
            continue
        if name in seen:
            diags.append(Diagnostic("malformed_header", f"duplicate tensor name {name!r}"))
            continue
        if not isinstance(entry["dtype"], str) or entry["dtype"] not in _DTYPES:
            diags.append(Diagnostic("malformed_header", f"{name}: unknown dtype {entry['dtype']!r}"))
            continue
        shape = entry["shape"]
        if (not isinstance(shape, list)
                or any(not isinstance(s, int) or s <= 0 for s in shape)):
            diags.append(Diagnostic("malformed_header", f"{name}: bad shape {shape!r}"))
            continue
        offset, length = entry["byte_offset"], entry["byte_length"]
        if not isinstance(offset, int) or not isinstance(length, int):
            diags.append(Diagnostic("malformed_header", f"{name}: non-integer span"))
            continue
        expect = math.prod(shape) * _DTYPES[entry["dtype"]].itemsize
        if length != expect:
            diags.append(Diagnostic("malformed_header",
                                    f"{name}: byte_length {length} != shape/dtype size {expect}"))
        if offset % ALIGNMENT != 0:
            diags.append(Diagnostic("malformed_header",
                                    f"{name}: offset {offset} not {ALIGNMENT}-byte aligned"))
        if offset < _PREFIX.size + header_len or offset + length > size:
            diags.append(Diagnostic("truncated_payload",
                                    f"{name}: span [{offset}, {offset + length}) outside file of {size} bytes"))
        for o, l, other in spans:
            if offset < o + l and o < offset + length:
                diags.append(Diagnostic("malformed_header",
                                        f"tensors {other!r} and {name!r} overlap"))
        seen[name] = (offset, length)
        spans.append((offset, length, name))
    return diags


_DIAG_ERRORS = {
    "bad_magic": BadMagicError,
    "unsupported_version": UnsupportedVersionError,
    "malformed_header": MalformedHeaderError,
    "truncated_payload": TruncatedPayloadError,
}


def _raise_diags(diags: list[Diagnostic]) -> None:
    if diags:
        raise _DIAG_ERRORS[diags[0].code]("; ".join(str(d) for d in diags))


def read_header(blob: bytes, file_size: int | None = None) -> tuple[dict, list[dict]]:
    """Validated (model-spec dict, tensor table) from the raw bytes."""
    _raise_diags(validate_header(blob, file_size))
    _, _, header_len = _PREFIX.unpack_from(blob)
    header = json.loads(blob[_PREFIX.size:_PREFIX.size + header_len].decode("utf-8"))
    return header["model_spec"], header["tensors"]


def _read_head(fh) -> tuple[bytes, int]:
    """The fixed prefix and JSON header of an open checkpoint, and the
    file's size.  A ``header_len`` that runs past the end of the file is
    not read; :func:`read_header` reports it.  Only regular files are
    accepted: their size bounds every span, and tensors are read by
    seeking."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        raise ContainerError(f"{fh.name}: not a regular file")
    size = st.st_size
    head = fh.read(_PREFIX.size)
    if len(head) == _PREFIX.size:
        header_len = _PREFIX.unpack(head)[2]
        if _PREFIX.size + header_len <= size:
            head += fh.read(header_len)
    return head, size


def _read_tensor(fh, entry: dict) -> np.ndarray:
    arr = np.empty(entry["shape"], dtype=_DTYPES[entry["dtype"]])
    fh.seek(entry["byte_offset"])
    if fh.readinto(arr) != arr.nbytes:
        raise TruncatedPayloadError(f"{entry['name']}: payload ends before its span")
    return arr


def read_checkpoint(path) -> tuple[ModelWeights, ModelSpec]:
    """Exact reconstruction of a written checkpoint."""
    with open(path, "rb") as fh:
        spec_dict, table = read_header(*_read_head(fh))
        spec = _spec_from_dict(spec_dict)
        tensors = {entry["name"]: _read_tensor(fh, entry) for entry in table}

    def take(name: str) -> np.ndarray:
        try:
            return tensors.pop(name)
        except KeyError:
            raise MalformedHeaderError(f"missing tensor {name!r}") from None

    def take_norm(prefix: str) -> NormParams:
        mu = take(f"{prefix}.mu")
        beta = None if spec.is_rms else take(f"{prefix}.beta")
        eps = take(f"{prefix}.eps")
        if eps.size != 1:
            raise MalformedHeaderError(f"{prefix}.eps must be a scalar")
        return NormParams(mu, beta, float(eps.item(0)))

    if spec.input_kind == "token":
        emb = EmbeddingWeights(token_table=take("embedding.token_table"))
    else:
        emb = EmbeddingWeights(patch_weight=take("embedding.patch_weight"),
                               patch_bias=take("embedding.patch_bias"),
                               cls_token=take("embedding.cls_token"),
                               positions=take("embedding.positions"))
    blocks = []
    for i in range(spec.depth):
        p = f"blocks.{i}"
        ln1 = take_norm(f"{p}.ln1")
        heads = [HeadWeights(*(take(f"{p}.attn.head{h}.{f}")
                               for f in ("wq", "wk", "wv", "bq", "bk", "bv")))
                 for h in range(spec.n_heads)]
        attn = AttentionWeights(heads, take(f"{p}.attn.wo"), take(f"{p}.attn.bo"))
        ln2 = take_norm(f"{p}.ln2")
        mlp = MlpWeights(*(take(f"{p}.mlp.{f}") for f in ("w1", "b1", "w2", "b2")))
        blocks.append(BlockWeights(ln1, attn, ln2, mlp))
    final = take_norm("final_norm") if spec.has_final_norm else None
    dec_w = None if spec.tied_decoder else take("decoder.weight")
    weights = ModelWeights(emb, blocks, final, dec_w, take("decoder.bias"))
    if tensors:
        raise MalformedHeaderError(f"unexpected tensors: {sorted(tensors)}")
    try:
        validate_weights(weights, spec)
    except Exception as exc:
        raise MalformedHeaderError(f"tensor table inconsistent with spec: {exc}") from exc
    return weights, spec


# ---------------------------------------------------------------------------
# model-config JSON


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise PlanError(f"{path}: expected a JSON object")
    return data


def _from_fields(cls, data: dict, path) -> object:
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - fields
    if unknown:
        raise PlanError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise PlanError(f"{path}: {exc}") from exc


def load_model_config(path) -> tuple[ModelSpec, np.dtype]:
    """Read a model spec (plus optional ``dtype``) from JSON."""
    data = _load_json(path)
    name = data.pop("dtype", "float64")
    if name not in ("float32", "float64"):
        raise PlanError(f"{path}: unsupported dtype {name!r}")
    spec = _from_fields(ModelSpec, data, path)
    try:
        spec.validate()
    except PlanError as exc:
        raise PlanError(f"{path}: {exc}") from exc
    return spec, np.dtype(name)
