"""Bit-exact single-file checkpoint container, plus model-config JSON parsing.

File layout (all integers little-endian)::

    bytes 0..3    magic "LEMN"
    bytes 4..7    format version, uint32 (2; no other version is read)
    bytes 8..15   header_len, uint64
    16..          header_len bytes of UTF-8 JSON
    ...           tensor payload, raw row-major little-endian values

The header JSON holds the model spec and a tensor table of
``{name, dtype, shape, byte_offset, byte_length}`` records.  Offsets are
absolute, 64-byte aligned, non-overlapping, and in-bounds; scalar eps
values travel as zero-dimensional float64 tensors.  Every weight matrix
is stored (out, in).  Version 1 stored the attention matrices (q/k/v and
``attn.wo``) as (in, out) under the same names; a square one has the
same shape in both layouts, so the version, not the tensor table, tells
them apart, and any version but 2 is refused.  Readers reject any file
the validator rejects; nothing is partially loaded.

Which tensors a model has, and their names, shapes and dtypes, follow
from its spec and its one weight dtype alone:
:func:`lemon.model.tensor_schema` is the only definition.  The writer lays out the header from the schema
before it has a single tensor, then takes the tensors one at a time as
``(name, tensor)`` pairs in any order, checks each against its schema
entry and writes it from its own buffer at its offset, so a caller can
build a model a tensor at a time, in the order that suits it, and never
hold it whole (``expand --out`` does).  The file is written under
a temporary name in the destination's directory and moved into place
only once complete, so a failed write leaves an existing file as it was
and a concurrent reader sees either the old file or the new one.

Readers take the prefix and header first, checking ``header_len``
against the file size before reading it, then check the tensor table
against the schema of the stored spec, and only then read tensors, each
straight into its own array.  :class:`CheckpointReader` reads them on
demand, a part at a time: ``expand`` reads its source a block at a
time, ``verify`` both of its models an attention or MLP module at a
time, and ``symmetry`` only the projections its map names;
:func:`read_checkpoint` (whole model) serves library callers.
The file is never held whole in memory and never mapped, because a
mapped reader of a file truncated under it dies of SIGBUS instead of
raising :class:`TruncatedPayloadError`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagicError, ContainerError, MalformedHeaderError,
                     PlanError, ShapeError, TruncatedPayloadError,
                     UnsupportedVersionError)
from .model import (EPS_DTYPE, AttentionWeights, BlockWeights,
                    EmbeddingWeights, MlpWeights, ModelSpec, ModelWeights,
                    NormParams, TensorEntry, attention_from, attention_schema,
                    decoder_schema, embedding_schema, flat_arrays, mlp_from,
                    mlp_schema, norm_from, tensor_schema)

MAGIC = b"LEMN"
VERSION = 2
ALIGNMENT = 64
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header_len

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_ITEMSIZES = {name: dtype.itemsize for name, dtype in _DTYPES.items()}


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _nbytes(entry: TensorEntry) -> int:
    return math.prod(entry.shape) * entry.dtype.itemsize


# ---------------------------------------------------------------------------
# tensor naming


def named_tensors(w: ModelWeights, spec: ModelSpec) -> list[tuple[str, np.ndarray]]:
    """Flatten model weights into the container's (name, tensor) schema;
    ShapeError if ``w`` has more tensors than the schema."""
    arrays = flat_arrays(w)
    named = [(entry.name, arr) for arr, entry in
             zip(arrays, tensor_schema(spec, w.dec_bias.dtype))]
    if len(named) < len(arrays):
        raise ShapeError(f"more tensors than the {len(named)} the spec has")
    return named


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


def _header(spec: ModelSpec, schema: list[TensorEntry]) -> tuple[bytes, list[int]]:
    """The JSON header and the absolute offset of every tensor."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lengths = [_nbytes(e) for e in schema]
    # the records differ from layout to layout only in their offsets:
    # encode the rest once (the same text json.dumps gives the records)
    heads = [f'{{"name":{encode(e.name)},"dtype":"{_DTYPE_NAMES[e.dtype]}",'
             f'"shape":[{",".join(map(str, e.shape))}],"byte_offset":' for e in schema]
    tails = [f',"byte_length":{n}}}' for n in lengths]
    opening = f'{{"model_spec":{encode(_spec_to_dict(spec))},"tensors":['
    # the header length depends on the offsets it contains; iterate to a
    # fixed point (offset digit counts grow monotonically, so this settles)
    header_len = 0
    for _ in range(8):
        offsets = []
        offset = _align(_PREFIX.size + header_len)
        for length in lengths:
            offsets.append(offset)
            offset = _align(offset + length)
        records = ",".join([f"{h}{o}{t}" for h, o, t in zip(heads, offsets, tails)])
        header = f"{opening}{records}]}}".encode("utf-8")
        if len(header) == header_len:
            return header, offsets
        header_len = len(header)
    raise PlanError("header layout did not converge")


def require_replaceable(path) -> str:
    """The real path of ``path``, or ContainerError if it exists and is
    not a regular file (a device, a pipe, a directory)."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        return target
    if not stat.S_ISREG(mode):
        raise ContainerError(f"{path}: not a regular file")
    return target


@contextlib.contextmanager
def replacing(path):
    """A new binary file that replaces ``path`` when the block completes;
    on any error it is removed and ``path`` is left as it was.

    A symlinked ``path`` is replaced at its target.  An existing ``path``
    that is not a regular file (a device, a pipe, a directory) is never
    replaced.  The new file is written under a temporary name in the
    target's directory, so the final move is one rename, and is created
    with the permissions the umask gives a new file.
    """
    target = require_replaceable(path)
    folder, base = os.path.split(target)
    tmp = os.path.join(folder, f".{base}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_tensors(path, spec: ModelSpec, dtype, named) -> None:
    """Write a ``spec`` model whose weights are ``dtype`` from ``named``,
    an iterable of its ``(name, tensor)`` pairs in any order.

    Each tensor is checked against its schema entry and written at its
    offset as it is taken, so ``named`` may produce the model part by
    part, in whatever order it builds the parts.  The alignment gaps are
    never written: the file system reads them back as zeros.
    Every name of the schema must come exactly once: a missing, repeated
    or unknown name is a :class:`ShapeError`.  ``path`` is replaced only
    when every tensor has been written; on any error it is left as it was.
    """
    spec.validate()
    dtype = np.dtype(dtype)
    if dtype not in _DTYPE_NAMES:
        raise PlanError(f"unsupported weight dtype {dtype}")
    named = iter(named)
    # taken before the schema is listed: a target too large to hold fails at
    # its first allocation, not after listing a schema that may not fit either
    pair = next(named, None)
    schema = list(tensor_schema(spec, dtype))
    header, offsets = _header(spec, schema)
    index = {entry.name: k for k, entry in enumerate(schema)}
    written = bytearray(len(schema))  # 1 where the tensor is written
    with replacing(path) as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(header)))
        fh.write(header)
        del header  # dropped before the tensors are produced, so it cannot pin their heap
        while pair is not None:
            name, arr = pair
            del pair
            k = index.get(name)
            if k is None:
                raise ShapeError(f"tensor {name!r} is not in the spec's schema")
            if written[k]:
                raise ShapeError(f"tensor {name} given twice")
            entry, offset = schema[k], offsets[k]
            arr = np.asarray(arr)
            if arr.shape != entry.shape or arr.dtype != entry.dtype:
                raise ShapeError(f"tensor {name} is {arr.dtype}{list(arr.shape)}, "
                                 f"the spec needs {entry.dtype}{list(entry.shape)}")
            fh.seek(offset)
            fh.write(np.ascontiguousarray(arr) if arr.ndim else arr)
            written[k] = 1
            del arr  # before the next tensor is produced
            pair = next(named, None)
        if not all(written):
            raise ShapeError(f"tensor {schema[written.index(0)].name} missing")


def write_checkpoint(w: ModelWeights, spec: ModelSpec, path) -> None:
    """Serialize weights + spec; writing then reading is bitwise exact."""
    spec.validate()
    write_tensors(path, spec, w.dec_bias.dtype, named_tensors(w, spec))


# ---------------------------------------------------------------------------
# validation and reading


_REQUIRED_ENTRY_KEYS = {"name", "dtype", "shape", "byte_offset", "byte_length"}


def _is_shape(value) -> bool:
    """A list of positive ints (empty for a scalar)."""
    if not isinstance(value, list):
        return False
    for s in value:
        if not isinstance(s, int) or s <= 0:
            return False
    return True


def validate_header(blob: bytes, file_size: int | None = None) -> list[Diagnostic]:
    """Check every container invariant that is visible without the payload.

    ``blob`` must contain at least the fixed prefix and the JSON header;
    ``file_size`` (defaulting to ``len(blob)``) bounds the payload checks.
    An empty list means the header is valid.
    """
    return _parse_header(blob, file_size)[0]


def _parse_header(blob: bytes, file_size: int | None) -> tuple[list[Diagnostic], dict | None]:
    """:func:`validate_header`'s diagnostics and the decoded header (None
    when the checks stop early), so a reader parses the JSON only once."""
    size = len(blob) if file_size is None else file_size
    diags: list[Diagnostic] = []
    if len(blob) < _PREFIX.size:
        return [Diagnostic("truncated_payload", "file shorter than the fixed prefix")], None
    magic, version, header_len = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        return [Diagnostic("bad_magic", f"magic {magic!r} != {MAGIC!r}")], None
    if version != VERSION:
        return [Diagnostic("unsupported_version",
                           f"version {version} is not {VERSION}, the only one read")], None
    payload_start = _PREFIX.size + header_len
    if payload_start > size:
        return [Diagnostic("truncated_payload", "declared header extends past the file")], None
    if len(blob) < payload_start:
        return [Diagnostic("truncated_payload", "header bytes missing from the blob")], None
    try:
        header = json.loads(blob[_PREFIX.size:payload_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [Diagnostic("malformed_header", f"header is not valid JSON: {exc}")], None
    if not isinstance(header, dict) or "model_spec" not in header or "tensors" not in header:
        return [Diagnostic("malformed_header", "header must hold model_spec and tensors")], None
    table = header["tensors"]
    if not isinstance(table, list):
        return [Diagnostic("malformed_header", "tensor table must be a list")], None

    seen: set[str] = set()
    spans: list[tuple[int, int, str]] = []
    for i, entry in enumerate(table):
        if not isinstance(entry, dict) or entry.keys() != _REQUIRED_ENTRY_KEYS:
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
        if not _is_shape(shape):
            diags.append(Diagnostic("malformed_header", f"{name}: bad shape {shape!r}"))
            continue
        offset, length = entry["byte_offset"], entry["byte_length"]
        if not isinstance(offset, int) or not isinstance(length, int):
            diags.append(Diagnostic("malformed_header", f"{name}: non-integer span"))
            continue
        expect = math.prod(shape) * _ITEMSIZES[entry["dtype"]]
        if length != expect:
            diags.append(Diagnostic("malformed_header",
                                    f"{name}: byte_length {length} != shape/dtype size {expect}"))
        if offset % ALIGNMENT != 0:
            diags.append(Diagnostic("malformed_header",
                                    f"{name}: offset {offset} not {ALIGNMENT}-byte aligned"))
        if offset < payload_start or offset + length > size:
            diags.append(Diagnostic("truncated_payload",
                                    f"{name}: span [{offset}, {offset + length}) outside file of {size} bytes"))
        seen.add(name)
        spans.append((offset, length, name))
    # in offset order, a span overlaps an earlier one iff it starts before
    # the furthest end so far
    end, owner = -math.inf, ""
    for offset, length, name in sorted(spans):
        if offset < end:
            diags.append(Diagnostic("malformed_header", f"tensors {owner!r} and {name!r} overlap"))
        if offset + length > end:
            end, owner = offset + length, name
    return diags, header


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
    diags, header = _parse_header(blob, file_size)
    _raise_diags(diags)
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


def _checked_table(table: list[dict], spec: ModelSpec) -> tuple[dict[str, dict], np.dtype]:
    """The table by tensor name and the weights' dtype, once every entry
    matches the schema of ``spec``: same names, shapes and dtypes.  The
    weights' dtype is the decoder bias's (every model has one)."""
    by_name = {entry["name"]: entry for entry in table}
    bias = by_name.get("decoder.bias")
    dtype = _DTYPES[bias["dtype"]] if bias is not None else EPS_DTYPE
    expected = set()
    for entry in tensor_schema(spec, dtype):  # lazy: stops at the first miss
        got = by_name.get(entry.name)
        if got is None:
            raise MalformedHeaderError(f"missing tensor {entry.name!r}")
        if tuple(got["shape"]) != entry.shape or _DTYPES[got["dtype"]] != entry.dtype:
            raise MalformedHeaderError(
                f"tensor table inconsistent with spec: {entry.name} is "
                f"{got['dtype']}{got['shape']}, the spec needs "
                f"{_DTYPE_NAMES[entry.dtype]}{list(entry.shape)}")
        expected.add(entry.name)
    if len(expected) != len(by_name):
        raise MalformedHeaderError(f"unexpected tensors: {sorted(set(by_name) - expected)}")
    return by_name, dtype


class CheckpointReader:
    """An open checkpoint whose header and tensor table have been checked
    against the schema of its spec; tensors are read only when asked for.

    Use as a context manager.  ``spec`` is the stored model spec,
    ``dtype`` the weights' dtype (eps is always float64) and ``path`` the
    file's path.  A model is read in parts: the embedding, each block's
    attention and MLP halves (or a whole block) and the decoder.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._layouts = {}
        self._fh = open(path, "rb")
        try:
            spec_dict, table = read_header(*_read_head(self._fh))
            self.spec = _spec_from_dict(spec_dict)
            self._table, self.dtype = _checked_table(table, self.spec)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def tensor(self, name: str, out: np.ndarray | None = None) -> np.ndarray:
        """One tensor, read into its own array, or into ``out``, an array of
        its shape and dtype."""
        entry = self._table[name]
        arr = np.empty(entry["shape"], dtype=_DTYPES[entry["dtype"]]) if out is None else out
        self._fh.seek(entry["byte_offset"])
        if self._fh.readinto(arr) != arr.nbytes:
            raise TruncatedPayloadError(f"{name}: payload ends before its span")
        return arr

    def _tensors(self, schema):
        return (self.tensor(entry.name) for entry in schema)

    def _module(self, module_schema, i: int, into):
        """The tensors of block ``i``'s module, each in its own array or,
        given ``into``, in views of those two buffers."""
        schema = module_schema(self.spec, i, self.dtype)
        if into is None:
            return self._tensors(schema)
        return (self.tensor(entry.name, np.ndarray(entry.shape, entry.dtype, into[b], offset))
                for entry, (b, offset) in zip(schema, self._layout(module_schema)[0]))

    def _layout(self, module_schema) -> tuple[list[tuple[int, int]], list[int]]:
        """Where each tensor of a module goes in two buffers (the buffer, 0
        or 1, and an aligned offset) and the two buffers' sizes; the same
        for every block, so worked out once.  The output projection and
        output bias, a module's last two tensors, go to buffer 1 and the
        rest to buffer 0: at 12×768 that keeps each buffer at 18.9 MB,
        under glibc's 32 MiB mmap ceiling, so a process that keeps its
        freed heap reuses the buffers instead of faulting in fresh pages
        on every call."""
        if module_schema not in self._layouts:
            entries = list(module_schema(self.spec, 0, self.dtype))
            places, ends = [], [0, 0]
            for k, entry in enumerate(entries):
                b = int(k >= len(entries) - 2)
                places.append((b, ends[b]))
                ends[b] = _align(ends[b] + _nbytes(entry))
            self._layouts[module_schema] = places, ends
        return self._layouts[module_schema]

    def module_bytes(self) -> tuple[int, int]:
        """The sizes of two byte buffers that hold any attention or MLP
        module of the model (see :meth:`attention`)."""
        sizes = [self._layout(m)[1] for m in (attention_schema, mlp_schema)]
        return max(s[0] for s in sizes), max(s[1] for s in sizes)

    def embedding(self) -> EmbeddingWeights:
        """The token table, or the vision model's patch embedding."""
        return EmbeddingWeights(**{entry.name.split(".", 1)[1]: self.tensor(entry.name)
                                   for entry in embedding_schema(self.spec, self.dtype)})

    def attention(self, i: int, into: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[NormParams, AttentionWeights]:
        """Block ``i``'s ``ln1`` and attention.  Given ``into``, two byte
        buffers at least as large as :meth:`module_bytes`, every tensor is
        a view of one of them, overwritten by the next read into them; a
        caller that holds one module at a time then reuses the same two
        allocations."""
        arrs = self._module(attention_schema, i, into)
        return norm_from(arrs, self.spec), attention_from(arrs, self.spec)

    def mlp(self, i: int, into: tuple[np.ndarray, np.ndarray] | None = None
            ) -> tuple[NormParams, MlpWeights]:
        """Block ``i``'s ``ln2`` and MLP; ``into`` as for :meth:`attention`."""
        arrs = self._module(mlp_schema, i, into)
        return norm_from(arrs, self.spec), mlp_from(arrs)

    def decoder(self) -> tuple[NormParams | None, np.ndarray | None, np.ndarray]:
        """The final norm (None without one), the decoder weight (None when
        tied to the token table) and the decoder bias."""
        arrs = self._tensors(decoder_schema(self.spec, self.dtype))
        final = norm_from(arrs, self.spec) if self.spec.has_final_norm else None
        dec_w = None if self.spec.tied_decoder else next(arrs)
        return final, dec_w, next(arrs)

    def block(self, i: int) -> BlockWeights:
        """Block ``i``, read tensor by tensor."""
        return BlockWeights(*self.attention(i), *self.mlp(i))

    def shell(self) -> ModelWeights:
        """Everything but the blocks: the embedding, the final norm and the
        decoder, in a :class:`ModelWeights` whose block list is empty."""
        return ModelWeights(self.embedding(), [], *self.decoder())


def read_checkpoint(path) -> tuple[ModelWeights, ModelSpec]:
    """Exact reconstruction of a written checkpoint."""
    with CheckpointReader(path) as reader:
        weights = reader.shell()
        weights.blocks = [reader.block(i) for i in range(reader.spec.depth)]
        return weights, reader.spec


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
