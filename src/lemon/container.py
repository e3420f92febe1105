"""Bit-exact single-file checkpoint container, plus model-config JSON parsing.

File layout (all integers little-endian)::

    bytes 0..3    magic "LEMN"
    bytes 4..7    format version, uint32 (2; no other version is read)
    bytes 8..15   header_len, uint64
    16..          header_len bytes of UTF-8 JSON
    ...           tensor payload, raw row-major little-endian values

The header JSON holds the model spec and a tensor table of
``{name, dtype, shape, byte_offset, byte_length}`` records; scalar eps
values travel as zero-dimensional float64 tensors.  Every weight matrix
is stored (out, in).  Version 1 stored the attention matrices (q/k/v and
``attn.wo``) as (in, out) under the same names; a square one has the
same shape in both layouts, so the version, not the tensor table, tells
them apart, and any version but 2 is refused.

Which tensors a model has, and their names, shapes and dtypes, follow
from its spec and its one weight dtype alone:
:func:`lemon.model.tensor_schema` is the only definition.  The writer
lays out the header from the schema before it has a single tensor,
each tensor at the first 64-byte aligned offset past the one before,
then takes the tensors one at a time as
``(name, tensor)`` pairs in any order, checks each against its schema
entry and writes it from its own buffer at its offset, so a caller can
build a model a tensor at a time, in the order that suits it, and never
hold it whole (``expand --out`` does).  The file is written under
a temporary name in the destination's directory and moved into place
only once complete, so a failed write leaves an existing file as it was
and a concurrent reader sees either the old file or the new one.

One rule decides whether a file is a checkpoint: its header is, byte
for byte, the header :func:`write_tensors` writes, at that header's
length, for the stored spec and weight dtype (the dtype of the last
record, ``decoder.bias``), and the file reaches the end of the last
tensor.  Readers take the prefix and header first, checking
``header_len`` against the file size before reading it, check the rule
(:func:`read_header`, which ``lemon inspect`` runs too), and only then
read tensors, each straight into its own array; nothing is partially
loaded.  :class:`CheckpointReader` reads them on
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
import itertools
import json
import math
import os
import stat
import struct
from dataclasses import dataclass
from typing import NoReturn

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


# ---------------------------------------------------------------------------
# writing


_encode = json.JSONEncoder(separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii  # what _encode does with a str


def _record_parts(schema: list[TensorEntry]) -> tuple[list[str], list[str], list[int]]:
    """The JSON text of each tensor record before its offset and after
    it, and each tensor's byte length: the records differ from layout to
    layout only in their offsets, so the rest is formatted once."""
    forms, heads, tails, lengths = {}, [], [], []
    for e in schema:
        form = forms.get((e.shape, e.dtype))
        if form is None:  # formatted once per (shape, dtype)
            n = _nbytes(e)
            form = forms[e.shape, e.dtype] = (
                f'"dtype":"{_DTYPE_NAMES[e.dtype]}","shape":[{",".join(map(str, e.shape))}],'
                '"byte_offset":', f',"byte_length":{n}}}', n)
        heads.append(f'{{"name":{_encode_str(e.name)},{form[0]}')
        tails.append(form[1])
        lengths.append(form[2])
    return heads, tails, lengths


def _placed(parts, start: int) -> tuple[list[int], list[str]]:
    """Each tensor's offset in a payload from ``start`` (the first aligned
    offset past the tensor before) and each record's text, from its parts."""
    heads, tails, lengths = parts
    offsets = list(itertools.accumulate(lengths[:-1], lambda o, n: _align(o + n), initial=start))
    return offsets, [f"{h}{o}{t}" for h, o, t in zip(heads, offsets, tails)]


def _header_text(spec_json: str, records: list[str]) -> str:
    """The header whose model spec is ``spec_json`` and whose tensor records are ``records``."""
    return f'{{"model_spec":{spec_json},"tensors":[{",".join(records)}]}}'


def _header(spec: ModelSpec, schema: list[TensorEntry]) -> tuple[bytes, list[int]]:
    """The JSON header and the absolute offset of every tensor."""
    parts, spec_json = _record_parts(schema), _encode(dataclasses.asdict(spec))
    # the header length depends on the offsets it contains; iterate to a
    # fixed point (offset digit counts grow monotonically, so this settles)
    header_len = 0
    for _ in range(8):
        offsets, records = _placed(parts, _align(_PREFIX.size + header_len))
        header = _header_text(spec_json, records).encode("utf-8")
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


def _refused(error: type[ContainerError], message: str) -> ContainerError:
    """An ``error`` whose text is its diagnostic's, ``[code] message``."""
    return error(str(Diagnostic(error.code, message)))


def validate_header(blob: bytes, file_size: int | None = None) -> list[Diagnostic]:
    """The fault :func:`read_header` finds in ``blob`` as a one-item list, else []."""
    try:
        read_header(blob, file_size)
    except ContainerError as exc:
        return [Diagnostic(exc.code, str(exc).removeprefix(f"[{exc.code}] "))]
    return []


_OPENING = '{"model_spec":'
_DTYPE_KEY = '"dtype":"'
#: a header of n characters holds fewer than n // _MIN_RECORD + 1 tensor records
_MIN_RECORD = len('{"name":"","dtype":"f32","shape":[],"byte_offset":0,"byte_length":0}')


def _parsed(text: str) -> tuple[object, list]:
    """The model spec and the tensor records a JSON header holds."""
    try:
        header = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _refused(MalformedHeaderError, f"header is not valid JSON: {exc}") from exc
    if not (isinstance(header, dict) and "model_spec" in header
            and isinstance(header.get("tensors"), list)):
        raise _refused(MalformedHeaderError, "header must hold model_spec and tensors")
    return header["model_spec"], header["tensors"]


def read_header(blob: bytes, file_size: int | None = None) -> tuple[ModelSpec, list[dict]]:
    """The spec and tensor table (derived from the spec) of a checkpoint
    whose prefix and header ``blob`` holds and whose payload ends at
    ``file_size`` (by default ``len(blob)``), once it keeps the one rule
    (see the module docstring); else the :class:`ContainerError` of its
    first fault, whose text is ``[code] message``."""
    size = len(blob) if file_size is None else file_size
    if len(blob) < _PREFIX.size:
        raise _refused(TruncatedPayloadError, "file shorter than the fixed prefix")
    magic, version, header_len = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise _refused(BadMagicError, f"magic {magic!r} != {MAGIC!r}")
    if version != VERSION:
        raise _refused(UnsupportedVersionError,
                       f"version {version} is not {VERSION}, the only one read")
    payload_start = _PREFIX.size + header_len
    if payload_start > size:
        raise _refused(TruncatedPayloadError, "declared header extends past the file")
    if len(blob) < payload_start:
        raise _refused(TruncatedPayloadError, "header bytes missing from the blob")
    try:
        text = blob[_PREFIX.size:payload_start].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _refused(MalformedHeaderError, f"header is not valid JSON: {exc}") from exc
    # the spec is the object the header opens with, and the weights' dtype
    # the last record's: read them without decoding the tensor table
    spec = None
    if text.startswith(_OPENING):
        with contextlib.suppress(ValueError, RecursionError):
            spec = json.JSONDecoder().raw_decode(text, len(_OPENING))[0]
    spec = _parsed(text)[0] if spec is None else spec
    try:
        spec = ModelSpec(**spec).validate()
    except (TypeError, ValueError, OverflowError) as exc:
        raise _refused(MalformedHeaderError, f"invalid model spec: {exc}") from exc
    k = text.rfind(_DTYPE_KEY) + len(_DTYPE_KEY)
    # more records than the header has room for cannot match it: listing
    # only those keeps the work within the header's size, whatever the spec
    schema = list(itertools.islice(tensor_schema(spec, _DTYPES.get(text[k:k + 3], EPS_DTYPE)),
                                   len(text) // _MIN_RECORD + 1))
    parts = _record_parts(schema)
    offsets, records = _placed(parts, _align(payload_start))
    want = _header_text(_encode(dataclasses.asdict(spec)), records)
    if text != want:
        _refuse_header(text, want, records)
    ends = [offset + length for offset, length in zip(offsets, parts[2])]
    if ends[-1] > size:
        raise TruncatedPayloadError("; ".join(str(Diagnostic(TruncatedPayloadError.code, (
            f"{e.name}: span [{offset}, {end}) outside file of {size} bytes")))
            for e, offset, end in zip(schema, offsets, ends) if end > size))
    return spec, [{"name": e.name, "dtype": _DTYPE_NAMES[e.dtype], "shape": e.shape,
                   "byte_offset": offset, "byte_length": length}
                  for e, offset, length in zip(schema, offsets, parts[2])]


def _refuse_header(text: str, want: str, records: list[str]) -> NoReturn:
    """Raise the :class:`MalformedHeaderError` that names the first record of
    ``text`` that is not in ``want``'s ``records``, else the first byte that differs."""
    got = _parsed(text)[1]
    for k in range(max(len(got), len(records))):
        held = _encode(got[k]) if k < len(got) else "nothing"
        if held != (records[k] if k < len(records) else "nothing"):
            raise _refused(MalformedHeaderError, f"tensor record {k} is {held}, where lemon "
                           f"writes {records[k] if k < len(records) else 'nothing'}")
    at = _PREFIX.size + len(os.path.commonprefix([text, want]))
    raise _refused(MalformedHeaderError,
                   f"header differs from the one lemon writes for its spec at byte {at}")


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


class CheckpointReader:
    """An open checkpoint whose header has been checked (see
    :func:`read_header`); tensors are read only when asked for.

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
            self.spec, table = read_header(*_read_head(self._fh))
        except BaseException:
            self._fh.close()
            raise
        self.dtype = _DTYPES[table[-1]["dtype"]]  # the decoder bias's
        self._table = {record["name"]: record for record in table}

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


def load_model_config(path) -> tuple[ModelSpec, np.dtype]:
    """Read a model spec (plus optional ``dtype``) from JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise PlanError(f"{path}: expected a JSON object")
    name = data.pop("dtype", "float64")
    if name not in ("float32", "float64"):
        raise PlanError(f"{path}: unsupported dtype {name!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(ModelSpec)}
    if unknown:
        raise PlanError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        return ModelSpec(**data).validate(), np.dtype(name)
    except (TypeError, PlanError) as exc:
        raise PlanError(f"{path}: {exc}") from exc
