import json
import os
import struct
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemon import (BadMagicError, ContainerError, MalformedHeaderError,
                   ModelSpec, PlanError, ShapeError, TruncatedPayloadError,
                   UnsupportedVersionError, random_weights, read_checkpoint,
                   validate_header, write_checkpoint)
from lemon.container import (ALIGNMENT, MAGIC, VERSION, _PREFIX, _read_head,
                             load_model_config, named_tensors, read_header,
                             write_tensors)
from lemon.rng import substream


def write_toy(tmp_path, name="m.lmn", dtype=np.float64, seed=1, **spec_kw):
    defaults = dict(norm_style="pre_ln", depth=2, width=8, head_dim=4,
                    mlp_ratio=2.0, vocab_or_classes=11)
    defaults.update(spec_kw)
    spec = ModelSpec(**defaults).validate()
    w = random_weights(spec, substream(seed, "ckpt"), dtype=dtype)
    path = tmp_path / name
    write_checkpoint(w, spec, path)
    return w, spec, path


def retable(blob: bytes, mutate) -> bytes:
    """Re-serialize a container with a tampered header (payload untouched)."""
    _, version, header_len = _PREFIX.unpack_from(blob)
    header = json.loads(blob[_PREFIX.size:_PREFIX.size + header_len])
    mutate(header)
    out = json.dumps(header, separators=(",", ":")).encode()
    return _PREFIX.pack(MAGIC, version, len(out)) + out + blob[_PREFIX.size + header_len:]


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_bitwise_identity(self, tmp_path, dtype):
        w, spec, path = write_toy(tmp_path, dtype=dtype)
        got_w, got_spec = read_checkpoint(path)
        assert got_spec == spec
        for (na, a), (nb, b) in zip(named_tensors(w, spec),
                                    named_tensors(got_w, got_spec)):
            assert na == nb
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_depth_zero_round_trip(self, tmp_path):
        _, spec, path = write_toy(tmp_path, depth=0)
        got_w, got_spec = read_checkpoint(path)
        assert got_spec.depth == 0 and got_w.blocks == []

    @pytest.mark.parametrize("kw", (
        dict(tied_decoder=True),
        dict(norm_style="rms_pre"),
        dict(norm_style="post_res_norm"),
        dict(input_kind="vision", vocab_or_classes=9, patch_dim=6, num_patches=4),
    ))
    def test_variants_round_trip(self, tmp_path, kw):
        w, spec, path = write_toy(tmp_path, **kw)
        got_w, got_spec = read_checkpoint(path)
        assert got_spec == spec
        for (_, a), (_, b) in zip(named_tensors(w, spec),
                                  named_tensors(got_w, got_spec)):
            np.testing.assert_array_equal(a, b)

    def test_offsets_are_aligned(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        blob = path.read_bytes()
        _, table = read_header(blob)
        for entry in table:
            assert entry["byte_offset"] % ALIGNMENT == 0

    def test_eps_survives(self, tmp_path):
        w, spec, path = write_toy(tmp_path, eps=0.125)
        got_w, _ = read_checkpoint(path)
        assert got_w.blocks[0].ln1.eps == 0.125

    def test_loaded_arrays_are_owned_writable_and_contiguous(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        got_w, got_spec = read_checkpoint(path)
        for name, a in named_tensors(got_w, got_spec):
            assert a.flags.owndata and a.flags.writeable and a.flags.c_contiguous, name


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        assert validate_header(bytes(blob))[0].code == "bad_magic"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_checkpoint(path)

    def test_future_version(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, VERSION + 1)
        assert validate_header(bytes(blob))[0].code == "unsupported_version"
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            read_checkpoint(path)

    def test_malformed_json(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[_PREFIX.size] = ord("X")
        assert validate_header(bytes(blob))[0].code == "malformed_header"
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedHeaderError):
            read_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        blob = path.read_bytes()[:-16]
        assert any(d.code == "truncated_payload" for d in validate_header(blob))
        path.write_bytes(blob)
        with pytest.raises(TruncatedPayloadError):
            read_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        blob = path.read_bytes()[:_PREFIX.size + 5]
        assert validate_header(blob)[0].code == "truncated_payload"

    def test_overlapping_offsets(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        blob = path.read_bytes()

        def overlap(header):
            header["tensors"][1]["byte_offset"] = header["tensors"][0]["byte_offset"]
        bad = retable(blob, overlap)
        diags = validate_header(bad)
        assert any(d.code == "malformed_header" for d in diags)
        # the diagnostic names both tensors involved
        header_len = struct.unpack_from("<4sIQ", bad)[2]
        header = json.loads(bad[_PREFIX.size:_PREFIX.size + header_len])
        names = [e["name"] for e in header["tensors"][:2]]
        overlap_msgs = [d.message for d in diags if "overlap" in d.message]
        assert overlap_msgs and all(n in overlap_msgs[0] for n in names)
        path.write_bytes(bad)
        with pytest.raises(MalformedHeaderError):
            read_checkpoint(path)

    def test_misaligned_offset(self, tmp_path):
        _, _, path = write_toy(tmp_path)

        def misalign(header):
            header["tensors"][0]["byte_offset"] += 8
        bad = retable(path.read_bytes(), misalign)
        assert any("aligned" in d.message for d in validate_header(bad))

    def test_byte_length_mismatch(self, tmp_path):
        _, _, path = write_toy(tmp_path)

        def corrupt(header):
            header["tensors"][0]["byte_length"] += 8
        bad = retable(path.read_bytes(), corrupt)
        assert any(d.code == "malformed_header" for d in validate_header(bad))

    def test_duplicate_names(self, tmp_path):
        _, _, path = write_toy(tmp_path)

        def dup(header):
            header["tensors"][1]["name"] = header["tensors"][0]["name"]
        bad = retable(path.read_bytes(), dup)
        assert any("duplicate" in d.message for d in validate_header(bad))

    def test_missing_tensor_rejected_on_read(self, tmp_path):
        _, _, path = write_toy(tmp_path)

        def drop(header):
            header["tensors"].pop()
        path.write_bytes(retable(path.read_bytes(), drop))
        with pytest.raises(MalformedHeaderError):
            read_checkpoint(path)

    def test_valid_file_passes_validator(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        assert validate_header(path.read_bytes()) == []

    def test_overflowing_shape_rejected(self, tmp_path):
        # 2**33 * 2**31 elements wrap to 0 in int64; the byte count must not
        _, _, path = write_toy(tmp_path)

        def huge(header):
            header["tensors"][0].update(shape=[2**33, 2**31], byte_length=0)
        path.write_bytes(retable(path.read_bytes(), huge))
        with pytest.raises(MalformedHeaderError):
            read_checkpoint(path)

    def test_non_finite_spec_value_rejected(self, tmp_path):
        _, _, path = write_toy(tmp_path)

        def infinite(header):
            header["model_spec"]["mlp_ratio"] = float("inf")
        path.write_bytes(retable(path.read_bytes(), infinite))
        with pytest.raises(MalformedHeaderError):
            read_checkpoint(path)

    def test_pipe_rejected(self, tmp_path):
        # a pipe has no size to bound the spans and cannot seek to a tensor
        _, _, path = write_toy(tmp_path)
        r, w = os.pipe()
        os.write(w, path.read_bytes()[:256])
        os.close(w)
        with os.fdopen(r, "rb") as fh, pytest.raises(ContainerError, match="regular file"):
            _read_head(fh)

    def test_huge_header_len_is_not_read(self, tmp_path):
        _, _, path = write_toy(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Q", blob, 8, 2**63)
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedPayloadError):
            read_checkpoint(path)


@lru_cache(maxsize=1)
def _toy_blob() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        _, _, path = write_toy(Path(d), depth=1, width=4, head_dim=2, vocab_or_classes=3)
        return path.read_bytes()


class TestCorruptionProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flips_and_truncations_raise_only_container_errors(self, data):
        blob = bytearray(_toy_blob())
        # a third of the flips land in the fixed prefix, header_len included
        where = st.one_of(st.integers(0, _PREFIX.size - 1), st.integers(0, len(blob) - 1),
                          st.integers(0, len(blob) - 1))
        for pos in data.draw(st.lists(where, max_size=4)):
            blob[pos] ^= data.draw(st.integers(1, 255))
        cut = data.draw(st.one_of(st.none(), st.integers(0, len(blob))))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.lmn"
            path.write_bytes(bytes(blob[:cut]))
            try:
                read_checkpoint(path)
            except ContainerError:
                pass


@lru_cache(maxsize=2)
def _toy_in_file_order(dtype) -> tuple:
    """A toy model's (name, tensor) pairs, its spec, and the bytes that
    writing them in file order gives."""
    with tempfile.TemporaryDirectory() as d:
        w, spec, path = write_toy(Path(d), dtype=dtype)
        return named_tensors(w, spec), spec, path.read_bytes()


class TestPlacingWriter:
    """write_tensors places each (name, tensor) pair at its own offset,
    in whatever order the pairs come, and takes every name once."""

    @settings(max_examples=50, deadline=None)
    @given(dtype=st.sampled_from((np.float32, np.float64)), data=st.data())
    def test_any_order_writes_the_bytes_of_file_order(self, dtype, data):
        pairs, spec, want = _toy_in_file_order(dtype)
        order = data.draw(st.permutations(range(len(pairs))))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "placed.lmn"
            write_tensors(path, spec, dtype, (pairs[k] for k in order))
            assert path.read_bytes() == want

    @pytest.mark.parametrize("fault, match", (("repeated", "blocks.0.mlp.w1 given twice"),
                                              ("unknown", "'blocks.9.mlp.w1' is not in"),
                                              ("missing", "blocks.0.mlp.w1 missing")))
    def test_bad_names_raise_and_leave_path_alone(self, tmp_path, fault, match):
        w, spec, path = write_toy(tmp_path)
        before = path.read_bytes()
        pairs = named_tensors(w, spec)
        k = [name for name, _ in pairs].index("blocks.0.mlp.w1")
        if fault == "repeated":
            pairs.insert(0, pairs[k])
        elif fault == "unknown":
            pairs.insert(k, ("blocks.9.mlp.w1", pairs[k][1]))
        else:
            del pairs[k]
        with pytest.raises(ShapeError, match=match):
            write_tensors(path, spec, np.float64, pairs)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.lmn"]

    def test_a_model_with_more_tensors_than_its_spec_is_refused(self, tmp_path):
        w, spec, path = write_toy(tmp_path)
        before = path.read_bytes()
        w.blocks.append(w.blocks[0])
        with pytest.raises(ShapeError, match="more tensors than"):
            write_checkpoint(w, spec, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.lmn"]


class TestConfigParsing:
    def test_load_model_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"norm_style": "pre_ln", "depth": 1,
                                    "width": 8, "head_dim": 4, "mlp_ratio": 2.0,
                                    "vocab_or_classes": 5, "dtype": "float32"}))
        spec, dtype = load_model_config(path)
        assert spec.width == 8 and dtype == np.float32

    def test_load_model_config_bad_dtype(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"norm_style": "pre_ln", "depth": 1,
                                    "width": 8, "head_dim": 4, "mlp_ratio": 2.0,
                                    "vocab_or_classes": 5, "dtype": "float16"}))
        with pytest.raises(PlanError):
            load_model_config(path)
