import os
import tempfile

import numpy as np
import pytest

from lemon import ModelSpec, expand_model, random_weights, read_checkpoint, write_checkpoint
from lemon.container import CheckpointReader
from lemon.rng import substream


@pytest.fixture
def rng():
    """Factory for deterministic per-test generators."""
    def make(*tags) -> np.random.Generator:
        return substream(0xBEEF, *tags)
    return make


@pytest.fixture
def toy_spec():
    def make(style="pre_ln", depth=2, width=8, head_dim=4, ratio=2.0,
             vocab=11, **kw) -> ModelSpec:
        return ModelSpec(norm_style=style, depth=depth, width=width,
                         head_dim=head_dim, mlp_ratio=ratio,
                         vocab_or_classes=vocab, **kw).validate()
    return make


@pytest.fixture
def toy_model(toy_spec):
    def make(seed=1, **kw):
        spec = toy_spec(**kw)
        return random_weights(spec, substream(seed, "toy")), spec
    return make


def _expanded(w, spec, plan):
    """``expand_model`` on weights held in memory: ``w`` is written as a
    checkpoint, expanded into another, and that is read back.  Returns the
    expanded weights, their spec and the duplicate map."""
    with tempfile.TemporaryDirectory() as tmp:
        small, big = os.path.join(tmp, "small.lmn"), os.path.join(tmp, "big.lmn")
        write_checkpoint(w, spec, small)
        with CheckpointReader(small) as source:
            big_spec, dup = expand_model(source, plan, big)
        big_w, read_spec = read_checkpoint(big)
    assert read_spec == big_spec
    return big_w, big_spec, dup


@pytest.fixture(scope="session")
def expanded():
    """``(weights, spec, plan) -> (expanded weights, spec, duplicate map)``,
    through a checkpoint on each side (session-scoped, so hypothesis tests
    can use it too)."""
    return _expanded


class _ZeroNormal:
    """Generator whose ``normal`` draws are all zero, so lemon replicas can
    never separate; every other method is a real substream's."""

    def __init__(self):
        self._g = substream(0, "zero-normal")

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.zeros(() if size is None else size)

    def __getattr__(self, name):
        return getattr(self._g, name)


@pytest.fixture
def zero_normal():
    """Factory for generators that can never draw separated split noise."""
    return _ZeroNormal
