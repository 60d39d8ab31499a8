"""The benchmark's tracer still finds the library methods it wraps.

`perfbench/tracer.py` patches `MultiScaleBlock`, `Aspp` and `_UNetBase`
forward/backward by class attribute and reads `len(block.branches)`; a
library refactor that moves those must fail here, not only in the
minutes-long `perfbench/selftest.py`.
"""

import os
import sys

import numpy as np
import pytest

from broadunet import blocks, model

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer
    return tracer


def test_traced_step_records_block_and_unet_spans(tracer_module):
    originals = {cls: (cls.__dict__["forward"], cls.__dict__["backward"])
                 for cls in (blocks.MultiScaleBlock, blocks.Aspp,
                             model._UNetBase)}
    net = model.build_broad_unet(model.mini_config()).initialize(seed=0)
    x = np.random.default_rng(0).random(net.input_shape()).astype(np.float32)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.op = ("op", 0)
        y = net.forward(x, train=True, rng=np.random.default_rng(1))
        net.backward(np.ones_like(y))
        tracer.op = None
    finally:
        tracer.uninstall()
    names = {span[tracer_module.NAME] for span in tracer.spans}
    for label in ("msblock", "aspp", "unet"):
        assert {f"{label}.fwd", f"{label}.bwd"} <= names, label
    metrics = tracer.per_layer_metrics(0, 1, 0.0, 0.0)
    assert metrics["blocks.concat_mb"] > 0
    assert metrics["model.tape_mb"] > 0
    for cls, (fwd, bwd) in originals.items():
        assert cls.__dict__["forward"] is fwd
        assert cls.__dict__["backward"] is bwd


def test_tape_bytes_count_only_training_forwards(tracer_module):
    net = model.build_broad_unet(model.mini_config()).initialize(seed=0)
    x = np.random.default_rng(0).random(net.input_shape()).astype(np.float32)
    net.predict(x)
    assert tracer_module.tape_bytes(net.root) == 0
    y = net.forward(x, train=True, rng=np.random.default_rng(1))
    assert tracer_module.tape_bytes(net.root) > 0
    net.backward(np.ones_like(y))
    assert tracer_module.tape_bytes(net.root) == 0
