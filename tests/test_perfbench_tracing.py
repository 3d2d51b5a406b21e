"""The benchmark's tracer patches protoseg by attribute name. Every name it
patches must exist, and uninstall must put every original back."""

import sys
from pathlib import Path

from protoseg import (autodiff, encoder, episodes, excitation, fusion, harness,
                      network, reasoning)
from protoseg.config import Config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

OWNERS = (autodiff, autodiff.Tape, episodes, harness, harness.SGD, network,
          network.FewShotSegmenter, encoder.Encoder, reasoning.GraphReasoning,
          excitation.FeatureExcitation, fusion.FusionHead)
_MISSING = object()


def _changed(owner, snapshot):
    now = vars(owner)
    return sorted(name for name in set(snapshot) | set(now)
                  if snapshot.get(name, _MISSING) is not now.get(name, _MISSING))


def test_tracer_install_then_uninstall_restores_every_attribute():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert {id(owner) for owner, _, _ in tracer._patches} <= set(map(id, OWNERS))
        patched = [name for owner, snap in zip(OWNERS, before)
                   for name in _changed(owner, snap)]
        assert set(tracing.OPS) <= set(patched)
    finally:
        tracer.uninstall()
    for owner, snap in zip(OWNERS, before):
        assert _changed(owner, snap) == [], owner


def test_traced_train_times_every_backward():
    # The per-op bwd_ms metrics time each op's `_backward` closure; an op
    # whose closure escaped the wrapper would report too little.
    cfg = Config(image_size=32, channels=8, proto_dim=4, encoder_width=4,
                 reduction=4, epochs=1, episodes_per_epoch=2)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        harness.train(cfg)
    finally:
        tracer.active = False
        tracer.uninstall()
    calls = tracer.summarize()["calls"]
    assert tracer.episode == cfg.episodes_per_epoch
    assert calls["autodiff.backward"] == cfg.episodes_per_epoch
    for op in ("conv2d", "conv1d"):
        name = "autodiff." + op
        assert calls[name] > 0
        assert calls[name + ".bwd"] == calls[name], op
