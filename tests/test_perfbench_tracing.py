"""The benchmark's tracer patches protoseg by attribute name. Every name it
patches must exist, and uninstall must put every original back."""

import sys
from pathlib import Path

from protoseg import (autodiff, encoder, episodes, excitation, fusion, harness,
                      network, reasoning)

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
