"""Span tracing of protoseg's layers from outside the package.

The tracer replaces public functions and methods with wrappers that record
one span per call: name, start, end, parent span and episode. It touches no
file of the package; `install` patches the attributes where callers look
them up and `uninstall` restores them.

- `harness` imports `sample_episode`, `write_checkpoint`, `read_checkpoint`,
  `iou`, `fb_iou` and `bce_loss` by name, so those are wrapped in the
  `harness` (and `network`) namespaces.
- The model modules call autodiff ops as `ad.<op>`, so the ops are wrapped
  on the `autodiff` module. An op's backward is timed by wrapping the
  `_backward` closure of the tensor the op returns.
- Encoder, branches, head and network are wrapped on their classes.

The first few tapes of a traced run also run under tracemalloc, which
gives the peak memory of one training episode's forward and backward
(`tape_peak_bytes`); tracemalloc slows every allocation, so it is off for
the rest of the run.

Spans stay in flat in-memory arrays and are written once, by `write`.
A new episode starts at every `sample_episode` call made by the harness;
every span records the episode current when it started.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc
from array import array
from collections import defaultdict

from protoseg import (autodiff, encoder, episodes, excitation, fusion, harness,
                      network, reasoning)

# Ops wrapped on the autodiff module. The per-op metrics report a subset.
OPS = ("add", "mul", "power", "relu", "sigmoid", "exp", "log", "clamp",
       "tensor_sum", "tensor_mean", "reshape", "transpose", "concat", "matmul",
       "conv1d", "conv2d", "avg_pool_global")

# Ops with per-op metrics: the model's convolutions, matmul and sigmoid,
# plus mul, whose backward took ~5% of autodiff.backward on train-desk
# (the next op, relu, took under 4%).
REPORTED_OPS = ("conv2d", "conv1d", "matmul", "sigmoid", "mul")

# Tapes measured under tracemalloc at the start of a traced run.
MEMORY_TAPES = 4

# Layers are the package modules; a span's layer is its name up to the
# first dot.
LAYERS = ("autodiff", "episodes", "encoder", "reasoning", "excitation",
          "fusion", "network", "harness", "storage", "metrics")


class Tracer:
    """Records spans while `active`; patches nothing until `install`."""

    def __init__(self):
        self.active = False
        self.episode = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.episode_of = array("q")
        self.name_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.tape_nodes = array("q")
        self.tape_peak_bytes = array("q")
        self.checkpoint_bytes = array("q")
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.episode_of.append(self.episode)
        self.name_of.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """Wrapper recording a span `name` around `fn`; `after(result,
        args)` runs inside the span and may replace the result."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
                return after(out, args) if after is not None else out
            finally:
                self._close(sid)

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    # -- hooks ---------------------------------------------------------------

    def _time_backward(self, name: str):
        def after(out, args):
            closure = getattr(out, "_backward", None)
            if closure is not None:
                out._backward = self.wrap(closure, name)
            return out
        return after

    def _new_episode(self, fn):
        def start_episode(*args, **kwargs):
            if self.active:
                self.episode += 1
            return fn(*args, **kwargs)
        return start_episode

    def _tape_enter(self, fn):
        def enter(tape):
            if (self.active and len(self.tape_peak_bytes) < MEMORY_TAPES
                    and not tracemalloc.is_tracing()):
                tracemalloc.start()
            return fn(tape)
        return enter

    def _traced_backward(self, fn):
        traced = self.wrap(fn, "autodiff.backward")

        def backward(tape, output):
            if self.active:
                self.tape_nodes.append(len(tape))
            try:
                return traced(tape, output)
            finally:
                if tracemalloc.is_tracing():
                    self.tape_peak_bytes.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
        return backward

    def _count_bytes(self, out, args):
        self.checkpoint_bytes.append(os.path.getsize(args[0]))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for op in OPS:
            self._patch(autodiff, op, "autodiff." + op,
                        self._time_backward("autodiff.%s.bwd" % op))
        self._patches.append((autodiff, "backward", autodiff.backward))
        autodiff.backward = self._traced_backward(autodiff.backward)
        self._patches.append((autodiff.Tape, "__enter__",
                              autodiff.Tape.__enter__))
        autodiff.Tape.__enter__ = self._tape_enter(autodiff.Tape.__enter__)

        self._patch(episodes, "generate_sample", "episodes.generate_sample")
        self._patch(harness, "sample_episode", "episodes.sample")
        self._patches.append((harness, "sample_episode",
                              harness.sample_episode))
        harness.sample_episode = self._new_episode(harness.sample_episode)

        self._patch(encoder.Encoder, "__call__", "encoder.call")
        self._patch(reasoning.GraphReasoning, "__call__", "reasoning.call")
        self._patch(excitation.FeatureExcitation, "__call__", "excitation.call")
        self._patch(fusion.FusionHead, "__call__", "fusion.head")
        self._patch(network, "bce_loss", "fusion.bce")
        self._patch(harness, "bce_loss", "fusion.bce")
        self._patch(network.FewShotSegmenter, "forward", "network.forward")

        self._patch(harness, "train", "harness.train")
        self._patch(harness, "evaluate", "harness.evaluate")
        self._patch(harness, "ablate", "harness.ablate")
        self._patch(harness.SGD, "step", "harness.sgd_step")
        self._patch(harness, "write_checkpoint", "storage.checkpoint_write",
                    self._count_bytes)
        self._patch(harness, "read_checkpoint", "storage.checkpoint_read")
        self._patch(harness, "iou", "metrics.score")
        self._patch(harness, "fb_iou", "metrics.score")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def mark(self) -> int:
        """Span index to pass to `summarize` as the start of a window."""
        return len(self.start)

    def summarize(self, first: int = 0, last: int | None = None) -> dict:
        """Per-name inclusive and self seconds and call counts for spans
        [first, last), plus the seconds covered by the window's root spans.
        A span's self time is its duration minus its children's."""
        last = len(self.start) if last is None else last
        child = defaultdict(float)
        for sid in range(first, last):
            p = self.parent[sid]
            if p >= first:
                child[p] += self.end[sid] - self.start[sid]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        for sid in range(first, last):
            name = self.names[self.name_of[sid]]
            dur = self.end[sid] - self.start[sid]
            total[name] += dur
            own[name] += dur - child[sid]
            calls[name] += 1
            if self.parent[sid] < first:
                covered += dur
        return {"total_s": dict(total), "self_s": dict(own),
                "calls": dict(calls), "covered_s": covered}

    def write(self, path) -> None:
        """Write every span as columns; times in seconds from the first."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "parent": self.parent.tolist(),
            "episode": self.episode_of.tolist(),
            "name": self.name_of.tolist(),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Per-episode inclusive times: metric name -> span name.
_PER_EPISODE = (("autodiff.backward_ms", "autodiff.backward"),
                ("episodes.sample_ms", "episodes.sample"),
                ("episodes.generate_sample_ms", "episodes.generate_sample"),
                ("encoder.call_ms", "encoder.call"),
                ("reasoning.call_ms", "reasoning.call"),
                ("excitation.call_ms", "excitation.call"),
                ("fusion.head_ms", "fusion.head"),
                ("fusion.bce_ms", "fusion.bce"),
                ("network.forward_ms", "network.forward"),
                ("harness.sgd_step_ms", "harness.sgd_step"),
                ("metrics.score_ms", "metrics.score"))


def layer_metrics(tracer: Tracer, first: int, last: int, cycle,
                  untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced cycle, whose spans are [first,
    last), as name -> (value, unit), plus a record with every op.

    Times are per episode of the cycle: a span's inclusive time, an op's
    self time, or a layer's summed self time. harness.other_ms is the part
    of the cycle's wall time no span covers, so the layers' self times plus
    harness.other_ms add up to trace.wall_ms. Storage times are per call,
    over the traced set-up too."""
    episodes = sum(r.episodes for r in cycle)
    wall = sum(r.seconds for r in cycle)
    summary = tracer.summarize(first, last)
    total, own, calls = summary["total_s"], summary["self_s"], summary["calls"]

    def ms(seconds):
        return 1000.0 * seconds / episodes

    ops = {}
    for op in OPS:
        name = "autodiff." + op
        ops[op] = {"calls": calls.get(name, 0) / episodes,
                   "fwd_ms": ms(own.get(name, 0.0)),
                   "bwd_ms": ms(own.get(name + ".bwd", 0.0))}

    m = {"autodiff.tape_nodes": (statistics.fmean(tracer.tape_nodes)
                                 if tracer.tape_nodes else 0.0, "count"),
         "autodiff.tape_peak_mb": (statistics.median(tracer.tape_peak_bytes) / 2 ** 20
                                   if tracer.tape_peak_bytes else 0.0, "MB")}
    for metric, span in _PER_EPISODE:
        m[metric] = (ms(total.get(span, 0.0)), "ms/episode")
    for op in REPORTED_OPS:
        m["autodiff.%s.calls" % op] = (ops[op]["calls"], "calls/episode")
        m["autodiff.%s.fwd_ms" % op] = (ops[op]["fwd_ms"], "ms/episode")
        m["autodiff.%s.bwd_ms" % op] = (ops[op]["bwd_ms"], "ms/episode")
    m["encoder.calls_per_episode"] = (calls.get("encoder.call", 0) / episodes,
                                      "calls/episode")
    m["harness.trainings"] = (calls.get("harness.train", 0) / len(cycle), "count")

    durations = defaultdict(list)
    for sid in range(last):
        name = tracer.names[tracer.name_of[sid]]
        if name.startswith("storage."):
            durations[name].append(tracer.end[sid] - tracer.start[sid])
    for metric, span in (("storage.checkpoint_write_ms", "storage.checkpoint_write"),
                         ("storage.checkpoint_read_ms", "storage.checkpoint_read")):
        d = durations.get(span)
        m[metric] = (1000.0 * statistics.median(d) if d else 0.0, "ms/call")
    m["storage.checkpoint_bytes"] = (statistics.median(tracer.checkpoint_bytes)
                                     if tracer.checkpoint_bytes else 0.0, "bytes")

    for layer in LAYERS:
        m[layer + ".self_ms"] = (ms(sum(v for k, v in own.items()
                                        if k.split(".", 1)[0] == layer)),
                                 "ms/episode")
    m["harness.other_ms"] = (ms(wall - summary["covered_s"]), "ms/episode")
    m["trace.wall_ms"] = (ms(wall), "ms/episode")
    m["trace.overhead_pct"] = (100.0 * (wall / untraced_s - 1.0), "%")
    return m, {"ops": ops, "spans": summary}
