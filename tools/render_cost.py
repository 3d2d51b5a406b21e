"""Per-stage cost of protoseg's sample renderer.

    python3 tools/render_cost.py [SRC_DIR]

Imports protoseg from SRC_DIR (default: this checkout's src/) with one BLAS
thread, as `fingerprint.py` does, then renders a fixed set of 64 px samples:
every class and substyle, 16 seeds each, with warps drawn inside each
class's limits from those seeds. The set is rendered `ROUNDS` times; the
first round only warms caches and is not counted. It prints the median ms
per sample of each family, and of all samples, for `generate_sample` as a
whole and for its stages:

  draw             the family's shape drawer, summed over shape retries
  warp             `warp_mask`, summed over shape retries
  texture          `_texture`
  noise+composite  the rest of `generate_sample`: seed derivation, argument
                   checks, the defect noise draw, compositing and casts

Stages are timed by wrapping the module attributes `generate_sample` calls
(`_DRAWERS`, `warp_mask`, `_texture`), so the same script measures a parent
and a change. Compare two trees in one alternating set, since a host's
speed drifts:

    git archive --prefix=parent/ HEAD | tar -x -C /tmp
    python3 tools/render_cost.py /tmp/parent/src
    python3 tools/render_cost.py
"""

import statistics
import sys
import time
from pathlib import Path

from fingerprint import import_protoseg

SEEDS = range(16)
ROUNDS = 4
SIZE = 64
STAGES = ("draw", "warp", "texture", "noise+composite")


def sample_set(classes):
    """(class, substyle, distortion, seed) for every rendered sample, with
    the distortion drawn uniformly inside the class's limits."""
    import numpy as np
    from protoseg.episodes import DistortionParams

    out = []
    for cls in classes:
        for sub in range(len(cls.substyles)):
            for seed in SEEDS:
                rng = np.random.default_rng([cls.class_id, sub, seed])
                p = cls.perspective_max
                dist = DistortionParams(
                    rotation=float(rng.uniform(-cls.rotation_max,
                                               cls.rotation_max)),
                    scale=float(rng.uniform(*cls.scale_range)),
                    perspective_x=float(rng.uniform(-p, p)),
                    perspective_y=float(rng.uniform(-p, p)))
                out.append((cls, sub, dist, seed))
    return out


class StageClock:
    """Wraps the renderer's stage functions and sums their time per call of
    `generate_sample`."""

    def __init__(self, episodes):
        self.spent = dict.fromkeys(STAGES[:-1], 0.0)
        self.episodes = episodes
        self.saved = [("warp_mask", episodes.warp_mask),
                      ("_texture", episodes._texture)]
        self.drawers = dict(episodes._DRAWERS)
        episodes.warp_mask = self.timed("warp", episodes.warp_mask)
        episodes._texture = self.timed("texture", episodes._texture)
        for family, fn in self.drawers.items():
            episodes._DRAWERS[family] = self.timed("draw", fn)

    def timed(self, stage, fn):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.spent[stage] += time.perf_counter() - start
        return wrapper

    def restore(self):
        for name, fn in self.saved:
            setattr(self.episodes, name, fn)
        self.episodes._DRAWERS.update(self.drawers)


def measure():
    """{family: {stage: [ms per sample...]}} over the counted rounds, with
    the stage "total" for the whole `generate_sample` call."""
    from protoseg import episodes

    samples = sample_set(episodes.default_classes())
    clock = StageClock(episodes)
    times: dict = {}
    try:
        for round_ in range(ROUNDS):
            for cls, sub, dist, seed in samples:
                for stage in clock.spent:
                    clock.spent[stage] = 0.0
                start = time.perf_counter()
                episodes.generate_sample(cls, sub, dist, seed, SIZE)
                total = time.perf_counter() - start
                if not round_:
                    continue
                row = dict(clock.spent, total=total)
                row["noise+composite"] = total - sum(clock.spent.values())
                for family in (cls.family, "all"):
                    per = times.setdefault(family, {})
                    for stage, seconds in row.items():
                        per.setdefault(stage, []).append(1e3 * seconds)
    finally:
        clock.restore()
    return times


def main(argv) -> None:
    if len(argv) > 1:
        sys.exit(__doc__)
    default = Path(__file__).resolve().parent.parent / "src"
    import_protoseg(Path(argv[0] if argv else default).resolve())
    times = measure()
    columns = ("total",) + STAGES
    print("median ms per %d px sample, %d rounds counted"
          % (SIZE, ROUNDS - 1))
    print("%-8s %6s " % ("family", "n") + " ".join("%15s" % c for c in columns))
    for family in ("scratch", "patch", "pits", "all"):
        per = times[family]
        print("%-8s %6d " % (family, len(per["total"]))
              + " ".join("%15.3f" % statistics.median(per[c]) for c in columns))


if __name__ == "__main__":
    main(sys.argv[1:])
