"""Bit-identity fingerprint of protoseg's training and evaluation outputs.

    python3 tools/fingerprint.py [SRC_DIR]

Imports protoseg from SRC_DIR (default: this checkout's src/) with every
BLAS thread variable set to 1, then hashes, in order:

  losses seed=S fold=S    the loss list of the default desk `train`, for
                          S = 0, 1, 2
  params seed=S fold=S    name, dtype and raw bytes of every array in each
                          of its checkpoints, read back with
                          `read_checkpoint`: no shapes, no header
  files seed=S fold=S     the bytes of its checkpoint files
  eval ... k=1 / k=5      the 20-episode `evaluate` report of each final
                          network at K=1 and K=5
  gradcheck               the floats of `gradcheck_model(Config())`

It first prints `blas_core = <name>`, the OpenBLAS kernel numpy's bundled
library runs on, since the bytes depend on it, and `blas_threads = <n>`,
the thread count that library runs, which shows that the one-thread rule
held; each says `unknown` if it cannot tell, and neither is hashed. Then
it prints one sha256 per part and one over all parts. A change that claims
to keep outputs bit-identical prints the same lines as its parent on the
same kernel. A change of checkpoint layout alone (shapes, header) moves
only the `files` lines and the total:

    git archive --prefix=parent/ HEAD | tar -x -C /tmp
    python3 tools/fingerprint.py /tmp/parent/src > parent.txt
    python3 tools/fingerprint.py > change.txt
    diff parent.txt change.txt
"""

import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1, 2)
EVAL_EPISODES = 20


def import_protoseg(src: Path) -> None:
    """Import protoseg from src, refusing a copy found anywhere else, and
    set every BLAS thread variable it names to 1 before numpy loads, so
    that a value from the shell cannot reach the hashes."""
    sys.path.insert(0, str(src))
    import protoseg
    found = Path(protoseg.__file__).resolve().parent
    if found != src / "protoseg":
        sys.exit("fingerprint: imported protoseg from %s, not from %s"
                 % (found, src))
    for var in protoseg._BLAS_VARS:
        os.environ[var] = "1"


def openblas(symbol: str, restype):
    """The package's call into numpy's bundled OpenBLAS (`_openblas`), or
    None when the protoseg imported has no such lookup, as in a checkout
    older than it."""
    import protoseg

    lookup = getattr(protoseg, "_openblas", None)
    return None if lookup is None else lookup(symbol, restype)


def blas_core() -> str:
    """The core name the bundled OpenBLAS reports (`SkylakeX`, or `Haswell`
    under OPENBLAS_CORETYPE=Haswell)."""
    core = openblas("get_corename", ctypes.c_char_p)
    return "unknown" if core is None else core.decode()


def blas_threads() -> str:
    """The thread count the bundled OpenBLAS runs its kernels on."""
    threads = openblas("get_num_threads", ctypes.c_int)
    return "unknown" if threads is None else str(threads)


def parts():
    """Yield (label, bytes) for every hashed part, in a fixed order."""
    from protoseg.config import Config
    from protoseg.harness import evaluate, gradcheck_model, train
    from protoseg.storage import read_checkpoint

    for seed in SEEDS:
        run = "seed=%d fold=%d" % (seed, seed)
        with tempfile.TemporaryDirectory() as out_dir:
            result = train(Config(seed=seed, fold=seed), out_dir=out_dir)
            values, files = [], []
            for path in result.checkpoints:
                for name, array in read_checkpoint(path)[1].items():
                    values += [name.encode(), array.dtype.str.encode(),
                               array.tobytes()]
                files.append(path.read_bytes())
        yield "losses " + run, repr(result.losses).encode()
        yield "params " + run, b"\0".join(values)
        yield "files " + run, b"".join(files)
        for k in (1, 5):
            report = evaluate(result.network, k=k, episodes=EVAL_EPISODES)
            yield ("eval %s k=%d" % (run, k),
                   json.dumps(report.to_dict(), sort_keys=True).encode())
    errors = gradcheck_model(Config())
    yield "gradcheck", repr(sorted(errors.items())).encode()


def main(argv) -> None:
    if len(argv) > 1:
        sys.exit(__doc__)
    default = Path(__file__).resolve().parent.parent / "src"
    import_protoseg(Path(argv[0] if argv else default).resolve())
    print("blas_core = %s" % blas_core(), flush=True)
    print("blas_threads = %s" % blas_threads(), flush=True)
    total = hashlib.sha256()
    for label, blob in parts():
        digest = hashlib.sha256(blob).hexdigest()
        total.update(digest.encode())
        print("%s  %s" % (digest, label), flush=True)
    print("%s  total" % total.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
