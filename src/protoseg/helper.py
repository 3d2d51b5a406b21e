"""The helper process that `harness.train` and `harness.evaluate` fork to
use a second CPU, and how each splits its work with it: a training step's
two episodes (`_pair_episodes`), evaluation's queue (`_share_episodes`)."""

import os
import tempfile  # loaded already, by numpy
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .errors import ProtosegError

# Seconds a helper has to return once its caller's pipe ends are closed.
EXIT_WAIT_S = 5.0


@contextmanager
def _pair_episodes(params: list[Parameter],
                   run_episode: Callable[[int, int, int], float]):
    """Yield pair(index, epoch) -> both losses: it runs episode index in
    the caller and index + 1 in a helper forked for the block, on the same
    weights (`_shared`), and adds the helper's raw gradient pieces
    (`_PieceLog`) onto the caller's gradients."""
    def serve(inbox, outbox, caller_alive) -> None:
        log: list[tuple[int, np.ndarray]] = []
        for i, p in enumerate(params):
            p.grad = _PieceLog(i, log)
        while True:
            try:
                index, epoch = inbox.recv()
            except EOFError:  # the caller is done, or gone
                return
            log.clear()
            try:
                loss = run_episode(index, epoch, 2)
            except Exception as exc:
                outbox.send(exc)
                return
            outbox.send((loss, [(i, piece.dtype.str) for i, piece in log]))
            for _, piece in log:
                outbox.send_bytes(np.ascontiguousarray(piece))

    with _shared(params), _Helper("training", serve) as helper:
        def pair(index: int, epoch: int) -> tuple[float, float]:
            helper.send((index + 1, epoch))
            mine = run_episode(index, epoch, 2)
            reply = helper.recv()
            if isinstance(reply, Exception):
                raise reply
            loss, layout = reply
            for i, dtype in layout:  # one piece in memory at a time
                p = params[i]
                piece = np.frombuffer(helper.recv_bytes(), dtype)
                ad._accumulate(p, piece.reshape(p.shape))
            return mine, loss

        yield pair


@contextmanager
def _shared(params: list[Parameter]):
    """Keep the parameters' data in one anonymous shared map for the block.
    SGD updates it in place, so a helper forked inside the block always
    computes with the caller's weights."""
    import mmap

    offsets, size = [], 0
    for p in params:
        offsets.append(size)
        size += -(-p.data.nbytes // 64) * 64  # 64-byte aligned views
    shared = np.frombuffer(mmap.mmap(-1, size), np.uint8)
    try:
        for p, offset in zip(params, offsets):
            view = shared[offset:offset + p.data.nbytes]
            view = view.view(p.dtype).reshape(p.shape)
            view[...] = p.data
            p.data = view
        yield
    finally:
        for p in params:  # the shared map goes with its last view
            p.data = p.data.copy()


class _PieceLog:
    """Stands in for a parameter's gradient in the training helper:
    `autodiff._accumulate` adds each gradient piece onto it with +=, and
    it logs the piece, untouched, with the parameter's index.

    A parameter used twice in an episode gets two gradient pieces. Float
    addition does not associate, so the helper hands over every raw piece,
    in backward order, and the caller adds them one at a time in that
    order, as one process would.
    """

    def __init__(self, index: int, log: list):
        self.index = index
        self.log = log

    def __iadd__(self, piece: np.ndarray) -> "_PieceLog":
        self.log.append((self.index, piece))
        return self


def _share_episodes(score: Callable[[int], tuple], count: int) -> list[tuple]:
    """[score(0), ..., score(count - 1)], computed by the caller and one
    forked helper process on both CPUs, or the exception of the lowest
    index that raised.

    The indices wait in a queue, an unnamed temporary file of 8-byte
    words that both processes read through one shared file offset. Each
    process claims the next index with one read and scores it; splitting
    by episode rather than by stage keeps both busy whatever an episode's
    stages cost. POSIX has a read() through one open file description
    update its offset atomically, across processes too (Linux since 3.14,
    read(2), BUGS), so each index goes out once and in increasing order:
    every index below a failing one has been claimed, and is scored, when
    both stop. The helper sends its results once, at the end.
    """
    with tempfile.TemporaryFile() as queue:
        queue.write(np.arange(count, dtype="<u8").tobytes())
        queue.seek(0)

        def body(inbox, outbox, caller_alive) -> None:
            outbox.send(_claim_and_score(queue.fileno(), score, caller_alive))

        with _Helper("evaluation", body) as helper:
            mine, my_error = _claim_and_score(queue.fileno(), score,
                                              helper.alive)
            theirs, their_error = helper.recv()
    errors = [e for e in (my_error, their_error) if e is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return [row for _, row in sorted(mine + theirs, key=lambda r: r[0])]


def _claim_and_score(queue: int, score, alive
                     ) -> tuple[list, Optional[tuple[int, Exception]]]:
    """Score the indices read from descriptor `queue`, one 8-byte word
    each, until it reads empty or `alive()` says the other process is
    gone. A failing process moves the shared offset to the end, so the
    other claims nothing after its episode in flight. Returns the
    (index, result) pairs and the first failure as (index, exception)."""
    done = []
    while alive():
        word = os.read(queue, 8)
        if not word:
            break
        i = int.from_bytes(word, "little")
        try:
            done.append((i, score(i)))
        except Exception as exc:
            os.lseek(queue, 0, os.SEEK_END)
            return done, (i, exc)
    return done, None


class _Helper:
    """One helper process, forked for a with-block, and a pipe each way.

    The helper runs body(inbox, outbox, caller_alive): it reads what the
    caller sends and writes what the caller receives. It ignores SIGINT
    (Ctrl-C reaches the whole process group, and the caller stops it).
    It has closed its copies of the caller's pipe ends, so once the
    caller closes or loses them (even by SIGKILL) a read sees EOF, a write
    ends it quietly (SIGPIPE), and caller_alive() turns false. Leaving the
    block closes them and reaps the helper: it returns (code 0), or is
    terminated if still alive EXIT_WAIT_S later, or at once after an
    exception, as it may have work left. Once it has died, `send`, `recv`
    and `recv_bytes` raise ProtosegError("<what> helper exited with code
    N"). It needs the `fork` start method: a spawned helper would import
    numpy and the package again.
    """

    def __init__(self, what: str, body: Callable):
        # Imported here: callers that never fork should not pay for it.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.what = what
        inbox, self._to_helper = ctx.Pipe(duplex=False)
        self._from_helper, outbox = ctx.Pipe(duplex=False)
        self._process = ctx.Process(
            target=_helper_main, daemon=True,
            args=(body, os.getpid(), (inbox, outbox),
                  (self._to_helper, self._from_helper)))
        try:
            with inbox, outbox:
                self._process.start()
        except BaseException:
            self._to_helper.close()
            self._from_helper.close()
            raise

    def __enter__(self) -> "_Helper":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._to_helper.close()
        self._from_helper.close()
        if exc_type is None:
            self._process.join(EXIT_WAIT_S)
        self._process.terminate()  # does nothing once the helper is joined
        self._process.join()
        self._process.close()

    def alive(self) -> bool:
        return self._process.is_alive()

    def send(self, message) -> None:
        self._unless_exited(self._to_helper.send, message)

    def recv(self):
        return self._unless_exited(self._from_helper.recv)

    def recv_bytes(self) -> bytes:
        return self._unless_exited(self._from_helper.recv_bytes)

    def _unless_exited(self, call, *args):
        try:
            return call(*args)
        except (BrokenPipeError, EOFError):  # the helper has closed its end
            self._process.join()
            raise ProtosegError("%s helper exited with code %s"
                                % (self.what, self._process.exitcode)) from None


def _helper_main(body: Callable, caller: int, ends, callers_ends) -> None:
    import signal  # loaded already, by multiprocessing

    for end in callers_ends:
        end.close()
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # An orphan is re-parented, so its parent id changes.
    body(*ends, lambda: os.getppid() == caller)
