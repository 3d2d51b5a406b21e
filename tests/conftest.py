# Pin BLAS to one thread before numpy loads anywhere in the test session;
# the byte-determinism guarantees assume serial kernels.
import glob
import os
import signal

import pytest

os.environ["PROTOSEG_THREADS"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _children() -> list[int]:
    """Pids of this process's children, running or unreaped, whoever
    forked them (`multiprocessing.active_children()` sees only its own)."""
    files = glob.glob("/proc/self/task/*/children")
    if files:  # the kernel lists them (CONFIG_PROC_CHILDREN)
        pids = set()
        for path in files:
            with open(path) as f:
                pids.update(int(pid) for pid in f.read().split())
        return sorted(pids)
    me, pids = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:  # gone meanwhile
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.split("/")[2]))
    return sorted(pids)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    # A test that leaves a child process fails; the child is then killed
    # and reaped so that later tests start clean.
    result = yield
    left = _children() if os.path.isdir("/proc/self") else []
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if left:
        pytest.fail("left child processes behind: %s" % left, pytrace=False)
    return result
