"""Lifecycle cases of the process pool that run_benchmark keeps.

Each case runs in a fresh interpreter with a timeout, so that a hang fails
within seconds.  A case passes when its interpreter exits 0, the rows it got
(time column aside) equal those of threads=1, and none of the worker
processes it saw is still alive after it exits.

    PYTHONPATH=src python tests/bench_lifecycle.py              # every case
    PYTHONPATH=src python tests/bench_lifecycle.py fork_child   # one case, in this process

Warning options (`-W error::DeprecationWarning`) pass on to every case.
tests/test_bench.py runs each case as one test.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import qcmap.bench as bench
from qcmap.errors import ResourceLimitError

TIMEOUT_S = 30

_solve_chunk = bench._solve_chunk


def rows(threads: int, **kwargs) -> list[tuple]:
    got = bench.run_benchmark(3, range(3, 7), 6, seed=7, threads=threads, **kwargs)
    return [(r.gt, r.qt, r.gt_add, r.samples, r.seed) for r in got]


def _send_rows(conn) -> None:
    conn.send(rows(2))
    conn.close()


def _in_child(method: str, owner: bool) -> None:
    """A `method` child of this process calls run_benchmark(threads=2);
    with `owner`, this process holds a kept pool when the child starts."""
    want = rows(1)
    if owner:
        assert rows(2) == want and bench._kept is not None
    ctx = multiprocessing.get_context(method)
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_rows, args=(send,))
    child.start()
    send.close()
    got = recv.recv()
    child.join()
    assert child.exitcode == 0, child.exitcode
    assert got == want


def _nested(owner: bool) -> None:
    """run_benchmark(threads=2) inside a ProcessPoolExecutor worker."""
    want = rows(1)
    if owner:
        assert rows(2) == want
    with ProcessPoolExecutor(max_workers=1) as outer:
        assert outer.submit(rows, 2).result() == want


def _exit() -> None:
    """A call, then a plain exit; the runner checks that the workers are gone."""
    assert rows(2) == rows(1)
    assert multiprocessing.active_children()


def _worker_error() -> None:
    """A job that raises in a worker raises the same error at the caller,
    closes the pool, and the next call gets the right rows."""
    want = rows(1)
    assert rows(2) == want
    errors = []
    for threads in (1, 2):
        try:
            rows(threads, state_cap=5)
        except ResourceLimitError as exc:
            errors.append(str(exc))
    assert len(errors) == 2 and errors[0] == errors[1], errors
    assert bench._kept is None
    assert rows(2) == want


def _kill_on_gt4(job):
    if job[1] == 4:
        os.kill(os.getpid(), signal.SIGKILL)
    return _solve_chunk(job)


def _killed_worker() -> None:
    """A worker killed mid-call gives BrokenProcessPool once; the next call
    builds a new pool and gets the right rows."""
    want = rows(1)
    assert rows(2) == want
    bench._solve_chunk = _kill_on_gt4
    try:
        rows(2)
    except BrokenProcessPool:
        pass
    else:
        raise AssertionError("no BrokenProcessPool")
    finally:
        bench._solve_chunk = _solve_chunk
    assert bench._kept is None
    assert rows(2) == want


CASES = {
    "fork_child": lambda: _in_child("fork", False),
    "fork_child_of_owner": lambda: _in_child("fork", True),
    "spawn_child": lambda: _in_child("spawn", False),
    "spawn_child_of_owner": lambda: _in_child("spawn", True),
    "nested_in_worker": lambda: _nested(False),
    "nested_in_worker_of_owner": lambda: _nested(True),
    "exit": _exit,
    "worker_error": _worker_error,
    "killed_worker": _killed_worker,
}


def run_case(name: str) -> None:
    """Run one case in a fresh interpreter; raise AssertionError if it
    fails, or subprocess.TimeoutExpired if it hangs."""
    proc = subprocess.Popen(
        [sys.executable, *(f"-W{w}" for w in sys.warnoptions), __file__, name],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
        assert proc.returncode == 0, f"{name}: exit {proc.returncode}\n{err}"
        alive = []
        for pid in json.loads(out.splitlines()[-1]):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            alive.append(pid)
        assert not alive, f"{name}: workers {alive} still alive"
    finally:
        # A case that hung or leaked leaves processes in its session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main(argv: list[str]) -> int:
    if argv:
        (name,) = argv
        CASES[name]()
        # The children still running here, kept pool workers among them.
        print(json.dumps([p.pid for p in multiprocessing.active_children()]))
        return 0
    failed = 0
    for name in CASES:
        try:
            run_case(name)
        except (AssertionError, subprocess.TimeoutExpired) as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
