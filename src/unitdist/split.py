"""The root branches of one clique search, searched across forked processes.

solve._max_clique_masks imports this module only when a search splits, so a
process that never splits one does not load it. The branches left at the
split wait in one queue, in branch order. Every process, the caller
included, takes the next branch from it, searches it with
solve._search_branch from the incumbent of the split, and takes the next
one, until the queue is empty; so a process that draws short branches
takes more of them, and no process waits for another longer than one
branch. Each worker runs on a CPU other than its caller's. The caller
merges the results in branch order.
"""
from __future__ import annotations

import fcntl
import marshal
import os
import signal
from contextlib import suppress

from .solve import _search_branch


class _Queue:
    """Positions 0..size-1, handed out one at a time and in order to
    whichever of the forked processes asks first.

    The next position is an 8-byte counter in a memory-backed file that
    every process forked after it shares, and it is advanced under a POSIX
    record lock on that file. Nothing is written per position, so the queue
    holds any number of them. The kernel drops the locks of a process that
    ends, so a worker killed at any point, the lock held or not, stalls no
    other process.
    """

    def __init__(self, size: int):
        self.size = size
        self.fd = os.memfd_create("unitdist-split")
        os.pwrite(self.fd, bytes(8), 0)

    def _advance(self, clear: bool) -> int:
        """The counter before the call; it moves one on, or to the end if clear."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            i = int.from_bytes(os.pread(self.fd, 8, 0), "little")
            if i < self.size:
                os.pwrite(self.fd, (self.size if clear else i + 1).to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)
        return i

    def take(self) -> int | None:
        """The next position not yet taken, or None when none is left."""
        i = self._advance(False)
        return i if i < self.size else None

    def clear(self) -> None:
        """Leave no position to take."""
        self._advance(True)

    def __enter__(self) -> "_Queue":
        return self

    def __exit__(self, *exc) -> None:
        os.close(self.fd)


def _current_cpu() -> int | None:
    """The CPU this process last ran on, or None where /proc/self/stat
    cannot tell. Its fields after the command name, which stands in
    parentheses and may hold spaces, start at field 3, so field 39,
    processor, is the 37th of them."""
    try:
        with open("/proc/self/stat", encoding="ascii") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _search_share(search, branches, todo: list[int], queue: _Queue, best: int,
                  nodes: int) -> list[tuple]:
    """Search root branches todo[i], for each position i taken from queue,
    each from incumbent best, and return (branch, value, mask, nodes,
    status) for each, mask 0 unless the value beats best.

    The running node count starts at nodes, the call's count at the split,
    and goes on over the branches this process takes, so the deadline is
    checked every 256 nodes, as in the sequential search. After the first
    branch that is not "complete" or beats best, the queue is cleared and
    this process stops: from that branch on the merge searches every branch
    again anyway, so the other processes stop after their current one.
    """
    out = []
    while (i := queue.take()) is not None:
        j = todo[i]
        low, _, pool = branches[j]
        value, mask, after, status = _search_branch(search, low, pool, best, 0, nodes)
        out.append((j, value, mask, after - nodes, status))
        nodes = after
        if status != "complete" or value > best:
            queue.clear()
            break
    return out


def split_branches(search, branches, todo: list[int], best: int, nodes: int,
                   workers: int) -> dict[int, tuple]:
    """Search the root branches todo across `workers` processes, this one
    included, each from incumbent best; {branch: _search_share's tuple} for
    the branches whose results came back.

    Each of the workers-1 workers forked here, and then this process, runs
    _search_share on one shared queue of todo. A worker sends its results
    through a pipe, marshalled, and ends in os._exit, so it never returns
    into the caller's code, runs no exit handlers and flushes no inherited
    buffer. A worker that could not be forked takes nothing from the queue,
    and one that exits without a full result leaves the branches it took
    out of the dict; the caller searches those itself. If this process
    raises before every worker is reaped, the rest are killed and reaped.

    Each worker is moved, as soon as it is forked, to a CPU of this
    process's set other than the one this process last ran on; this
    process's own set is left as it is. Left to itself, the scheduler of a
    2-vCPU KVM guest kept a fresh worker on its caller's CPU for 60-400 ms,
    so the two took turns and a split of a few milliseconds ran slower than
    one process.
    """
    procs = []  # (pid, read end of its pipe) of each worker not yet reaped
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed - {_current_cpu()}) or sorted(allowed)
    with _Queue(len(todo)) as queue:
        try:
            for k in range(1, workers):
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    break
                if pid == 0:
                    code = 1
                    try:
                        os.close(read_end)
                        out = _search_share(search, branches, todo, queue, best, nodes)
                        with open(write_end, "wb") as pipe:
                            pipe.write(marshal.dumps(out))
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write_end)
                procs.append((pid, read_end))
                with suppress(OSError):
                    os.sched_setaffinity(pid, {cpus[(k - 1) % len(cpus)]})
            results = {r[0]: r for r in _search_share(search, branches, todo, queue, best, nodes)}
            while procs:
                pid, read_end = procs[-1]
                with open(read_end, "rb") as pipe:
                    data = pipe.read()
                _, status = os.waitpid(pid, 0)
                procs.pop()
                if os.waitstatus_to_exitcode(status) == 0:
                    results.update((r[0], r) for r in marshal.loads(data))
            return results
        finally:
            for pid, read_end in procs:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                with suppress(OSError):
                    os.close(read_end)
