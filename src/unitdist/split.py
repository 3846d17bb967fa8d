"""The work a clique search still has to do, searched across forked processes.

solve._split imports this module only when a search splits, so a
process that never splits one does not load it. The work left at the split
is a list of items, each a child of the search's current node or of one of
its parents, in the order the one-CPU search takes them (solve._pending).
The items wait in one queue, in that order. Every process, the caller
included, takes the next item from it, searches it with solve._search from
the incumbent of the split, and takes the next one, until the queue is
empty; so a process that draws short items takes more of them, and no
process waits for another longer than one item. Each worker runs on a CPU
other than its caller's. The caller merges the results in item order
(solve._split).

Under a node limit the queue also counts the nodes of the items finished so
far. A process starts each item's count at the count of the split plus that
sum: no more than the count at which the one-CPU search would start the
item, as the items finished were all taken before it (and once an item
beats the incumbent, the merge takes no result of the items after it). So
the process's own budget check stops it no earlier than the one-CPU search
stops inside that item, and no process takes an item once that sum reaches
the stop.
"""
from __future__ import annotations

import fcntl
import marshal
import os
import signal
from contextlib import suppress

from .solve import _search


class _Queue:
    """Positions 0..size-1, handed out one at a time and in order to
    whichever of the forked processes asks first, and the nodes of the
    positions finished so far.

    Both are 8-byte counters in a memory-backed file that every process
    forked after it shares, read and written under a POSIX record lock on
    that file. Nothing is written per position, so the queue holds any
    number of them. The kernel drops the locks of a process that ends, so a
    worker killed at any point, the lock held or not, stalls no other
    process. No position is handed out once the nodes finished reach room,
    if given.
    """

    def __init__(self, size: int, room: int | None = None):
        self.size = size
        self.room = room
        self.fd = os.memfd_create("unitdist-split")
        os.pwrite(self.fd, bytes(16), 0)

    def _update(self, done: int, clear: bool) -> tuple[int, int] | None:
        """Add done to the nodes finished; then leave no position to take if
        clear, or else take the next one: (it, the nodes finished), or None
        when none is left."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            raw = os.pread(self.fd, 16, 0)
            i = int.from_bytes(raw[:8], "little")
            finished = int.from_bytes(raw[8:], "little") + done
            taken = (not clear and i < self.size
                     and (self.room is None or finished < self.room))
            after = self.size if clear else i + taken
            os.pwrite(self.fd, after.to_bytes(8, "little") + finished.to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)
        return (i, finished) if taken else None

    def take(self, done: int = 0) -> tuple[int, int] | None:
        """Add done, the nodes of the position this process finished, to the
        nodes finished; then (the next position not yet taken, the nodes
        finished), or None when none is left to take."""
        return self._update(done, False)

    def clear(self) -> None:
        """Leave no position to take."""
        self._update(0, True)

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


def _search_share(search, items: list[tuple], queue: _Queue, best: int,
                  nodes: int) -> list[tuple]:
    """Search items[i], for each position i taken from queue, each from
    incumbent best, and return (i, nodes, status, improvements) for each,
    an improvement being (nodes into the item, best, best_mask).

    Each item's running node count starts at nodes, the call's count at the
    split, plus the nodes of the items finished so far, so the budget is
    checked every 256 nodes, as in the one-CPU search. After the first item
    that is not "complete" or beats best, the queue is cleared and this
    process stops: from that item on the merge takes no result of the split
    anyway, so the other processes stop after their current one.
    """
    out = []
    done = 0
    while (taken := queue.take(done)) is not None:
        i, finished = taken
        start = nodes + finished
        trail = []
        _, _, end, status = _search(search, items[i], best, 0, start, trail)
        done = end - start
        out.append((i, done, status, [(at - start, value, mask) for at, value, mask in trail]))
        if status != "complete" or trail:
            queue.clear()
            break
    return out


def split_items(search, items: list[tuple], best: int, nodes: int, stop: int | None,
                workers: int) -> dict[int, tuple]:
    """Search the items, the work left at count nodes, across `workers`
    processes, this one included, each from incumbent best; {i: (nodes,
    status, improvements)} of _search_share for the items whose results came
    back. stop is the count at which the one-CPU search stops under the node
    limit, or None.

    Each of the workers-1 workers forked here, and then this process, runs
    _search_share on one shared queue of the items. A worker sends its
    results through a pipe, marshalled, and ends in os._exit, so it never
    returns into the caller's code, runs no exit handlers and flushes no
    inherited buffer. A worker that could not be forked takes nothing from
    the queue, and one that exits without a full result leaves the items it
    took out of the dict; the caller searches those itself. If this process
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
    with _Queue(len(items), None if stop is None else stop - nodes) as queue:
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
                        out = _search_share(search, items, queue, best, nodes)
                        with open(write_end, "wb") as pipe:
                            pipe.write(marshal.dumps(out))
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write_end)
                procs.append((pid, read_end))
                with suppress(OSError):
                    os.sched_setaffinity(pid, {cpus[(k - 1) % len(cpus)]})
            results = {r[0]: r[1:] for r in _search_share(search, items, queue, best, nodes)}
            while procs:
                pid, read_end = procs[-1]
                with open(read_end, "rb") as pipe:
                    data = pipe.read()
                _, status = os.waitpid(pid, 0)
                procs.pop()
                if os.waitstatus_to_exitcode(status) == 0:
                    results.update((r[0], r[1:]) for r in marshal.loads(data))
            return results
        finally:
            for pid, read_end in procs:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                with suppress(OSError):
                    os.close(read_end)
