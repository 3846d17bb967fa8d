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

A call's workers live as long as its solve._Budget, the one budget of a
public call, an augmentation walk or a certificate's chain of decisions
(_Workers). Its first split forks them, and they search that split's items,
which reach them through the fork. Each later split sends each worker one
job through a pipe, marshalled: the relabelled rows, the target, the
budget's node limit, deadline and nodes spent, the items, the incumbent and
the count at the split; each worker sends back its results, marshalled,
through a second pipe. The function that built the budget ends the workers
when it returns or raises (_Budget.close). So a call forks once however
often it splits, and a worker pays its copy-on-write faults once, not at
every split. A budget that never splits forks nothing.

The queue also counts the nodes of the items finished so far. A process
starts each item's count at the count of the split plus that sum: no more
than the count at which the one-CPU search would start the item, as the
items finished were all taken before it (and once an item beats the
incumbent, the merge takes no result of the items after it). So under a
node limit the process's own budget check stops it no earlier than the
one-CPU search inside that item, and within 256 nodes in an item it starts
past that stop, where the merge, which stops in the item the stop falls in,
never reads it.
"""
from __future__ import annotations

import fcntl
import marshal
import os
import signal
from contextlib import suppress

from .solve import SolveOptions, _Budget, _search, _search_tuple


class _Queue:
    """Positions 0..size-1, handed out one at a time and in order to
    whichever of the forked processes asks first, and the nodes of the
    positions finished so far.

    The next position, the nodes finished and the size are 8-byte counters
    in a memory-backed file that every process forked after it shares, read
    and written under a POSIX record lock on that file. Nothing is written
    per position, so the queue holds any number of them. The kernel drops
    the locks of a process that ends, so a worker killed at any point, the
    lock held or not, stalls no other process.
    """

    def __init__(self, size: int = 0):
        self.fd = os.memfd_create("unitdist-split")
        self.reset(size)

    def reset(self, size: int) -> None:
        """Hand out positions 0..size-1 afresh, with no nodes finished; only
        while no other process uses the queue."""
        os.pwrite(self.fd, bytes(16) + size.to_bytes(8, "little"), 0)

    def _update(self, done: int, clear: bool) -> tuple[int, int] | None:
        """Add done to the nodes finished; then leave no position to take if
        clear, or else take the next one: (it, the nodes finished), or None
        when none is left."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            raw = os.pread(self.fd, 24, 0)
            i = int.from_bytes(raw[:8], "little")
            finished = int.from_bytes(raw[8:16], "little") + done
            size = int.from_bytes(raw[16:], "little")
            taken = not clear and i < size
            after = size if clear else i + taken
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


def _send(pipe, data: bytes) -> None:
    """Write data to pipe, after its length in 8 bytes."""
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _receive(pipe):
    """The object that _send wrote marshalled to pipe, or None when the pipe
    ends before a whole one."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return marshal.loads(data) if len(data) == size else None


def _serve(jobs_fd: int, results_fd: int, queue: _Queue, search, items: list[tuple],
           best: int, nodes: int) -> None:
    """A worker's life: search its share of the split it was forked at, the
    items left at count nodes from incumbent best, and write the results to
    results_fd; then the same for each job read from jobs_fd, a later
    split's (rows, stop_at, node limit, deadline, nodes spent, items, best,
    nodes), until the caller closes jobs_fd."""
    budget = _Budget(SolveOptions())
    with open(jobs_fd, "rb") as jobs, open(results_fd, "wb") as results:
        while True:
            _send(results, marshal.dumps(_search_share(search, items, queue, best, nodes)))
            if (job := _receive(jobs)) is None:
                return
            rows, stop_at, budget.node_limit, budget.deadline, budget.spent, items, best, nodes = job
            search = _search_tuple(rows, stop_at, budget)


class _Workers:
    """The processes forked at a call's first split, kept for its later
    splits, and the queue they share.

    The first split's work reaches the workers through the fork; each later
    split's goes to each of them as one job, marshalled, through its own
    pipe. A worker that could not be forked, or that ends without sending a
    whole result, is left out of this split and every later one; the caller
    searches the items it took. If the caller raises during a split, every
    worker is killed and reaped, and the call's later splits run in the
    caller alone.
    """

    def __init__(self):
        self.queue = _Queue()
        self.procs: list[tuple] = []  # (pid, job pipe, result pipe) of each worker kept
        self.forked = False

    def _fork(self, cpu: int, share: tuple) -> bool:
        """Fork one worker held to cpu that starts on share, (search, items,
        best, nodes) of the split, or return False when the system refuses a
        pipe or a process. The worker ends in os._exit, so it never returns
        into the caller's code, runs no exit handlers and flushes no
        inherited buffer."""
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return False
        jobs_read, jobs_write, results_read, results_write = fds
        if pid == 0:
            code = 1
            try:
                for _, jobs, results in self.procs:
                    jobs.close()
                    results.close()
                os.close(jobs_write)
                os.close(results_read)
                _serve(jobs_read, results_write, self.queue, *share)
                code = 0
            finally:
                os._exit(code)
        os.close(jobs_read)
        os.close(results_write)
        self.procs.append((pid, open(jobs_write, "wb"), open(results_read, "rb")))
        with suppress(OSError):
            os.sched_setaffinity(pid, {cpu})
        return True

    def split(self, search, items: list[tuple], best: int, nodes: int,
              processes: int) -> dict[int, tuple]:
        """{i: (nodes, status, improvements)} of _search_share for the items
        whose results came back, searched by the workers and this process
        from one queue; the first split forks processes - 1 workers.

        Each worker is held to a CPU of this process's set other than the
        one this process last ran on; this process's own set is left as it
        is. Left to itself, the scheduler of a 2-vCPU KVM guest kept a fresh
        worker on its caller's CPU for 60-400 ms, so the two took turns and a
        split of a few milliseconds ran slower than one process.
        """
        self.queue.reset(len(items))
        try:
            if not self.forked:
                self.forked = True
                allowed = os.sched_getaffinity(0)
                cpus = sorted(allowed - {_current_cpu()}) or sorted(allowed)
                for k in range(processes - 1):
                    if not self._fork(cpus[k % len(cpus)], (search, items, best, nodes)):
                        break
            else:
                nbr, _, _, stop_at, budget = search
                job = marshal.dumps((nbr, stop_at, budget.node_limit, budget.deadline,
                                     budget.spent, items, best, nodes))
                for worker in self.procs[:]:
                    try:
                        _send(worker[1], job)
                    except OSError:
                        self._end(worker)
            working = self.procs[:]
            results = {r[0]: r[1:] for r in _search_share(search, items, self.queue, best, nodes)}
            for worker in working:
                out = _receive(worker[2])
                if out is None:
                    self._end(worker)
                else:
                    results.update((r[0], r[1:]) for r in out)
            return results
        except BaseException:
            while self.procs:
                self._end(self.procs[-1])
            raise

    def _end(self, worker: tuple) -> None:
        """Close the pipes of a worker, kill it if it has not exited, and
        reap it."""
        self.procs.remove(worker)
        pid, jobs, results = worker
        with suppress(OSError):  # the flush of a job the worker never read
            jobs.close()
        results.close()
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)

    def close(self) -> None:
        """End every worker, and close the queue."""
        while self.procs:
            self._end(self.procs[-1])
        os.close(self.queue.fd)


def split_items(search, items: list[tuple], best: int, nodes: int,
                processes: int) -> dict[int, tuple]:
    """Search the items, the work left at count nodes, each from incumbent
    best, across the workers of the call's budget (search[4]) and this
    process; {i: (nodes, status, improvements)} of _search_share for the
    items whose results came back. The budget's first split forks its
    workers, processes - 1 of them; the caller searches the items whose
    results did not come back."""
    budget = search[4]
    if budget.workers is None:
        budget.workers = _Workers()
    return budget.workers.split(search, items, best, nodes, processes)
