"""The work a search still has to do, searched across forked processes.

solve._split imports this module only when a search splits, so a process
that never splits one does not load it. Two searches split: the clique
search (solve._search) and the k-coloring search (solve._color_search). The
work left at the split is a list of items in the order the one-CPU search
takes them: for the clique search each child of the current node or of one
of its parents (solve._pending), for the coloring search each color not yet
tried at each frame of its stack, carried as the path of (vertex, color)
choices that leads to it (solve._color_pending). The items wait in one
queue, in that order. Every process, the caller included, takes the next
item from it, searches it from the incumbent of the split
(solve._search_item), and takes the next one, until the queue is empty; so
a process that draws short items takes more of them, and no process waits
for another longer than one item. Each worker runs on a CPU other than its
caller's. The caller merges the results in item order (solve._split).

A call's workers live as long as its solve._Budget, the one budget of a
public call, an augmentation walk or a certificate's chain of decisions
(_Workers). Its first split forks them, and they search that split's items,
which reach them through the fork. Each later split sends each worker one
job through a pipe, marshalled: the search's kind and rows, its target or
k, the budget's node limit, deadline and nodes spent, the items, the
incumbent and the count at the split; each worker sends back its results,
marshalled, through a second pipe. The function that built the budget ends
the workers when it returns or raises (_Budget.close). So a call forks once
however often it splits, and a worker pays its copy-on-write faults once,
not at every split. A budget that never splits forks nothing. The first
split waits for solve._SPLIT_NODES nodes of its search, which the fork must
repay; a later search of the call splits at its first check, at 256 nodes,
as a job costs far less than a fork (solve._split_range).

At each of its budget checks, every 256 nodes, a process writes the running
count of its item into the queue, and reads back the nodes, finished or
running, of the items before it (_ItemBudget). The count of the split plus
those nodes is no more than the count at which the one-CPU search starts the
item, and it reaches that count once the items before have finished. So
under a node limit a process stops no earlier than the one-CPU search
inside its item, and within 256 nodes of it once the items before it are
done; an item past the stop stops as soon as the items before it reach the
stop, and the merge, which stops in the item the stop falls in, never reads
it. Once an item ends the split (a target, a coloring, a rise of the
incumbent, or a stop), its position is written into the queue too: nothing
more is handed out, and a process that holds a later item stops at its next
check and returns nothing for it, since the merge never reads it.

Once no item is left to take, and none has ended the split, the last item
still running hands back the work it has left at its next check
(_ItemBudget): when it has searched solve._SPLIT_NODES nodes, or sooner
once a process holds no item and is idle, provided it has found no
improvement and, under a node limit, may have solve._SPLIT_NODES nodes left
before the stop. Since no later item
runs beside it, no start bound misses the work it hands back. The item's
search returns that work as items, built as the first split builds its
own, and _search_share returns them, with the nodes the item searched, in
place of its improvements; its process then finds nothing left either.
When the merge reaches the item, it splits those items again
(solve._split): one more job to each worker, a round of the same queue
from the item's exact count, whose results it merges before the next
item. A round's items hand work back in the same way, so the rounds nest.
"""
from __future__ import annotations

import fcntl
import marshal
import os
import signal
import struct
from contextlib import contextmanager, suppress

from . import solve
from .solve import SolveOptions, _Budget, _new_search, _search_item


# The queue's counters: four for the split, then three per process.
_NEXT, _FINISHED, _SIZE, _END = range(4)
_IDLE = (1 << 63) - 1  # the position of a process that holds none


class _Queue:
    """Positions 0..size-1, handed out one at a time and in order to
    whichever of the forked processes asks first, with the nodes each
    process has searched so far in the position it holds.

    The queue is a memory-backed file that every process forked after it
    shares, read and written under a POSIX record lock on that file. It
    holds 8-byte counters: the next position, the nodes of the positions
    finished, the size, and the first position that ended the split (the
    size while none has); then, for each process, the position it holds,
    its running count there, and the nodes of the finished positions before
    it. Nothing is written per position, so the queue holds any number of
    them. The kernel drops the locks of a process that ends, so a worker
    killed at any point, the lock held or not, stalls no other process.
    `slot` numbers this process among them; each worker sets its own after
    the fork.
    """

    def __init__(self, size: int = 0, processes: int = 1):
        self.fd = os.memfd_create("unitdist-split")
        self.slot = 0
        self.processes = processes
        self.format = struct.Struct(f"<{4 + 3 * processes}q")
        self.reset(size)

    def reset(self, size: int) -> None:
        """Hand out positions 0..size-1 afresh, with no nodes counted; only
        while no other process uses the queue."""
        os.pwrite(self.fd, self.format.pack(0, 0, size, size, *[_IDLE, 0, 0] * self.processes), 0)

    @contextmanager
    def _counters(self):
        """The counters as one list, under the lock; written back when the
        block has changed them."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            counters = list(self.format.unpack(os.pread(self.fd, self.format.size, 0)))
            read = counters[:]
            yield counters
            if counters != read:
                os.pwrite(self.fd, self.format.pack(*counters), 0)
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)

    def take(self, done: int = 0) -> tuple[int, int] | None:
        """Add done, the nodes of the position this process finished, to the
        nodes finished, and to those before each position held after it;
        then (the next position not yet taken, the nodes finished), or None
        when none is left to take."""
        me = 4 + 3 * self.slot
        with self._counters() as c:
            c[_FINISHED] += done
            for other in range(4, len(c), 3):
                if c[me] < c[other] != _IDLE:
                    c[other + 2] += done
            if c[_NEXT] == c[_SIZE]:
                c[me:me + 3] = _IDLE, 0, 0
                return None
            c[me:me + 3] = c[_NEXT], 0, c[_FINISHED]
            c[_NEXT] += 1
            return c[me], c[_FINISHED]

    def clear(self, at: int) -> None:
        """Leave no position to take, as position at ended the split; report
        tells the processes that hold a later one."""
        with self._counters() as c:
            c[_NEXT] = c[_SIZE]
            c[_END] = min(c[_END], at)

    def report(self, count: int) -> tuple[int, bool, bool, bool]:
        """Record count as this process's running count in its position;
        return the nodes, finished or running, of the positions before it,
        whether one of them ended the split, whether it is the last position
        still held with none left to take and none that ended the split, and
        whether a process holds none. Once none is left to take, a process
        that holds none has found nothing left, or will when it next asks:
        it is idle."""
        me = 4 + 3 * self.slot
        with self._counters() as c:
            c[me + 1] = count
            running = sum(c[other + 1] for other in range(4, len(c), 3) if c[other] < c[me])
            last = c[_NEXT] == c[_END] == c[_SIZE] and not any(
                c[me] < c[other] != _IDLE for other in range(4, len(c), 3))
            return c[me + 2] + running, c[_END] < c[me], last, _IDLE in c[4::3]

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


class _ItemBudget:
    """The budget of one item's search in a split, in place of the call's:
    at each of the search's checks, every 256 nodes, it reports the item's
    running count to the queue and stops the search when an item before it
    ended the split (dropped), when the deadline has passed, or when the
    count at which the one-CPU search would be there has reached its stop.

    The count of the one-CPU search at the item's start is the count of the
    split plus the nodes of every item before it, which the queue's slots
    bound from below at every check, finished items and running ones alike.
    So the item in which the stop falls runs past the one-CPU stop by no
    more than those items still have to search, plus 256, and an item past
    the stop stops at its first check once the items before it have reached
    the stop.

    At a check that does not stop it, the item hands its work back
    (hand_back, read by solve._split) when no item is left to take, no item
    after it is still running and none has ended the split, and it has
    searched solve._SPLIT_NODES nodes, the rule by which a call's first
    search splits, or a process is idle; but only if it has found no
    improvement (trail is empty) and, under a node limit,
    solve._SPLIT_NODES nodes may be left before the stop. No later item runs
    beside it then, or starts after it, so none has a start bound that
    misses the work handed back, and the bound above holds. Once an item
    has ended the split, the merge ends at or before it, and the items
    before it finish where they run, as without a hand-back: their work left
    leads to a result the merge already holds, or, under a node limit, to a
    stop that is near.
    """

    __slots__ = ("queue", "budget", "nodes", "start", "trail", "dropped", "hand_back")

    def __init__(self, queue: _Queue, budget: _Budget, nodes: int, start: int, trail: list):
        self.queue, self.budget, self.nodes, self.start = queue, budget, nodes, start
        self.trail = trail
        self.dropped = self.hand_back = False

    def exceeded(self, count: int) -> bool:
        into = count - self.start
        before, self.dropped, last, idle = self.queue.report(into)
        at = self.nodes + before + into  # the one-CPU count here, or less
        # Rounded down to a multiple of 256, the count at which the one-CPU
        # search would check its budget: passed from below, never before it.
        if self.dropped or self.budget.exceeded(at & -256):
            return True
        stop = self.budget.stop_count()
        self.hand_back = (last and not self.trail and (into >= solve._SPLIT_NODES or idle)
                          and (stop is None or stop - at >= solve._SPLIT_NODES))
        return False


def _search_share(search, items: list, queue: _Queue, best: int, nodes: int) -> list[tuple]:
    """Search items[i], for each position i taken from queue, each from
    incumbent best, and return (i, nodes, status, improvements) for each,
    an improvement being (nodes into the item, best, witness); an item that
    hands its work back (_ItemBudget) returns (i, nodes, "split", the items
    of the work it had left, as solve._pending or solve._color_pending
    builds them).

    Each item's running node count starts at nodes, the call's count at the
    split, plus the nodes of the items finished so far, and the item's
    budget is an _ItemBudget. The first item that is neither "complete" nor
    "split", or that beats best, clears the queue: from that item on the
    merge takes no result of the split, so the items after it stop at their
    next check, and are not returned.
    """
    out = []
    done = 0
    item_search = list(search)
    while (taken := queue.take(done)) is not None:
        i, finished = taken
        start = nodes + finished
        trail = []
        item_search[4] = budget = _ItemBudget(queue, search[4], nodes, start, trail)
        _, rest, end, status = _search_item(tuple(item_search), items[i], best, 0, start, trail)
        done = end - start
        if budget.dropped:
            continue
        if status == "split":
            out.append((i, done, status, rest))
            continue
        out.append((i, done, status, [(at - start, value, witness) for at, value, witness in trail]))
        if status != "complete" or trail:
            queue.clear(i)
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


def _serve(jobs_fd: int, results_fd: int, queue: _Queue, search, items: list,
           best: int, nodes: int) -> None:
    """A worker's life: search its share of the split it was forked at, the
    items left at count nodes from incumbent best, and write the results to
    results_fd; then the same for each job read from jobs_fd, a later
    split's (kind, rows, search[3], node limit, deadline, nodes spent,
    items, best, nodes), until the caller closes jobs_fd."""
    budget = _Budget(SolveOptions())
    with open(jobs_fd, "rb") as jobs, open(results_fd, "wb") as results:
        while True:
            _send(results, marshal.dumps(_search_share(search, items, queue, best, nodes)))
            if (job := _receive(jobs)) is None:
                return
            (kind, rows, arg, budget.node_limit, budget.deadline, budget.spent,
             items, best, nodes) = job
            search = _new_search(kind, rows, arg, budget)


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

    def __init__(self, processes: int):
        self.queue = _Queue(0, processes)
        self.procs: list[tuple] = []  # (pid, job pipe, result pipe) of each worker kept
        self.forked = False

    def _fork(self, slot: int, cpu: int, share: tuple) -> bool:
        """Fork one worker, with queue slot slot, held to cpu, that starts on
        share, (search, items, best, nodes) of the split, or return False
        when the system refuses a pipe or a process. The worker ends in os._exit, so it never returns
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
                self.queue.slot = slot
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

    def split(self, search, items: list, best: int, nodes: int) -> dict[int, tuple]:
        """{i: (nodes, status, improvements or items)} of _search_share for
        the items whose results came back, searched by the workers and this
        process from one queue; the first split forks one worker per further
        process of the queue.

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
                for k in range(self.queue.processes - 1):
                    if not self._fork(k + 1, cpus[k % len(cpus)], (search, items, best, nodes)):
                        break
            else:
                rows, _, _, arg, budget, kind = search
                job = marshal.dumps((kind, rows, arg, budget.node_limit, budget.deadline,
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


def split_items(search, items: list, best: int, nodes: int,
                processes: int) -> dict[int, tuple]:
    """Search the items, the work left at count nodes, each from incumbent
    best, across the workers of the call's budget (search[4]) and this
    process; {i: (nodes, status, improvements or items)} of _search_share
    for the items whose results came back. The budget's first split forks its
    workers, processes - 1 of them; the caller searches the items whose
    results did not come back."""
    budget = search[4]
    if budget.workers is None:
        budget.workers = _Workers(processes)
    return budget.workers.split(search, items, best, nodes)
