"""The root branches of one clique search, searched across forked processes.

solve._max_clique_masks imports this module only when a search splits, so a
process that never splits one does not load it. Each process searches its
share of the branches with solve._search_branch, every branch from the same
incumbent; the caller merges the results in branch order.
"""
from __future__ import annotations

import marshal
import os
import signal
from contextlib import suppress

from .solve import _search_branch


def _search_share(search, branches, share: list[int], best: int, nodes: int) -> list[tuple]:
    """Search the root branches listed in share, each from incumbent best, and
    return (branch, value, mask, nodes, status) for each, mask 0 unless the
    value beats best.

    The running node count starts at nodes, the call's count at the split,
    and goes on over the share, so the budget stops the share no later than
    it would stop the sequential search. The share ends after its first
    branch that is not "complete" or beats best: from there on the merge
    searches every branch again anyway.
    """
    out = []
    for j in share:
        low, _, pool = branches[j]
        value, mask, after, status = _search_branch(search, low, pool, best, 0, nodes)
        out.append((j, value, mask, after - nodes, status))
        nodes = after
        if status != "complete" or value > best:
            break
    return out


def split_branches(search, branches, todo: list[int], best: int, nodes: int,
                   workers: int) -> dict[int, tuple]:
    """Search the root branches todo across `workers` processes, this one
    included, each from incumbent best; {branch: _search_share's tuple} for
    the branches whose results came back.

    Worker k, forked here, searches todo[k::workers] and this process
    todo[0::workers]. A worker sends its results through a pipe, marshalled,
    and ends in os._exit, so it never returns into the caller's code, runs no
    exit handlers and flushes no inherited buffer. A worker that could not be
    forked, or that exits without a full result, leaves its branches out of
    the dict, and the caller searches them itself. If this process raises
    before every worker is reaped, the rest are killed and reaped.
    """
    procs = []  # (pid, read end of its pipe) of each worker not yet reaped
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
                    out = _search_share(search, branches, todo[k::workers], best, nodes)
                    with open(write_end, "wb") as pipe:
                        pipe.write(marshal.dumps(out))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            procs.append((pid, read_end))
        results = {r[0]: r for r in _search_share(search, branches, todo[0::workers], best, nodes)}
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
