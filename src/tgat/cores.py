"""One runner for work split over the usable cores.

``run(tasks)`` calls each task once: the calling thread and up to one pool
thread per other usable core (``os.sched_getaffinity``) take tasks from one
shared iterator, and a pool job that a busy core never starts is cancelled,
so a busy core delays the call by at most the task it holds. Three users
run on it: φ's row blocks, forward and backward; the backward of a large
attention hop; and ``embed``'s passes, each computed beside the preparation
of the next pass's top hop. Each task writes its own part of arrays the
caller allocated, or arrays of its own, with the numpy calls of the
one-thread run, so no bit depends on the split or the threads. A task may
call ``run`` again: a job it submits that no idle core takes is cancelled.
"""

from __future__ import annotations

import os

_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = None


def _pool():
    """The pool for the other usable cores, made on the first call that
    splits, so a process whose calls never split neither imports
    ``concurrent.futures`` nor holds the pool. Two first calls at once may
    make two pools; the one dropped ends its threads once they are idle."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(_CORES - 1, thread_name_prefix="tgat")
    return _POOL


def _forget_pool() -> None:
    """A forked child makes its own pool: the parent's threads do not
    survive a fork."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _drain(tasks) -> None:
    """Run tasks from the shared iterator until none is left. A list
    iterator's ``next`` is atomic under the interpreter lock."""
    for task in tasks:
        task()


def run(tasks) -> None:
    """Call each of ``tasks`` once, on this thread and on idle cores: one job
    per other core up to one per task beyond the first, so a single task
    runs here alone and makes no pool. A list iterator drops its list once
    exhausted, so a cancelled job, which stays queued until a pool thread is
    free, holds none of the tasks' arrays after the call. Every job is
    cancelled or waited for before a task's exception propagates, so no
    task still writes into the caller's arrays once the call ends."""
    shared = iter(tasks)
    jobs = [_pool().submit(_drain, shared) for _ in range(min(_CORES, len(tasks)) - 1)]
    try:
        _drain(shared)
    finally:
        raised = [job.exception() for job in jobs if not job.cancel()]
    for error in filter(None, raised):
        raise error
