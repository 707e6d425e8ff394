"""How many CPUs ``sei`` may use, and the helper thread a fusion call lends work to.

``usable_cpus`` says how many CPUs this process may run on; ``fusion`` runs
everything on the calling thread when it is 1.

``Helper`` is a one-worker ``ThreadPoolExecutor`` for one ``with`` block; on
exit it cancels the tasks not yet started and joins its thread, so no thread
outlives the call that made it.  ``result`` follows the work-first rule of
work stealing (Blumofe and Leiserson, JACM 1999): a task the helper has not
started is cancelled and run by the caller, who never waits for work it
could do itself.  A helper made with ``threaded=False``, or whose thread
cannot start, has no pool and takes back every task: the same code, inline.
"""

from __future__ import annotations

import os
from typing import Callable


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class Helper:
    """One worker thread that runs submitted tasks in order, for the length of a ``with`` block."""

    def __init__(self, threaded: bool):
        self._pool = None
        if threaded:
            from concurrent.futures import ThreadPoolExecutor  # here, so importing fusion does not pay for it

            self._pool = ThreadPoolExecutor(1, thread_name_prefix="sei-helper")
        self.taken_back = 0  # tasks run by the caller because the helper had not started them

    @property
    def threaded(self) -> bool:
        """Whether tasks may run on the helper's thread."""
        return self._pool is not None

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def submit(self, fn: Callable, *args) -> list:
        """Queue ``fn(*args)``; the task is ``[future, fn, args]``, its future None if no thread will run it."""
        task = [None, fn, args]
        if self._pool is not None:
            try:
                task[0] = self._pool.submit(_run, task)
            except RuntimeError:  # no thread to be had: this task and every later one is taken back
                self._pool = None
        return task

    def result(self, task: list):
        """What ``task`` returned, or raise what it raised: run here if the helper has not started it."""
        if task[0] is None or task[0].cancel():
            self.taken_back += 1
            return _run(task)
        return task[0].result()


def _run(task: list):
    """Call the task's ``fn(*args)``, dropping both first, so its operands are freed once it returns."""
    fn, args = task[1], task[2]
    task[1] = task[2] = None
    return fn(*args)
