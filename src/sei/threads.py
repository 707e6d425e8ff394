"""How many CPUs ``sei`` may use, and the helper thread a fusion call lends work to.

``usable_cpus`` is the one answer to "how many CPUs may this process run
on": ``retrieval.attach_shc`` sizes its scoring pool by it, and ``fusion``
runs everything on the calling thread when it is 1.

``Helper`` is one thread that runs the tasks submitted to it in order.  It
lives for one ``with`` block: it starts on entry, and on exit it drops the
tasks it has not started and is joined, so no thread outlives the call that
made it.  ``result`` follows the work-first rule of work stealing (Blumofe
and Leiserson, "Scheduling multithreaded computations by work stealing",
JACM 1999): a task the helper has not started is taken back and run by the
caller, so a caller never waits for work it could do itself.  A helper made
with ``threaded=False`` has no thread, so every task is taken back when its
result is asked for: the same code, run inline.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Callable


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class Task:
    """One submitted call.  ``running`` is held from submission until the helper has run it."""

    __slots__ = ("fn", "args", "running", "value", "error")

    def __init__(self, fn: Callable, args: tuple):
        self.fn, self.args = fn, args
        self.running = threading.Lock()  # a lock, not an Event: it costs a tenth as much to make
        self.running.acquire()
        self.value = self.error = None

    def run(self):
        """Call ``fn(*args)``, dropping both first, so its operands are freed once it returns."""
        fn, args = self.fn, self.args
        self.fn = self.args = None
        return fn(*args)


class Helper:
    """One thread that runs submitted tasks in order, for the length of a ``with`` block."""

    def __init__(self, threaded: bool):
        self._queue: deque[Task] = deque()
        self._ready = threading.Condition(threading.Lock())
        self._closed = False
        self._thread = threading.Thread(target=self._work, name="sei-helper") if threaded else None
        self.taken_back = 0  # tasks run by the caller because the helper had not started them

    def __enter__(self) -> "Helper":
        if self._thread is not None:
            try:
                self._thread.start()
            except RuntimeError:  # no thread to be had: every task is taken back
                self._thread = None
        return self

    def __exit__(self, *exc_info) -> None:
        """Drop the tasks not yet started and join the thread."""
        with self._ready:
            self._closed = True
            self._queue.clear()
            self._ready.notify()
        if self._thread is not None:
            self._thread.join()

    def submit(self, fn: Callable, *args) -> Task:
        """Queue ``fn(*args)`` for the helper; its result comes from ``result``."""
        task = Task(fn, args)
        with self._ready:
            self._queue.append(task)
            self._ready.notify()
        return task

    def result(self, task: Task):
        """What ``task`` returned, or raise what it raised.

        A task the helper has not started runs here, in the caller; one it
        has started is waited for.
        """
        with self._ready:
            try:
                self._queue.remove(task)
                taken = True
            except ValueError:  # the helper has started it
                taken = False
        if taken:
            self.taken_back += 1
            return task.run()
        with task.running:  # released once the helper has run it
            pass
        if task.error is not None:
            raise task.error
        return task.value

    def _work(self) -> None:
        while True:
            with self._ready:
                while not self._queue and not self._closed:
                    self._ready.wait()
                if self._closed:
                    return
                task = self._queue.popleft()
            try:
                task.value = task.run()
            except BaseException as exc:  # handed to the caller by result
                task.error = exc
            task.running.release()
