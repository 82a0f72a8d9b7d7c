"""Work split across the calling thread and started threads, failing as a serial loop fails.

A task should write only to arrays its caller allocated before the split:
arrays allocated inside threads raised the peak memory, most likely through
glibc's per-thread malloc arenas, with no gain in time.
"""

from __future__ import annotations

import threading
from typing import Callable


def split_tasks(count: int, workers: int, task: Callable[[int, int], None]) -> None:
    """task(k, i) for every k < count on w = workers workers: worker i takes k = i mod w in order.

    Worker 0 is the calling thread, the others threads started here and
    joined before the return.  A worker stops at its first failure, and the
    failure at the lowest k is raised, the one a serial loop over k raises.
    """
    failures = []  # (k, exception) of each worker that raised

    def work(i: int) -> None:
        try:
            for k in range(i, count, workers):
                task(k, i)
        except Exception as exc:
            failures.append((k, exc))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
