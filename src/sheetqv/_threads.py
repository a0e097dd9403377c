"""The one way the package uses a second core: one worker thread beside the caller.

The worker is a bare ``threading.Thread``: importing ``concurrent.futures``
alone raised the peak RSS of the analytic benchmark by 0.5 MB.
"""

from __future__ import annotations

import contextlib
import threading


@contextlib.contextmanager
def alongside(fn, *args):
    """Run ``fn(*args)`` on a worker thread while the with-block runs on this one.

    Yields the list that the worker's error lands in, so the block can stop
    early once it is non-empty. Leaving the block joins the worker and then
    raises its error; if the block raised first, the block's error is raised.
    """
    failed = []

    def work():
        try:
            fn(*args)
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        yield failed
    finally:
        worker.join()
    if failed:
        raise failed[0]
