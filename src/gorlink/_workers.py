"""Worker processes for --jobs runs."""

import os
from contextlib import contextmanager


def worker_count(jobs):
    """The number of workers a run asks for, at most os.cpu_count(): a
    process pool starts one process per submitted job until it holds
    max_workers, so a larger count only starts idle processes."""
    return min(jobs, os.cpu_count() or 1)


@contextmanager
def worker_pool(jobs):
    """A process pool of worker_count(jobs) spawned workers, one BLAS
    thread each.

    Each worker imports gorlink.gf to run its jobs, and that import sets
    the worker's own OpenBLAS to one thread, as it does in the caller; the
    environment is left alone.  The pool modules are imported here, not
    with the module, because a serial run needs none.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=worker_count(jobs), mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        yield pool
