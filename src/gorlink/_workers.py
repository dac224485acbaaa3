"""Worker processes for --jobs runs."""

from contextlib import contextmanager


@contextmanager
def worker_pool(jobs):
    """A process pool of `jobs` spawned workers, one BLAS thread each.

    Each worker imports gorlink.gf to run its jobs, and that import sets
    the worker's own OpenBLAS to one thread, as it does in the caller; the
    environment is left alone.  The pool modules are imported here, not
    with the module, because a serial run needs none.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        yield pool
