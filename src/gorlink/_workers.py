"""Worker processes for --jobs runs."""

import os
from contextlib import contextmanager


@contextmanager
def worker_pool(jobs):
    """A process pool of `jobs` spawned workers, one BLAS thread each.

    Without the setting, each worker would run a BLAS pool as wide as the
    machine.  Spawned workers import a fresh numpy, which reads it as it
    starts; a forked one would inherit the caller's pool.  The caller's own
    setting is put back once the workers are gone.  The pool modules are
    imported here, not with the module, because a serial run needs none.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        if blas is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = blas
