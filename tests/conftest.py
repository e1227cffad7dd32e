import gc
import sys

import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield
    ray.shutdown()


@pytest.fixture(autouse=True)
def _release_finished_actor_pools():
    """Collect reference cycles after every test once Ray is up.

    A finished Ray Data execution drops its actor pool by reference count,
    but the executor's own object graph is cyclic and still holds the
    workers' handles, so each pool worker keeps its CPU until the cyclic
    garbage collector runs. A driver blocked on a new execution allocates
    nothing, so that collection may never come: three leftover workers of
    one test plus a read task fill the 4-CPU session and the next test
    waits forever. Collecting here starts every test on a free cluster.
    """
    yield
    ray = sys.modules.get("ray")
    if ray is not None and ray.is_initialized():
        gc.collect()
