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
