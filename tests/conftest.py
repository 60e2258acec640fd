import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


def scale_tier(monkeypatch, module, *names):
    """Send every operator gated by the named ``_*_LIMIT`` constants of
    ``module`` to its exchange tier: operators pick a tier from input
    size alone, and a limit of -1 puts even an empty input above it."""
    for name in names:
        monkeypatch.setattr(module, name, -1)
