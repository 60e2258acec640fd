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


def scale_tier(monkeypatch):
    """Send every tiered operator to its exchange tier: operators pick a
    tier from input bytes alone against ``collect.DRIVER_BUDGET``, and a
    budget of -1 puts even an empty input above it."""
    from sylk.stages import collect

    monkeypatch.setattr(collect, "DRIVER_BUDGET", -1)
