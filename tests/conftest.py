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


def spy_join_tiers(monkeypatch) -> list:
    """The tiers ``join.hash_join`` takes from now on: ``broadcast`` or
    ``exchange`` per call (a driver-tier call adds nothing)."""
    from sylk.stages import join

    taken = []
    for tier in ("broadcast", "exchange"):
        real = getattr(join, f"_{tier}_join")

        def _spy(*a, _real=real, _tier=tier, **k):
            taken.append(_tier)
            return _real(*a, **k)

        monkeypatch.setattr(join, f"_{tier}_join", _spy)
    return taken
