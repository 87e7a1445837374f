import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def first_replication_fails(monkeypatch):
    """Replace the per-block unit by one whose replication 0 fails and
    whose replication i records i.  A process pool forks after the patch,
    so its workers run the patched unit too."""
    import dfgof.harness as harness

    def failing(config, design_id, start):
        kept = [i for i in range(start, min(start + harness.BLOCK, config.reps)) if i != 0]
        dropped = min(harness.BLOCK, config.reps - start) - len(kept)
        return {"transformed.ks_abs": np.array(kept, dtype=float)}, dropped

    monkeypatch.setattr(harness, "_block", failing)
