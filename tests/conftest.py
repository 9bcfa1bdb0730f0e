import random

import pytest

from support import cached_callables


@pytest.fixture
def rng():
    """Fresh deterministic generator per test, so test order cannot leak."""
    return random.Random(20260815)


@pytest.fixture
def cold_caches():
    """Every functools cache in pvrh emptied, so a test sees the work of a
    fresh process whatever ran before it."""
    for _, cached in cached_callables():
        cached.cache_clear()
