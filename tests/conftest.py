import pytest

from arndt_carlitz import gf


@pytest.fixture
def clean_gf_caches():
    # fault injection corrupts inputs of cached gf functions; drop anything
    # computed during the test so later tests see honest values (bind the
    # real cached functions now, before the test patches any of them)
    cached = [f for f in vars(gf).values() if hasattr(f, "cache_clear")]
    yield
    for fn in cached:
        fn.cache_clear()
