from support import cached_callables


def test_every_cache_is_bounded():
    found = dict(cached_callables())
    assert {"pvrh.boutroux_elliptic._solve_rounded",
            "pvrh.boutroux_elliptic._solve_raw",
            "pvrh.boutroux_elliptic._modulus",
            "pvrh.boutroux_elliptic._sn_kernel"} <= set(found)
    for name, cached in found.items():
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0, name
