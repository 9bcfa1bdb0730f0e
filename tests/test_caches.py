import importlib
import pkgutil

import pvrh


def _cached_callables():
    """(qualified name, callable) of every functools cache in pvrh's modules."""
    for info in pkgutil.iter_modules(pvrh.__path__, "pvrh."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            members = {name: obj}
            if isinstance(obj, type) and obj.__module__ == info.name:
                members.update((f"{name}.{attr}", val)
                               for attr, val in vars(obj).items())
            for qual, member in members.items():
                if callable(getattr(member, "cache_parameters", None)):
                    yield f"{info.name}.{qual}", member


def test_every_cache_is_bounded():
    found = dict(_cached_callables())
    assert {"pvrh.boutroux_elliptic._solve_rounded",
            "pvrh.boutroux_elliptic._modulus"} <= set(found)
    for name, cached in found.items():
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0, name
