import importlib
import inspect
import pkgutil

import painleve_mkdv


def _cached_callables():
    # every functools cache at module level or on a class of the package:
    # lru_cache and functools.cache wrappers both expose cache_info()
    for info in pkgutil.iter_modules(painleve_mkdv.__path__):
        module = importlib.import_module(f"painleve_mkdv.{info.name}")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members += [(f"{name}.{attr}", val) for attr, val in vars(obj).items()]
            for qualname, member in members:
                member = getattr(member, "__func__", member)  # static/class methods
                if callable(member) and hasattr(member, "cache_info"):
                    yield f"{module.__name__}.{qualname}", member


def test_module_caches_are_bounded():
    # a cache without an integer maxsize (functools.cache, or lru_cache with
    # maxsize=None) grows with every distinct argument for the process's life
    found = dict(_cached_callables())
    assert "painleve_mkdv.stokes.rh_constants" in found
    unbounded = [name for name, fn in found.items()
                 if not isinstance(fn.cache_info().maxsize, int)]
    assert unbounded == []
