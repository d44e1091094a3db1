import ast
import importlib
import inspect
import pathlib
import pkgutil

import painleve_mkdv
from painleve_mkdv.integrals import pv_total_integral, v_hat
from painleve_mkdv.rh_verify import parametrix_decay
from painleve_mkdv.stokes import make_params

# every functools cache the package holds; one more needs a reason to be here
CACHES = {
    "painleve_mkdv.asymptotics._coefficients",
    "painleve_mkdv.pii.tuned_solution",
    "painleve_mkdv.rh_verify._pair_terms",
    "painleve_mkdv.specfun._origin_parts",
    "painleve_mkdv.specfun._pcf_at_zero",
    "painleve_mkdv.specfun._pcf_core",
}
_PRIVATE_RK = "scipy.integrate._ivp.rk"


def _cached_callables():
    # every functools cache at module level or on a class of the package,
    # under the name of the module that defines it: lru_cache and
    # functools.cache wrappers both expose cache_info()
    for info in pkgutil.iter_modules(painleve_mkdv.__path__):
        module = importlib.import_module(f"painleve_mkdv.{info.name}")
        for obj in vars(module).values():
            members = [obj]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members += vars(obj).values()
            for member in members:
                member = getattr(member, "__func__", member)  # static/class methods
                if callable(member) and hasattr(member, "cache_info"):
                    yield f"{member.__module__}.{member.__qualname__}", member


def _source_trees():
    for path in sorted(pathlib.Path(painleve_mkdv.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _private_rk_uses(tree):
    # every import form, aliased and multi-line included, is an Import or an
    # ImportFrom node whose dotted names start with the private module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == _PRIVATE_RK or name.startswith(_PRIVATE_RK + ".") for name in names):
            yield node.lineno


def test_module_caches_are_bounded():
    # a cache without an integer maxsize (functools.cache, or lru_cache with
    # maxsize=None) grows with every distinct argument for the process's life
    found = dict(_cached_callables())
    assert set(found) == CACHES
    unbounded = [name for name, fn in found.items()
                 if not isinstance(fn.cache_info().maxsize, int)]
    assert unbounded == []


def test_each_cache_serves_traffic():
    # a cache that no call of a check reuses costs memory and earns nothing:
    # from empty caches, one parametrix decay sweep, one total integral and
    # one transform at one pair give each cache hits
    found = dict(_cached_callables())
    for fn in found.values():
        fn.cache_clear()
    p = make_params(0.25, 0.3)
    parametrix_decay(p)
    pv_total_integral(p)
    v_hat(p, 0.5)
    idle = [name for name, fn in found.items() if fn.cache_info().hits == 0]
    assert idle == []


def test_no_private_scipy_interpolant_import():
    # the dense output is the stacked store in pii, not scipy's private
    # per-step interpolant classes
    uses = [(name, line) for name, tree in _source_trees()
            for line in _private_rk_uses(tree)]
    assert uses == []


def test_no_global_statement():
    # module state lives in a bounded functools.lru_cache, which the cache
    # test above sees, not in names a function rebinds
    rebinds = [(name, node.lineno) for name, tree in _source_trees()
               for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert rebinds == []
