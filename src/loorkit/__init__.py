"""Weighted Lovász numbers, optimal orthogonal representations, and
complex-to-real conversion for exclusivity graphs.

The public names load on first use: ``import loorkit`` imports no
submodule and no numpy, and the first access to a public name or to
``__all__`` imports the six library modules (PEP 562).  A submodule
reached as an attribute, ``loorkit.theta``, loads alone, so each CLI
command loads only the modules it calls.  An import error in a submodule
therefore appears at first use, not at ``import loorkit``.
"""

__version__ = "0.1.0"

_SUBMODULES = frozenset({"alpha", "cli", "graph", "instances", "loor", "realify", "theta"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        # not bound yet: load it alone, which is also how ``from . import x``
        # finds it.  The builtin, unlike importlib, shows in ``-X importtime``.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    from . import alpha, graph, instances, loor, realify, theta

    public = {n: getattr(m, n) for m in (alpha, graph, instances, loor, realify, theta)
              for n in m.__all__}
    globals().update(public, __all__=[*public, "__version__"])
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
