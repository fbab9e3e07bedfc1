"""numpy as ``np``, and mpmath, each loaded on first use.

`hankel` and `wdet` run in mpmath, `dp` and the Fredholm kernels in numpy,
and `enumerate` in plain Python, yet the modules they live in hold code of
more than one kind.  A plain ``import numpy`` or ``import mpmath`` at the
top of a module would make every start of the CLI pay for both: most of a
cold start, and for numpy about a third of the resident memory of a
determinant sweep.  Modules import them from here instead: each is the
module itself when it is already loaded, and otherwise the module wrapped
in `importlib.util.LazyLoader`, which runs its import on the first
attribute access, that is, inside the first route that calls it.

On Python 3.11 that first access is not thread-safe: two threads that touch
a module at once can both start the load.  The CLI is single-threaded.
"""

import importlib.util
import sys


def _on_first_use(name: str):
    """The module `name`, imported on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _on_first_use("numpy")
mpmath = _on_first_use("mpmath")
