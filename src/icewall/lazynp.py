"""numpy as ``np``, loaded on first use.

`hankel` and `wdet` run in mpmath and `enumerate` in plain Python, yet the
modules they live in also hold double-precision code.  A plain
``import numpy`` there would load all of numpy (most of a cold start, and
about a third of the resident memory of a determinant sweep) for commands
that never call it.  Modules import ``np`` from here instead: it is numpy
itself when numpy is already loaded, and otherwise numpy wrapped in
`importlib.util.LazyLoader`, which runs numpy's import on the first
attribute access, that is, inside the first double-precision route.

On Python 3.11 that first access is not thread-safe: two threads that touch
``np`` at once can both start the load.  The CLI is single-threaded.
"""

import importlib.util
import sys

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
