"""Kernel backend selection.

The hot paths (reachability pass and coloring search) exist twice: a
Cython extension ``zschur._kernel`` and the pure-Python reference
``zschur._kernel_py``.  Both export the same two functions and the same
status codes; the compiled one is picked when importable.  The solver
always calls the pure ``search_free_coloring``, whatever is picked: the
compiled search predates forward checking and is slower on exhaustive
searches, so the compiled kernel serves the reachability pass only.

Set ``ZSCHUR_BACKEND=pure`` to force the fallback (or ``compiled`` to
insist on the extension and fail loudly if it is missing).  Benchmarks
and equivalence tests iterate :func:`available_backends` instead.
"""

from __future__ import annotations

import os

from . import _kernel_py

EXHAUSTED = _kernel_py.EXHAUSTED
FOUND = _kernel_py.FOUND
BUDGET = _kernel_py.BUDGET

_compiled = None
try:
    from . import _kernel as _compiled  # type: ignore[no-redef]
except ImportError:
    _compiled = None


def _select():
    choice = os.environ.get("ZSCHUR_BACKEND", "").strip().lower()
    if choice in ("pure", "py", "python"):
        return _kernel_py
    if choice in ("compiled", "cython", "ext"):
        if _compiled is None:
            raise ImportError(
                "ZSCHUR_BACKEND=compiled but the zschur._kernel extension "
                "is not built; reinstall with a C compiler available")
        return _compiled
    return _compiled if _compiled is not None else _kernel_py


#: The kernel module in use for this process.
kernel = _select()


def backend_name() -> str:
    return kernel.BACKEND


def available_backends() -> dict[str, object]:
    """Importable kernels keyed by name ('pure' always, 'compiled' if built)."""
    out: dict[str, object] = {"pure": _kernel_py}
    if _compiled is not None:
        out["compiled"] = _compiled
    return out
