"""Evolution-kernel backend selection.

The collapsed simulator's layer loop has two interchangeable
implementations: a compiled Cython extension (:mod:`thqaoa._evolve`)
and a pure-numpy fallback (:mod:`thqaoa._evolve_py`).  At import time
this module picks the compiled one when it is available and silently
falls back otherwise, so the package works from a plain source checkout.

The environment variable ``THQAOA_BACKEND`` overrides the choice:

* ``THQAOA_BACKEND=python``   -- force the numpy fallback;
* ``THQAOA_BACKEND=compiled`` -- require the extension (ImportError if
  it was not built);
* unset / ``auto``            -- prefer compiled, fall back to python.

``BACKEND`` names the selected implementation; ``benchmarks/bench_kernel.py``
compares the two.
"""

from __future__ import annotations

import os

_requested = os.environ.get("THQAOA_BACKEND", "auto").strip().lower() or "auto"

if _requested == "python":
    from . import _evolve_py as _impl
elif _requested == "compiled":
    try:
        from . import _evolve as _impl  # type: ignore[attr-defined]
    except ImportError as exc:
        raise ImportError(
            f"THQAOA_BACKEND={_requested!r} requires the compiled extension "
            "thqaoa._evolve, which cannot be imported (is it built?); "
            "use THQAOA_BACKEND=python for the numpy kernel"
        ) from exc
elif _requested == "auto":
    try:
        from . import _evolve as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _evolve_py as _impl
else:
    raise ImportError(
        f"THQAOA_BACKEND={_requested!r} not recognized; use 'auto', 'python', or 'compiled'"
    )

BACKEND: str = _impl.BACKEND_NAME
evolve = _impl.evolve

__all__ = ["BACKEND", "evolve"]
