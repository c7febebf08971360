"""Optional-dependency guard shared by every vectorized module.

The library is dependency-free by design; NumPy is a pure *accelerator*
(the ``[fast]`` extra in ``pyproject.toml``).  Every module with a
vectorized code path imports this single guard instead of try/excepting
``numpy`` itself, so the decision — and the test hook to force the pure
Python fallback — lives in exactly one place.

Usage::

    from .._compat import get_numpy

    np = get_numpy()
    if np is None:
        ...  # scalar loop, identical results
    else:
        ...  # vectorized fast path

The vectorized kernels in :mod:`repro.placement.kernels` and
:mod:`repro.scheduling.kernels` are NumPy-only (bar the fleet engine's
``bernoulli_indices``): callers check the guard first and, without
NumPy, run their scalar ``place()`` / ``choose()`` loops instead of
entering a kernel.

Setting the environment variable ``REPRO_PURE_PYTHON=1`` (before import)
disables NumPy even when it is installed — used by the equivalence tests
and handy for bisecting suspected fast-path bugs in production.
"""

from __future__ import annotations

import os
from typing import Any, Optional

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

if os.environ.get("REPRO_PURE_PYTHON"):
    _numpy = None

#: The numpy module, or None when unavailable/disabled.  Tests monkeypatch
#: this attribute (not their own import) to force the fallback path.
np: Optional[Any] = _numpy

#: True when the vectorized fast paths are active.
HAVE_NUMPY: bool = np is not None


def get_numpy() -> Optional[Any]:
    """Return the numpy module, or None to request the pure-Python path.

    Always consulted at *call* time (never cached by callers), so
    monkeypatching :data:`repro._compat.np` switches every vectorized
    module at once.
    """
    return np

