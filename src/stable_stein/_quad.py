"""Panel Gauss-Legendre quadrature helpers.

All heavy integrals in this package (Fourier inversion, oscillatory test
oracles, tail moments) are computed by mapping a fixed Gauss-Legendre rule
onto a list of panel edges chosen by the caller.  Keeping the edge logic with
the caller lets each integral align panels to its own structure: half-periods
of the oscillating factor, dyadic refinement toward an endpoint singularity,
geometric growth into a power-law tail.

The two scipy routines the package uses, adaptive ``quad`` and ``brentq``,
are also named here, and scipy is imported on their first call, not when
the package is imported: the import costs most of a CLI cold start, and
the commands that only evaluate closed forms, the constants or the stable
density never need it.  Two more scipy routines are ported in-house, next
to their one caller each, and match scipy bit for bit: the PCHIP
interpolant behind the quantile table (``density._Pchip``, checked by
``TestPchipParity`` in ``tests/test_density.py``) and the bounded Brent
minimizer of ``optimize_gamma`` (``bounds._minimize_bounded``, checked by
``TestBoundedMinimizerParity`` in ``tests/test_bounds.py``).
"""

from __future__ import annotations

import importlib
import threading
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gl_rule(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges, order: int = 16):
    """Map the GL rule onto every consecutive pair of ``edges``.

    Returns flat arrays (nodes, weights); ``dot(f(nodes), weights)`` is the
    composite integral over [edges[0], edges[-1]].
    """
    edges = np.asarray(edges, dtype=float)
    x, w = gl_rule(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


# One lock for every first import: threads that import scipy submodules
# which import each other could otherwise see a partly initialised module.
_first_import = threading.Lock()


def _import_on_first_call(module: str, name: str):
    """A stand-in for ``module.name`` that imports ``module`` when first called.

    The real object is bound once; after that each call costs one extra
    Python call.
    """
    real = None

    def call(*args, **kwargs):
        nonlocal real
        if real is None:
            with _first_import:
                real = getattr(importlib.import_module(module), name)
        return real(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, imported on first call."
    return call


quad = _import_on_first_call("scipy.integrate", "quad")
brentq = _import_on_first_call("scipy.optimize", "brentq")
