"""Collapsed-state evolution kernel.

The layer loop of the degeneracy-collapsed simulator.  One layer with
angles (beta, gamma) acts on the class amplitudes ``v`` (cost class i
carrying weight ``w[i] = sqrt(f_i)`` and phase-generator value ``q[i]``)
as

    v_i <- exp(i * gamma * q_i) * v_i
    v_i <- v_i + (exp(i * beta) - 1) * (sum_j w_j v_j) * w_i

which is the phase separator followed by the rank-one mixer
I + (e^{i beta} - 1)|s><s| restricted to the collapsed basis.

``BACKEND`` names the kernel; it is always ``"python"`` (numpy).  It
stays only because ``perfbench`` reports it and hooks this module's
``evolve`` by name.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"

__all__ = ["BACKEND", "evolve"]


def evolve(
    w: np.ndarray,
    q: np.ndarray,
    betas: np.ndarray,
    gammas: np.ndarray,
    v: np.ndarray,
) -> None:
    """Apply all layers in place to the complex amplitude vector ``v``."""
    for beta, gamma in zip(betas, gammas):
        v *= np.exp(1j * gamma * q)
        overlap = np.dot(w, v)
        v += (np.exp(1j * beta) - 1.0) * overlap * w
