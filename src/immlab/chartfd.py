"""Pole-safe chart derivatives of gridded fields.

Chart components of tensors (for example the induced metric in the
(theta, phi) frame) are smooth along full meridian circles but have
direction-dependent limits at the parameter poles, so they cannot be
analyzed in scalar harmonics.  Derivatives in theta are therefore taken
with high-order finite-difference stencils on the Gauss-Legendre nodes,
using the antipodal continuation f(-th, ph) = parity * f(th, ph + pi)
to keep every stencil centered.  Longitude derivatives are exact Fourier
derivatives along each ring.

Parity is +1 for scalars and components with an even number of theta
indices (gamma_thth, gamma_phph) and -1 for mixed components
(gamma_thph), because the coordinate frame vector e_th flips sign across
a pole while e_ph does not.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HALFWIDTH", "fd_weights", "theta_derivative_ops", "MeridianGrid"]

# Stencil half-width: mirrored rows past each pole, and points each side of
# a centered stencil (order 2 * HALFWIDTH)
HALFWIDTH = 6


def fd_weights(x0: float, xs: np.ndarray, maxorder: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg recursion).

    Returns an array of shape (maxorder+1, len(xs)); row d holds the
    weights of the d-th derivative at x0.
    """
    n = len(xs)
    W = np.zeros((maxorder + 1, n))
    c1 = 1.0
    c4 = xs[0] - x0
    W[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, maxorder)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    W[k, i] = c1 * (k * W[k - 1, i - 1] - c5 * W[k, i - 1]) / c2
                W[0, i] = -c1 * c5 * W[0, i - 1] / c2
            for k in range(mn, 0, -1):
                W[k, j] = ((c4 * W[k, j] - k * W[k - 1, j])) / c3
            W[0, j] = c4 * W[0, j] / c3
        c1 = c2
    return W


def theta_derivative_ops(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense stencil operators for d/dth and d2/dth2 on extended meridians.

    theta holds the interior colatitude nodes (increasing, in (0, pi)).
    The operators act on data extended by HALFWIDTH mirrored rows past
    each pole, shape (n + 2*HALFWIDTH, ...).
    """
    n = len(theta)
    K = HALFWIDTH
    ext = np.concatenate([-theta[:K][::-1], theta, 2.0 * np.pi - theta[-K:][::-1]])
    W1 = np.zeros((n, n + 2 * K))
    W2 = np.zeros((n, n + 2 * K))
    width = 2 * K + 1
    for i in range(n):
        sl = slice(i, i + width)
        w = fd_weights(theta[i], ext[sl], 2)
        W1[i, sl] = w[1]
        W2[i, sl] = w[2]
    return W1, W2


class MeridianGrid:
    """Derivative machinery for (n_theta, n_phi) gridded chart fields."""

    def __init__(self, theta: np.ndarray, n_phi: int):
        if n_phi % 2 != 0:
            raise ValueError("need an even longitude count for antipodal continuation")
        self.theta = np.asarray(theta, dtype=float)
        self.n_phi = n_phi
        self.W1, self.W2 = theta_derivative_ops(self.theta)
        k = np.fft.rfftfreq(n_phi, d=1.0 / n_phi)
        self._ik = 1j * k

    def extend(self, rows: np.ndarray, parity: int) -> np.ndarray:
        """Continue data across both poles with the antipodal rule."""
        K = HALFWIDTH
        shift = self.n_phi // 2
        north = parity * np.roll(rows[:K][::-1], shift, axis=1)
        south = parity * np.roll(rows[-K:][::-1], shift, axis=1)
        return np.concatenate([north, rows, south], axis=0)

    def d_theta(self, rows: np.ndarray, parity: int, order: int = 1) -> np.ndarray:
        W = self.W1 if order == 1 else self.W2
        return W @ self.extend(rows, parity)

    def d_phi(self, rows: np.ndarray, order: int = 1) -> np.ndarray:
        spec = np.fft.rfft(rows, axis=1)
        spec *= self._ik[None, :] ** order
        return np.fft.irfft(spec, n=self.n_phi, axis=1)
