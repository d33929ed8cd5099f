"""Dyadic frequency decompositions and the smoothness lift on periodic grids.

Functions live on uniform grids over a centered box and are moved to
frequency space with the symmetric transform pair

    hat(f)(xi) = (2pi)**(-n/2) integral exp(-i x xi) f(x) dx,
    inv(g)(x)  = (2pi)**(-n/2) integral exp(+i x xi) g(xi) dxi,

realized by scaled FFTs.  A smooth dyadic resolution of unity splits the
frequency domain into annuli (its plateau function ``phi0`` is the smooth
frequency cutoff of ``fractal_operator``), and multiplying the transform by
(1 + |xi|**2)**(alpha/2) realizes the smoothness lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridFunction",
    "DyadicResolution",
    "build_resolution",
    "lift",
]


class GridFunction:
    """Complex values on a uniform periodic grid over a centered box.

    extent gives the box side per axis; the grid covers
    [-extent/2, extent/2) with shape[i] points along axis i.
    """

    def __init__(self, values: np.ndarray, extent) -> None:
        values = np.asarray(values, dtype=complex)
        if np.isscalar(extent) or np.ndim(extent) == 0:
            extent = (float(extent),) * values.ndim
        extent = tuple(float(e) for e in extent)
        if len(extent) != values.ndim:
            raise ValueError("extent length must match value dimensionality")
        self.values = values
        self.extent = extent

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(e / s for e, s in zip(self.extent, self.shape))

    def freq_axes(self) -> list[np.ndarray]:
        """Angular frequencies per axis in FFT order."""
        return [
            2.0 * math.pi * np.fft.fftfreq(s, d=h)
            for s, h in zip(self.shape, self.spacings)
        ]

    def freq_magnitude(self) -> np.ndarray:
        grids = np.meshgrid(*self.freq_axes(), indexing="ij")
        return np.sqrt(sum(g**2 for g in grids))

    def _phase(self, sign: float) -> np.ndarray:
        # plane-wave factor exp(sign * i * xi * X/2) aligning the FFT's
        # implicit origin with the centered box
        phase = np.zeros(self.shape)
        for axis, (xi, e) in enumerate(zip(self.freq_axes(), self.extent)):
            shape = [1] * self.ndim
            shape[axis] = -1
            phase = phase + (xi * (e / 2.0)).reshape(shape)
        return np.exp(sign * 1j * phase)

    def hat(self) -> np.ndarray:
        """Forward transform on the FFT-ordered frequency grid."""
        n = self.ndim
        vol = np.prod(self.spacings)
        return (
            (2.0 * math.pi) ** (-n / 2.0)
            * vol
            * self._phase(+1.0)
            * np.fft.fftn(self.values)
        )

    @classmethod
    def from_hat(cls, hat_values: np.ndarray, extent) -> "GridFunction":
        """Synthesize grid values from a forward transform."""
        tmp = cls(hat_values, extent)
        n = tmp.ndim
        vol = np.prod(tmp.spacings)
        values = (
            (2.0 * math.pi) ** (n / 2.0)
            / vol
            * np.fft.ifftn(hat_values * tmp._phase(-1.0))
        )
        return cls(values, extent)


def _glue(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) continued by zero, the standard smooth cutoff ingredient."""
    out = np.zeros_like(t, dtype=float)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


@dataclass(frozen=True)
class DyadicResolution:
    """Smooth dyadic resolution of unity on frequency space.

    phi0 equals one inside the unit ball and vanishes outside radius 3/2
    with a symmetric exponential glue; the shell functions
    phi_k(xi) = phi0(xi / 2**k) - phi0(xi / 2**(k-1)) for k >= 1 are
    supported in the annuli 2**(k-1) <= |xi| <= 3 * 2**(k-1) and the
    family sums to one.
    """

    j_max: int

    def __post_init__(self) -> None:
        if self.j_max < 1:
            raise ValueError("need at least one shell")

    def phi0(self, radius: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(radius, dtype=float))
        out = np.ones_like(r)
        out[r >= 1.5] = 0.0
        mid = (r > 1.0) & (r < 1.5)
        u = 2.0 * (r[mid] - 1.0)
        a = _glue(1.0 - u)
        b = _glue(u)
        out[mid] = a / (a + b)
        return out

    def phi(self, j: int, radius: np.ndarray) -> np.ndarray:
        if j == 0:
            return self.phi0(radius)
        if j < 0 or j > self.j_max:
            raise ValueError(f"shell index {j} outside [0, {self.j_max}]")
        r = np.asarray(radius, dtype=float)
        return self.phi0(r / 2.0**j) - self.phi0(r / 2.0 ** (j - 1))

    def partition_residual(self, radius: np.ndarray) -> np.ndarray:
        """|sum_j phi_j - 1| inside the guaranteed-flat region."""
        r = np.asarray(radius, dtype=float)
        total = sum(self.phi(j, r) for j in range(self.j_max + 1))
        return np.abs(total - self.phi0(r / 2.0**self.j_max))


def build_resolution(j_max: int) -> DyadicResolution:
    return DyadicResolution(j_max)


def lift(f: GridFunction, alpha: float) -> GridFunction:
    """Smoothness lift: multiply the transform by (1 + |xi|**2)**(alpha/2).

    Maps smoothness s to s - alpha and is inverted exactly by the opposite
    order, lift(lift(f, a), -a) = f.
    """
    hat = f.hat()
    radius = f.freq_magnitude()
    weight = (1.0 + radius**2) ** (alpha / 2.0)
    return GridFunction.from_hat(hat * weight, f.extent)
