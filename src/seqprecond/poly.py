"""Monic polynomial coefficient vectors used to precondition sequences.

Each family is one exact three-term recurrence in rationals,
p_{k+1} = x p_k - gamma_k p_{k-1}, whose coefficients gamma_k alone
identify it; the result is converted to floats once, at the boundary.
A coefficient vector ``c = (c_0, ..., c_n)`` is stored in descending
powers, so it represents ``p(x) = c_0 x^n + c_1 x^{n-1} + ... + c_n``
with ``c_0 = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Beyond this degree the exact recurrence still works (Python ints do not
# overflow) but the float conversion loses the coefficients' dyadic
# structure and downstream convolutions are numerically meaningless.
MAX_DEGREE = 60

# Grid rows per block of sup_on_sector: 16 rows of the default 513 angles
# keep each complex array of Horner's scheme at 131 KB
_RADII = 16


@dataclass(frozen=True)
class CoefficientVector:
    """Monic coefficient vector in descending powers, c[0] == 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficient vector contains non-finite entries")
        if arr[0] != 1.0:
            raise ValueError(f"monic violation: c[0] = {arr[0]!r}, expected exactly 1")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def l1(self) -> float:
        return float(np.abs(self.coeffs).sum())

    def __len__(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class ComplexSector:
    """Sector {z : |z| <= 1, |arg z| <= beta} of the closed unit disk."""

    beta: float

    def __post_init__(self):
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"sector half-angle must lie in [0, 1], got {self.beta}")


def _check_degree(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")


def _monic(n: int, gamma) -> list[Fraction]:
    """Exact coefficients of the monic orthogonal polynomial of degree n
    whose family has recurrence coefficients gamma(k): p_0 = 1, p_1 = x,
    p_{k+1} = x p_k - gamma(k) p_{k-1}."""
    _check_degree(n)
    prev, cur = [], [Fraction(1)]  # p_{-1} = 0 and p_0
    for k in range(n):
        nxt, g = cur + [Fraction(0)], gamma(k)
        for i, c in enumerate(prev):
            nxt[i + 2] -= g * c
        prev, cur = cur, nxt
    return cur


def chebyshev_exact(n: int) -> list[Fraction]:
    """Exact coefficients of the monic Chebyshev polynomial T_n / 2^(n-1),
    with gamma_1 = 1/2 and gamma_k = 1/4 for k >= 2."""
    return _monic(n, lambda k: Fraction(1, 2 if k == 1 else 4))


def legendre_exact(n: int) -> list[Fraction]:
    """Exact coefficients of the monic Legendre polynomial, with
    gamma_k = k^2 / (4 k^2 - 1)."""
    return _monic(n, lambda k: Fraction(k * k, 4 * k * k - 1))


def _to_vector(exact: list[Fraction]) -> CoefficientVector:
    return CoefficientVector(np.array([float(c) for c in exact]))


def chebyshev_monic(n: int) -> CoefficientVector:
    """Monic Chebyshev coefficient vector of degree n."""
    return _to_vector(chebyshev_exact(n))


def legendre_monic(n: int) -> CoefficientVector:
    """Monic Legendre coefficient vector of degree n."""
    return _to_vector(legendre_exact(n))


def differencing() -> CoefficientVector:
    """First-order differencing preset, p(x) = x - 1."""
    return CoefficientVector(np.array([1.0, -1.0]))


def as_coeff_array(c) -> np.ndarray:
    """Accept a CoefficientVector or a raw sequence; return a float array."""
    if isinstance(c, CoefficientVector):
        return c.coeffs
    return CoefficientVector(np.asarray(c, dtype=float)).coeffs


def eval_complex(c, z):
    """Evaluate p at complex z (scalar or array) by Horner's scheme, `np.polyval`."""
    acc = np.polyval(as_coeff_array(c), np.asarray(z, dtype=complex))
    return complex(acc) if np.ndim(acc) == 0 else acc


def sector_grid(sector: ComplexSector, grid_density: int = 512, radii=slice(None)) -> np.ndarray:
    """Polar grid on the sector with grid_density subdivisions per axis, or
    the rows of it at the radii that `radii` selects.

    Radii are i/density and angles are beta * (2 j / density - 1), so the
    grid at density d is an exact subset of the grid at any multiple of d;
    suprema over refined grids are therefore monotone.
    """
    if grid_density < 1:
        raise ValueError("grid_density must be >= 1")
    d = int(grid_density)
    r = np.arange(d + 1) / d
    theta = sector.beta * (2 * np.arange(d + 1) / d - 1)
    return r[radii, None] * np.exp(1j * theta[None, :])


def sup_on_sector(c, sector: ComplexSector, grid_density: int = 512) -> float:
    """Max of |p(z)| over a polar grid of the sector, _RADII radii at a time."""
    # below density 1, one block, which sector_grid refuses
    starts = range(0, max(int(grid_density), 0) + 1, _RADII)
    blocks = (sector_grid(sector, grid_density, slice(i, i + _RADII)) for i in starts)
    # np.max, unlike max, keeps a NaN wherever it lies
    return float(np.max([np.abs(eval_complex(c, z)).max() for z in blocks]))
