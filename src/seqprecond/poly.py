"""Monic polynomial coefficient vectors used to precondition sequences.

Coefficients are generated by exact integer/rational recurrences and
converted to floats once, at the boundary.  A coefficient vector
``c = (c_0, ..., c_n)`` is stored in descending powers, so it represents
``p(x) = c_0 x^n + c_1 x^{n-1} + ... + c_n`` with ``c_0 = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Beyond this degree the exact recurrences still work (Python ints do not
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


def chebyshev_exact(n: int) -> list[Fraction]:
    """Exact coefficients of the monic Chebyshev polynomial T_n / 2^(n-1).

    Uses the integer three-term recurrence T_{k+1} = 2 x T_k - T_{k-1};
    the single rational division happens at the end.
    """
    _check_degree(n)
    if n == 0:
        return [Fraction(1)]
    prev, cur = [1], [1, 0]  # T_0, T_1 in descending powers
    for _ in range(2, n + 1):
        nxt = [2 * c for c in cur] + [0]
        for i, c in enumerate(prev):
            nxt[i + 2] -= c
        prev, cur = cur, nxt
    scale = Fraction(1, 2 ** (n - 1))
    return [c * scale for c in cur]


def legendre_exact(n: int) -> list[Fraction]:
    """Exact coefficients of the monic Legendre polynomial.

    Bonnet recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, carried out
    in rationals, then normalized by the leading coefficient.
    """
    _check_degree(n)
    if n == 0:
        return [Fraction(1)]
    prev, cur = [Fraction(1)], [Fraction(1), Fraction(0)]
    for k in range(1, n):
        nxt = [Fraction(2 * k + 1, k + 1) * c for c in cur] + [Fraction(0)]
        for i, c in enumerate(prev):
            nxt[i + 2] -= Fraction(k, k + 1) * c
        prev, cur = cur, nxt
    lead = cur[0]
    return [c / lead for c in cur]


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
    """Evaluate p at complex z (scalar or array) by Horner's nested scheme."""
    coeffs = as_coeff_array(c)
    zz = np.asarray(z, dtype=complex)
    acc = np.full(zz.shape, complex(coeffs[0]))
    for ck in coeffs[1:]:
        acc = acc * zz + ck
    if np.isscalar(z) or zz.shape == ():
        return complex(acc)
    return acc


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
