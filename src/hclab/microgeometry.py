"""Periodicity-cell partition and the eps-scale perforated composite.

The unit cell Q = (0,1)^d is split into a soft pixel set (the inclusion) and
its stiff complement (the matrix).  Tiling the stiff pixels over Z^d must give
a connected set; this is the one geometric requirement the energies rely on.
At scale eps = 1/n the inclusion is copied into every cell of Omega = (0,1)^d
whose copy keeps a safety strip of width `strip * eps` from the boundary, so
the matrix always owns a full collar along the boundary of Omega.

Everything is pixel-exact: volumes are rationals, the phase of a point is a
pixel lookup, and grids downstream place nodes at pixel corners so that
phase-weighted quadrature is exact with respect to the geometry, and the
phase of each grid element is ``MicroDomain.soft_elements``.

A cell is its mask: ``build_unit_cell(soft_mask)`` validates the mask, and
the cell's dimension, resolution, volumes and degeneracy are read off it.
The high contrast, eps multiplying grad y on soft elements and 1 on stiff
ones, is stated once, as ``MicroDomain.contrast``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from hclab.fields import Grid


class GeometryError(ValueError):
    """Base class for microstructure construction failures."""


class DisconnectedMatrix(GeometryError):
    """The stiff phase (or its periodic extension) is not connected."""


class EmptyPhase(GeometryError):
    """The mask leaves no stiff phase at all."""


class NoInclusions(GeometryError):
    """No translated inclusion fits inside the boundary strip."""


class OutOfDomain(GeometryError):
    """A point query fell outside the closed unit domain."""


def _connected(mask: np.ndarray) -> bool:
    """Flood fill with face adjacency; True if the True-pixels form one component."""
    total = int(mask.sum())
    if total == 0:
        return False
    start = tuple(int(i) for i in np.argwhere(mask)[0])
    seen = np.zeros_like(mask, dtype=bool)
    seen[start] = True
    queue = deque([start])
    count = 1
    shape = mask.shape
    dim = mask.ndim
    while queue:
        pix = queue.popleft()
        for axis in range(dim):
            for step in (-1, 1):
                nxt = list(pix)
                nxt[axis] += step
                if not 0 <= nxt[axis] < shape[axis]:
                    continue
                nxt = tuple(nxt)
                if mask[nxt] and not seen[nxt]:
                    seen[nxt] = True
                    count += 1
                    queue.append(nxt)
    return count == total


@dataclass(frozen=True, eq=False)
class CellGeometry:
    """Unit periodicity cell: pixel partition into soft inclusion and stiff matrix.

    ``soft_mask[i0, ..., i_{d-1}]`` is True when the pixel with low corner
    ``(i0, ..., i_{d-1}) / resolution`` belongs to the soft phase.  The mask
    is the cell: its dimension, resolution, exact rational volumes (pixel
    counts over ``resolution**dim``) and whether it is degenerate (no soft
    pixel) are read off it, the last three computed once.  Cells compare
    and hash by identity, so a cell can key the caches of its cell problems.
    """

    soft_mask: np.ndarray

    def __post_init__(self):
        self.soft_mask.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.soft_mask.ndim

    @property
    def resolution(self) -> int:
        return self.soft_mask.shape[0]

    @property
    def soft_pixel_count(self) -> int:
        return int(self.soft_mask.sum())

    @cached_property
    def vol_soft(self) -> Fraction:
        return Fraction(self.soft_pixel_count, self.soft_mask.size)

    @cached_property
    def vol_stiff(self) -> Fraction:
        return 1 - self.vol_soft

    @cached_property
    def degenerate(self) -> bool:
        return not self.soft_mask.any()


def build_unit_cell(soft_mask) -> CellGeometry:
    """Validate a pixel mask and return the periodicity cell.

    The mask must be a square (2D) or cube (3D) of pixels.  The stiff set
    must be edge-connected inside the cell and its periodic extension must
    be connected, which is checked on a 3^d block of copies.  An all-soft
    mask is rejected; an all-stiff mask is accepted and flagged degenerate
    (homogeneous control medium).  The cell keeps a read-only copy of the
    mask, so the caller's array stays writable and later edits to it do not
    reach the cell.
    """
    mask = np.array(soft_mask, dtype=bool)
    if mask.ndim not in (2, 3):
        raise GeometryError(f"dim must be 2 or 3, got {mask.ndim}")
    if len(set(mask.shape)) != 1:
        raise GeometryError(f"mask shape {mask.shape} does not have equal sides")
    stiff = ~mask
    if not stiff.any():
        raise EmptyPhase("soft mask is all-true: no stiff matrix left")
    if mask.any():
        if not _connected(stiff):
            raise DisconnectedMatrix("stiff phase is not edge-connected within the cell")
        tiled = np.tile(stiff, (3,) * mask.ndim)
        if not _connected(tiled):
            raise DisconnectedMatrix("periodic extension of the stiff phase is disconnected (3^d tiling test)")
    return CellGeometry(soft_mask=mask)


def builtin_cell(name: str) -> CellGeometry:
    """Construct one of the named stock geometries.

    block4   2D, m=4, centered 2x2 soft block (|soft| = 1/4)
    block8   2D, m=8, centered 4x4 soft block (|soft| = 1/4)
    stiff4   2D, m=4, no inclusion (degenerate homogeneous control)
    fiber3d  3D, m=4, full-height 2x2 soft column (connected complement)
    """
    if name == "block4":
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        return build_unit_cell(mask)
    if name == "block8":
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 2:6] = True
        return build_unit_cell(mask)
    if name == "stiff4":
        return build_unit_cell(np.zeros((4, 4), dtype=bool))
    if name == "fiber3d":
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[1:3, 1:3, :] = True
        return build_unit_cell(mask)
    raise GeometryError(f"unknown builtin cell {name!r}")


def load_cell_mask(path) -> CellGeometry:
    """Read the ASCII mask format: first line "d m", then the 0/1 grid.

    For d=2 there follow m lines of m characters; for d=3, m blocks of m lines
    separated by blank lines.  '1' marks a soft pixel and '0' a stiff one;
    any other character, or a file that is not text, is a GeometryError.  The
    first data line is the low-corner row (row-major, origin at the low
    corner).  A file that cannot be read raises the OSError of the read.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise GeometryError(f"mask file {path} is not text: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines:
        raise GeometryError(f"empty mask file {path}")
    head = lines[0].split()
    if len(head) != 2 or head[0] not in ("2", "3") or not head[1].isdigit():
        raise GeometryError(f"bad header {lines[0]!r}: expected 'd m' with d = 2 or 3")
    dim, m = int(head[0]), int(head[1])
    rows = [(number, ln) for number, ln in enumerate(lines[1:], start=2) if ln != ""]
    expected = m if dim == 2 else m * m
    if len(rows) != expected:
        raise GeometryError(f"expected {expected} data lines, found {len(rows)}")
    for number, ln in rows:
        if len(ln) != m or set(ln) - {"0", "1"}:
            raise GeometryError(f"line {number} {ln!r}: data lines must have {m} characters, each 0 or 1")
    mask = np.array([[ch == "1" for ch in ln] for _, ln in rows], dtype=bool).reshape((m,) * dim)
    return build_unit_cell(mask)


def save_cell_mask(path, cell: CellGeometry) -> None:
    """Write the ASCII mask format (inverse of load_cell_mask)."""
    lines = [f"{cell.dim} {cell.resolution}"]
    flat = cell.soft_mask.reshape(-1, cell.resolution)
    block = cell.resolution if cell.dim == 3 else len(flat)
    for i, row in enumerate(flat):
        if cell.dim == 3 and i > 0 and i % block == 0:
            lines.append("")
        lines.append("".join("1" if b else "0" for b in row))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class MicroDomain:
    """The eps-scale composite on Omega = (0,1)^d.

    ``translations`` are the integer cell indices whose inclusion copy clears
    the boundary strip, ``translations_hat`` those whose *entire cell cube*
    clears it (used by unfolding-restricted constructions).  ``soft_field``
    marks the soft pixels of the global ``(n_cells * m)^d`` pixel grid,
    ``soft_elements`` is the same mask flat, in the element order of ``grid``,
    and ``contrast`` the factor of grad y per element.
    """

    cell: CellGeometry
    n_cells: int
    strip: float
    translations: tuple
    translations_hat: tuple
    soft_field: np.ndarray

    def __post_init__(self):
        self.soft_field.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.cell.dim

    @property
    def eps(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_el(self) -> int:
        """Pixels (= elements) per side of the global grid."""
        return self.n_cells * self.cell.resolution

    @property
    def soft_elements(self) -> np.ndarray:
        """(E,) read-only phase of each element of ``grid``: True where soft."""
        return self.soft_field.reshape(-1)

    @cached_property
    def contrast(self) -> np.ndarray:
        """(E,) read-only factor of grad y on each element of ``grid``: eps
        where soft, 1 where stiff.  The one statement of the high contrast,
        read by the composite energy (``energies.FixedY``) and its quadratic
        y-step (``minimize._assemble_y_system``)."""
        s = np.where(self.soft_elements, self.eps, 1.0)
        s.setflags(write=False)
        return s

    @cached_property
    def grid(self) -> Grid:
        """The global grid, one element per pixel; built once and shared by
        every field on this domain."""
        return Grid(self.dim, self.n_el)

    def measure_soft(self) -> Fraction:
        """Exact Lebesgue measure of the soft region."""
        return len(self.translations) * self.cell.vol_soft * Fraction(1, self.n_cells**self.dim)

    def measure_stiff(self) -> Fraction:
        return Fraction(1) - self.measure_soft()

    def measure_outside_hat(self) -> Fraction:
        """Exact measure of Omega minus the union of hat-cells."""
        return Fraction(self.n_cells**self.dim - len(self.translations_hat), self.n_cells**self.dim)


def admitted_cells(cell: CellGeometry, n_cells: int, strip: float = 0.5) -> tuple:
    """The admission rule at eps = 1/n_cells: masks (n, ..., n) of the cells
    t with dist(eps*(t + soft set), boundary) > strip*eps, and of those whose
    whole cell clears the strip.  NoInclusions if a cell with an inclusion
    admits none; a degenerate cell (no soft pixels) admits none.

    The test runs in integer pixel units 1/(n*m): for a pixel box [lo, hi) of
    the cell, the distance function min_i min(x_i, 1-x_i) is concave, so its
    minimum over the box, and over any union of pixels with that bounding box,
    is attained at the per-axis extremes, k = min_i min(t_i m + lo_i,
    n m - t_i m - hi_i) pixels.  As k is an integer and Fraction(strip) is the
    float's exact value, k > strip*m is the same as k >= floor(strip*m) + 1,
    with no rounding.  The soft set's box gives the first mask, the whole
    cell's box [0, m) the second.
    """
    if n_cells < 2:
        raise GeometryError(f"n_cells must be >= 2, got {n_cells}")
    if not (strip > 0 and math.isfinite(strip)):
        raise GeometryError(f"strip must be positive and finite, got {strip}")
    d, m = cell.dim, cell.resolution
    need = math.floor(Fraction(strip) * m) + 1
    low = np.moveaxis(np.indices((n_cells,) * d), 0, -1) * m  # (n, ..., n, d): low pixel of each cell

    def clears(lo, hi) -> np.ndarray:
        return np.minimum(low + lo, n_cells * m - low - hi).min(axis=-1) >= need

    soft = np.argwhere(cell.soft_mask)
    admitted = clears(soft.min(axis=0), soft.max(axis=0) + 1) if len(soft) else np.zeros((n_cells,) * d, bool)
    if not cell.degenerate and not admitted.any():
        raise NoInclusions(
            f"no inclusion fits: strip {strip} at eps=1/{n_cells} excludes every cell"
        )
    return admitted, clears(0, m)


def build_micro_domain(cell: CellGeometry, n_cells: int, strip: float = 0.5) -> MicroDomain:
    """Assemble the composite: the translations of ``admitted_cells`` and the
    global phase field.  Both lists of translations are in C order."""
    admitted, hat = admitted_cells(cell, n_cells, strip)
    return MicroDomain(
        cell=cell,
        n_cells=n_cells,
        strip=strip,
        translations=tuple(map(tuple, np.argwhere(admitted).tolist())),
        translations_hat=tuple(map(tuple, np.argwhere(hat).tolist())),
        soft_field=np.kron(admitted, cell.soft_mask),
    )


def phase_indicator(domain: MicroDomain, phase: int, point) -> int:
    """Pointwise indicator chi^phase at a point of the closed unit domain.

    Pixels are half-open except along the top faces, so the indicators of the
    two phases always sum to one.
    """
    if phase not in (0, 1):
        raise GeometryError(f"phase must be 0 (soft) or 1 (stiff), got {phase}")
    x = np.asarray(point, dtype=float)
    if x.shape != (domain.dim,):
        raise GeometryError(f"point must have {domain.dim} coordinates")
    if not ((x >= 0) & (x <= 1)).all():  # NaN fails this test
        raise OutOfDomain(f"point {point} lies outside [0,1]^{domain.dim}")
    n_el = domain.n_el
    idx = np.minimum((x * n_el).astype(int), n_el - 1)
    soft = bool(domain.soft_field[tuple(idx)])
    return int(soft == (phase == 0))
