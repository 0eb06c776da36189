import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hclab import microgeometry as mg


def test_central_block_volume():
    cell = mg.builtin_cell("block4")
    assert cell.vol_soft == Fraction(1, 4)
    assert cell.vol_stiff == Fraction(3, 4)
    assert cell.vol_soft + cell.vol_stiff == 1


def test_full_column_disconnects_2d():
    mask = np.zeros((4, 4), dtype=bool)
    mask[:, 1] = True
    with pytest.raises(mg.DisconnectedMatrix):
        mg.build_unit_cell(mask)


def test_fiber_3d_accepted():
    # a full-height soft column leaves the 3d complement connected
    cell = mg.builtin_cell("fiber3d")
    assert cell.dim == 3
    assert cell.vol_soft == Fraction(1, 4)


def test_all_soft_rejected_all_stiff_degenerate():
    with pytest.raises(mg.EmptyPhase):
        mg.build_unit_cell(np.ones((4, 4), dtype=bool))
    cell = mg.build_unit_cell(np.zeros((4, 4), dtype=bool))
    assert cell.degenerate


def test_a_cell_is_its_mask():
    """The mask is the cell's one field; its dimension, resolution, volumes
    and degeneracy are read off it, and cells hash by identity."""
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:3, 1:3, :] = True
    cell = mg.build_unit_cell(mask)
    assert [f.name for f in dataclasses.fields(mg.CellGeometry)] == ["soft_mask"]
    assert (cell.dim, cell.resolution, cell.vol_soft, cell.vol_stiff, cell.degenerate) == (
        3, 5, Fraction(4, 25), Fraction(21, 25), False)
    assert not cell.soft_mask.flags.writeable
    twin = mg.build_unit_cell(mask.copy())
    assert twin != cell and len({cell, twin}) == 2


def test_build_unit_cell_copies_the_callers_mask():
    """The cell's mask is a read-only copy: the caller's array stays
    writable, and editing it leaves the cell alone."""
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    cell = mg.build_unit_cell(mask)
    mask[0, 0] = True
    assert not cell.soft_mask[0, 0] and cell.soft_pixel_count == 4
    assert not cell.soft_mask.flags.writeable


def test_bad_mask_shape():
    with pytest.raises(mg.GeometryError):
        mg.build_unit_cell(np.zeros((4, 3), dtype=bool))
    with pytest.raises(mg.GeometryError):
        mg.build_unit_cell(np.zeros((4, 4, 4, 4), dtype=bool))


def test_mask_file_roundtrip(tmp_path):
    for name in ("block4", "fiber3d"):
        cell = mg.builtin_cell(name)
        path = tmp_path / f"{name}.mask"
        mg.save_cell_mask(path, cell)
        loaded = mg.load_cell_mask(path)
        assert loaded.dim == cell.dim
        assert np.array_equal(loaded.soft_mask, cell.soft_mask)


@pytest.mark.parametrize("text", ["", "2\n", "x 4\n", "4 2\n00\n00\n", "2 4\n0000\n0110\n",
                                  "2 2\n00\n000\n", "2 2\n0\n00\n",
                                  "2 2\n0x\n00\n"])  # only 0 and 1 are pixels
def test_malformed_mask_file_is_a_geometry_error(tmp_path, text):
    path = tmp_path / "bad.mask"
    path.write_text(text)
    with pytest.raises(mg.GeometryError):
        mg.load_cell_mask(path)


def _boundary_distance(corners, n, m):
    """Exact distance of a set of lattice corners (units 1/(n*m)) to the
    boundary of (0,1)^d: min over axes of the lowest and the highest corner,
    each as a Fraction."""
    denom = n * m
    return min(min(Fraction(int(low), denom), Fraction(denom - int(high), denom))
               for low, high in zip(corners.min(axis=1), corners.max(axis=1)))


def _admitted_by_enumeration(cell, n, strip):
    """Independent oracle: per cell t in np.ndindex order, the exact rational
    distance of the corners of the translated soft pixels, and of the whole
    cell cube, compared with strip/n.  Returns (translations,
    translations_hat, soft_field), or NoInclusions."""
    d, m = cell.dim, cell.resolution
    threshold = Fraction(strip) / n
    soft_corners = np.array([idx + np.array(corner) for idx in np.argwhere(cell.soft_mask)
                             for corner in np.ndindex((2,) * d)]).reshape(-1, d)
    cube_corners = np.array(list(np.ndindex((2,) * d))) * m
    translations, hat = [], []
    for t in np.ndindex((n,) * d):
        base = np.asarray(t) * m
        if len(soft_corners) and _boundary_distance((base + soft_corners).T, n, m) > threshold:
            translations.append(t)
        if _boundary_distance((base + cube_corners).T, n, m) > threshold:
            hat.append(t)
    if not cell.degenerate and not translations:
        return mg.NoInclusions
    soft_field = np.zeros((n * m,) * d, dtype=bool)
    for t in translations:
        soft_field[tuple(slice(ti * m, (ti + 1) * m) for ti in t)] = cell.soft_mask
    return tuple(translations), tuple(hat), soft_field


def _off_centre_cells():
    """Inclusions whose bounding boxes sit unevenly in the cell, so that the
    low and high margins differ along every axis."""
    mask2 = np.zeros((5, 5), dtype=bool)
    mask2[1:3, 2] = mask2[2, 3] = True  # box [1, 3) x [2, 4)
    mask3 = np.zeros((5, 5, 5), dtype=bool)
    mask3[0:2, 1, 2] = mask3[1, 2, 2:4] = True  # box [0, 2) x [1, 3) x [2, 4)
    return [mg.build_unit_cell(mask2), mg.build_unit_cell(mask3)]


def test_translation_set_matches_enumeration_oracle():
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    assert len(domain.translations) == 4  # the 2x2 interior cells
    cells = [mg.builtin_cell(name) for name in ("block4", "block8", "stiff4", "fiber3d")] + _off_centre_cells()
    # strip * m is an integer for most pairs here: the equality edge, where dist == strip * eps is refused
    for cell in cells:
        for n in range(2, 9):
            for strip in (0.125, 0.25, 0.3, 0.5, 1.0, 2.0):
                oracle = _admitted_by_enumeration(cell, n, strip)
                if oracle is mg.NoInclusions:
                    with pytest.raises(mg.NoInclusions):
                        mg.build_micro_domain(cell, n, strip=strip)
                    continue
                domain = mg.build_micro_domain(cell, n, strip=strip)
                assert domain.translations == oracle[0], (cell.soft_mask, n, strip)
                assert domain.translations_hat == oracle[1], (cell.soft_mask, n, strip)
                assert all(type(i) is int for t in domain.translations + domain.translations_hat for i in t)
                assert domain.soft_field.dtype == bool
                assert np.array_equal(domain.soft_field, oracle[2])


def test_non_finite_strip_is_a_geometry_error():
    cell = mg.builtin_cell("block4")
    for strip in (math.inf, math.nan):
        with pytest.raises(mg.GeometryError, match="finite"):
            mg.build_micro_domain(cell, 4, strip=strip)


def test_no_inclusions_when_strip_too_wide():
    cell = mg.builtin_cell("block4")
    with pytest.raises(mg.NoInclusions):
        mg.build_micro_domain(cell, 2, strip=2.0)


def test_soft_pixel_count_consistency():
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 6, strip=0.5)
    count = int(domain.soft_field.sum())
    assert count == len(domain.translations) * cell.soft_pixel_count


def test_exact_soft_measure():
    cell = mg.builtin_cell("block4")
    for n in (4, 8, 16):
        domain = mg.build_micro_domain(cell, n, strip=0.5)
        # independent rational oracle from the global pixel count
        pixels = Fraction(int(domain.soft_field.sum()), domain.n_el**2)
        assert domain.measure_soft() == pixels
        assert domain.measure_soft() == len(domain.translations) * Fraction(1, n**2) * cell.vol_soft


def test_hat_cells_measure_order_eps():
    cell = mg.builtin_cell("block4")
    ratios = []
    for n in (4, 8, 16):
        domain = mg.build_micro_domain(cell, n, strip=0.5)
        ratios.append(float(domain.measure_outside_hat()) * n)
    # measure(Omega \ Omega_hat) <= C eps with C stable across the sweep
    assert max(ratios) <= 2.0 * min(ratios)


def test_phase_indicator_basics():
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    # within the boundary strip everything is stiff
    assert mg.phase_indicator(domain, 1, [0.01, 0.5]) == 1
    assert mg.phase_indicator(domain, 0, [0.01, 0.5]) == 0
    # center of an admitted inclusion pixel
    assert mg.phase_indicator(domain, 0, [0.375, 0.375]) == 1
    for point in ([1.5, 0.5], [math.nan, 0.5], [0.5, math.nan]):  # NaN must fail the range test
        with pytest.raises(mg.OutOfDomain):
            mg.phase_indicator(domain, 0, point)
    with pytest.raises(mg.GeometryError):
        mg.phase_indicator(domain, 2, [0.5, 0.5])


@settings(max_examples=30, derandomize=True)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_indicators_partition(x0, x1):
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    p = [x0, x1]
    assert mg.phase_indicator(domain, 0, p) + mg.phase_indicator(domain, 1, p) == 1


@settings(max_examples=30, derandomize=True)
@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_periodicity_in_admitted_cells(x0, x1):
    """chi0 equals the unit-cell mask lookup of the rescaled coordinate."""
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    p = np.array([x0, x1])
    t = tuple(np.minimum((p * 4).astype(int), 3))
    if t not in domain.translations:
        return
    z = p * 4 - np.asarray(t)
    pix = tuple(np.minimum((z * cell.resolution).astype(int), cell.resolution - 1))
    assert mg.phase_indicator(domain, 0, p) == int(cell.soft_mask[pix])


def test_cell_integral_of_indicator():
    """Sum of chi0 times pixel volume over one admitted cell = eps^d vol_soft."""
    cell = mg.builtin_cell("block4")
    domain = mg.build_micro_domain(cell, 4, strip=0.5)
    t = domain.translations[0]
    m, n = cell.resolution, 4
    total = Fraction(0)
    for p in np.ndindex((m, m)):
        x = (np.asarray(t) + (np.asarray(p) + 0.5) / m) / n
        total += mg.phase_indicator(domain, 0, x) * Fraction(1, (n * m) ** 2)
    assert total == Fraction(1, n**2) * cell.vol_soft
