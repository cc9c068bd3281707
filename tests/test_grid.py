import numpy as np
import pytest

from persuade_ot import DegenerateMeasureError, DensitySpec, build_grid, discretize_density


def test_resolution_two_unit_square():
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), 2)
    expected = np.array([(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)])
    assert np.allclose(grid.centers, expected)
    assert np.allclose(grid.masses, 0.25)


def test_resolution_256_spacing():
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), 256)
    assert grid.centers.shape == (65536, 2)
    assert grid.spacing == (1.0 / 256, 1.0 / 256)


def test_scaled_bounds():
    grid = build_grid(((0.0, 2.0), (0.0, 2.0)), 4)
    assert grid.centers.shape == (16, 2)
    assert np.allclose(grid.centers[0], (0.25, 0.25))
    assert grid.spacing == (0.5, 0.5)


def test_bad_resolution_rejected():
    with pytest.raises(ValueError):
        build_grid(((0.0, 1.0), (0.0, 1.0)), 0)
    with pytest.raises(ValueError):
        build_grid(((0.0, 1.0), (0.0, 1.0)), -3)


def test_degenerate_bounds_rejected():
    with pytest.raises(ValueError):
        build_grid(((0.5, 0.5), (0.0, 1.0)), 8)
    with pytest.raises(ValueError):
        build_grid(((0.0, 1.0), (1.0, 0.0)), 8)
    # a width that is infinite, overflows or is nan
    for bounds in [((-np.inf, 2.0), (0.0, 2.0)), ((-1e308, 1e308), (0.0, 1.0)),
                   ((0.0, 1.0), (0.0, np.nan))]:
        with pytest.raises(ValueError):
            build_grid(bounds, 4)


def test_uniform_discretization_equal_masses():
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), 2))
    assert np.allclose(grid.masses, 0.25)
    assert abs(grid.masses.sum() - 1.0) < 1e-12


def test_linear_density_midpoint_rule():
    # density(x, y) = x at resolution 2: raw cell masses .25*(0.25, 0.75, 0.25, 0.75)
    spec = DensitySpec("callable", density=lambda pts: pts[:, 0])
    grid = discretize_density(spec, build_grid(((0.0, 1.0), (0.0, 1.0)), 2))
    assert np.allclose(grid.masses, (0.125, 0.375, 0.125, 0.375))


def test_table_domain_uniform():
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.25, 2.0), (0.25, 2.0)), 64))
    assert np.allclose(grid.masses, grid.masses[0])
    assert abs(grid.masses.sum() - 1.0) < 1e-12


def test_zero_density_raises():
    spec = DensitySpec("callable", density=lambda pts: np.zeros(len(pts)))
    with pytest.raises(DegenerateMeasureError):
        discretize_density(spec, build_grid(((0.0, 1.0), (0.0, 1.0)), 4))


def test_normalization_random_densities():
    rng = np.random.default_rng(7)
    base = build_grid(((0.0, 1.0), (0.0, 1.0)), 16)
    for _ in range(10):
        c = rng.uniform(0.2, 0.8, size=2)
        spec = DensitySpec("callable", density=lambda pts, c=c: 1.0 + ((pts - c) ** 2).sum(axis=1))
        grid = discretize_density(spec, base)
        assert abs(grid.masses.sum() - 1.0) < 1e-12


def test_uniform_barycenter_every_resolution():
    for res in (1, 2, 5, 32, 101):
        grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), res))
        assert np.allclose(grid.barycenter, (0.5, 0.5), atol=1e-12)


def test_subrectangle_mass_refinement():
    # mass of [0, 0.3]x[0, 1] under uniform: error shrinks about linearly in h
    errs = []
    for res in (16, 32, 64, 128):
        grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), res))
        inside = grid.centers[:, 0] <= 0.3
        errs.append(abs(grid.masses[inside].sum() - 0.3))
    assert errs[-1] <= errs[0]
    assert errs[-1] < 1.0 / 128


def test_first_moments_formed_once_and_read_only():
    spec = DensitySpec("callable", lambda p: 1.0 + p[:, 0] * p[:, 1])
    grid = discretize_density(spec, build_grid(((-1.0, 2.0), (0.5, 1.25)), 7))
    nu_x, nu_y = grid.first_moments
    assert not (nu_x.flags.writeable or nu_y.flags.writeable)
    assert np.array_equal(nu_x, grid.masses * grid.centers[:, 0])
    assert np.array_equal(nu_y, grid.masses * grid.centers[:, 1])
