"""FCC shell enumeration and cluster construction.

The independent oracle here deliberately uses a different parametrization
from the implementation: the conventional cubic cell of edge a = d*sqrt(2)
with its four-point basis, enumerated by brute force.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsolid import LatticeKind, LatticeShells, build_cluster, enumerate_shells
from test_contract import cases_test

SQ2 = math.sqrt(2.0)


def fcc_conventional_points(d, radius):
    """All FCC points with 0 < |x| <= radius, via the cubic cell + basis."""
    a = d * SQ2
    basis = np.array([[0, 0, 0], [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
    nmax = int(math.ceil(radius / a)) + 1
    grid = np.arange(-nmax, nmax + 1)
    i, j, k = np.meshgrid(grid, grid, grid, indexing="ij")
    cells = np.stack([i, j, k], axis=-1).reshape(-1, 3).astype(float)
    pts = (cells[:, None, :] + basis[None, :, :]).reshape(-1, 3) * a
    r = np.linalg.norm(pts, axis=1)
    keep = (r > 1e-12) & (r <= radius * (1 + 1e-12))
    return pts[keep], r[keep]


def test_first_four_shells():
    shells = enumerate_shells(LatticeKind.FCC, 1.0, 2.1)
    dists = [s[0] for s in shells.shells]
    counts = [s[1] for s in shells.shells]
    assert counts == [12, 6, 24, 12]
    np.testing.assert_allclose(dists, [1.0, SQ2, math.sqrt(3.0), 2.0],
                               rtol=0, atol=1e-12)


def test_single_shell_cases():
    assert enumerate_shells(LatticeKind.FCC, 1.0, 1.0).shells == ((1.0, 12),)
    shells = enumerate_shells(LatticeKind.FCC, 2.0, 2.0)
    assert len(shells.shells) == 1
    assert shells.shells[0][0] == pytest.approx(2.0, abs=1e-12)
    assert shells.shells[0][1] == 12


def test_shell_counts_match_conventional_cell_enumeration():
    # cumulative shell population inside (0, R] against the cubic-cell oracle
    rng = np.random.default_rng(7)
    d = 1.0
    shells = enumerate_shells(LatticeKind.FCC, d, 6.5 * d)
    dist = np.array(shells.distances_r)
    cnt = np.array(shells.counts_c)
    for radius in rng.uniform(1.0, 6.3, size=50):
        _, r = fcc_conventional_points(d, radius)
        assert int(cnt[dist <= radius * (1 + 1e-12)].sum()) == r.size


def test_distances_scale_with_d_counts_do_not():
    a = enumerate_shells(LatticeKind.FCC, 1.0, 4.0)
    b = enumerate_shells(LatticeKind.FCC, 2.7, 2.7 * 4.0)
    np.testing.assert_array_equal(a.counts_c, b.counts_c)
    np.testing.assert_allclose(b.distances_r, 2.7 * a.distances_r, rtol=1e-13)
    # scaled() must agree with a fresh enumeration
    np.testing.assert_allclose(a.scaled(2.7).distances_r, b.distances_r,
                               rtol=1e-13)


@given(d=st.floats(min_value=0.3, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_scaled_is_one_multiply_of_the_unit_distances(d):
    unit = enumerate_shells(LatticeKind.FCC, 1.0, 12.0)
    shells = unit.scaled(d)
    assert shells.spacing_d == d
    assert shells.distances_r.tolist() == (unit.distances_r * d).tolist()
    assert shells.counts_c is unit.counts_c


def test_shell_arrays_are_read_only():
    shells = enumerate_shells(LatticeKind.FCC, 1.0, 4.0)
    for arr in (shells.distances_r, shells.counts_c,
                shells.scaled(1.3).distances_r):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert shells.counts_c.dtype == np.int64


def test_scaled_shares_counts_and_weights_and_still_checks_the_spacing():
    # scaled() skips __post_init__: its arrays are the unit shells' own,
    # and it makes only the new distances; its spacing check is a
    # test_contract row
    unit = enumerate_shells(LatticeKind.FCC, 1.0, 12.0)
    shells = unit.scaled(1.0978)
    assert shells.counts_c is unit.counts_c
    assert shells.weights is unit.weights
    assert shells.spacing_d == 1.0978
    assert unit.weights.dtype == np.float64
    assert unit.weights.tolist() == (0.5 * unit.counts_c).tolist()
    for arr in (unit.weights, shells.distances_r):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_shells_from_caller_arrays_are_private_copies():
    r = np.array([1.0, math.sqrt(2.0)])
    c = np.array([12, 6])
    shells = LatticeShells(1.0, r, c)
    r[0] = 5.0
    assert shells.shells == ((1.0, 12), (math.sqrt(2.0), 6))
    with pytest.raises(ValueError):
        LatticeShells(1.0, r, c[:1])


@given(d=st.floats(min_value=0.05, max_value=50.0),
       factor=st.floats(min_value=1.0, max_value=8.0))
@settings(max_examples=40, deadline=None)
def test_shell_invariants(d, factor):
    shells = enumerate_shells(LatticeKind.FCC, d, factor * d)
    dists = shells.distances_r
    assert dists[0] == pytest.approx(d, rel=1e-12)
    assert all(c >= 1 for c in shells.counts_c)
    assert all(y > x for x, y in zip(dists, dists[1:]))


test_enumerate_shells_rejects_bad_arguments = cases_test(
    "test_enumerate_shells_rejects_bad_arguments")


def test_cluster_n1_is_origin():
    c = build_cluster(1.0, 1)
    assert c.shape == (1, 3)
    np.testing.assert_allclose(c, [[0.0, 0.0, 0.0]], atol=1e-12)


def test_cluster_n2():
    c = build_cluster(1.0, 2)
    assert c.shape == (2, 3)
    assert np.linalg.norm(c[0] - c[1]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(c.mean(axis=0), 0.0, atol=1e-9)


def test_cluster_n13_is_origin_plus_nearest_shell():
    c = build_cluster(1.0, 13)
    # the 12-site nearest shell is symmetric, so the centroid was already 0
    # and the central site survives at the origin
    r = np.linalg.norm(c, axis=1)
    assert np.sum(r < 1e-9) == 1
    np.testing.assert_allclose(np.sort(r)[1:], 1.0, atol=1e-12)


def test_cluster_201_contains_ten_complete_shells():
    # 1 + 12 + 6 + 24 + 12 + 24 + 8 + 48 + 6 + 36 + 24 = 201: the cluster
    # ends exactly at a shell boundary, so no tie-splitting is involved.
    c = build_cluster(1.0, 201)
    r = np.linalg.norm(c, axis=1)
    assert np.sum(r < 1e-9) == 1
    shells = enumerate_shells(LatticeKind.FCC, 1.0, math.sqrt(10.0) + 1e-9)
    expected = np.sort(np.repeat(shells.distances_r, shells.counts_c))
    np.testing.assert_allclose(np.sort(r)[1:], expected, atol=1e-9)
    assert expected.size == 200


@pytest.mark.parametrize("N", [1, 2, 5, 13, 87, 201])
def test_cluster_invariants(N):
    c = build_cluster(0.9, N)
    assert c.shape == (N, 3) and c.dtype == np.float64
    np.testing.assert_allclose(c.mean(axis=0), 0.0, atol=1e-9)
    with pytest.raises(ValueError):  # read-only, as the shells' arrays are
        c[0, 0] = 1.0
    if N > 1:
        diff = c[:, None, :] - c[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 0.9 - 1e-9


def test_cluster_is_chosen_in_units_of_the_spacing():
    # the start radius d (...) once overflowed before math.ceil at d = 1e308,
    # a bare OverflowError; the sites are picked at d = 1 and scaled last.
    # Five sites at 1e308, whose centroid leaves the doubles, are a
    # test_contract row
    np.testing.assert_array_equal(build_cluster(1e308, 1), [[0.0, 0.0, 0.0]])
    for d in (1e-200, 1e100):
        np.testing.assert_allclose(build_cluster(d, 43) / d, build_cluster(1.0, 43),
                                   rtol=1e-15, atol=1e-15)


def test_cluster_deterministic_tie_breaking():
    # N = 5 cuts into the 12-fold shell; the selection must still be stable
    a = build_cluster(1.0, 5)
    b = build_cluster(1.0, 5)
    np.testing.assert_array_equal(a, b)


test_cluster_rejects_nonpositive_n = cases_test("test_cluster_rejects_nonpositive_n")
