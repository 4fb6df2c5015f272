"""Energy per particle: analytic kinetic term, shell-summed potential, and
the same-site double-occupancy penalty W."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from varsolid import (DEGENERACY_WINDOW, LatticeKind, OrbitalParams,
                      TwoYukawaParams, build_cluster, energy_per_particle,
                      enumerate_shells, kinetic_per_particle, pair_energy,
                      same_site_W)
from varsolid.optimize import SEARCH_BOX
from test_contract import cases_test

LAM_KR = 91.33
D_KR = 3.953 / 3.6
#: the default 12 d cutoff at d = 1, as the optimizer sums it
UNIT_SHELLS = enumerate_shells(LatticeKind.FCC, 1.0, 12.0)


def shells_at(d, factor=12.0):
    return enumerate_shells(LatticeKind.FCC, d, factor * d)


def test_kinetic_closed_form(krypton_units):
    lam = LAM_KR
    want = krypton_units.coupling * lam * lam / 8.0
    got = kinetic_per_particle(OrbitalParams(lam), krypton_units)
    assert got == pytest.approx(want, rel=1e-15)
    assert got == pytest.approx(0.274, abs=0.002)  # ~0.27 eps for Krypton


def test_kinetic_vanishes_with_lambda(krypton_units):
    assert kinetic_per_particle(OrbitalParams(1e-8), krypton_units) < 1e-19


def test_kinetic_against_gradient_quadrature(krypton_units):
    # (Lambda/2) int |grad phi|^2 d^3r with phi = D e^{-lam r / 2}
    lam = 17.0
    d2 = lam**3 / (8.0 * math.pi)
    val, _ = integrate.quad(
        lambda r: (lam**2 / 4.0) * d2 * math.exp(-lam * r) * 4 * math.pi * r * r,
        0.0, 300.0 / lam, epsrel=1e-12)
    want = 0.5 * krypton_units.coupling * val
    got = kinetic_per_particle(OrbitalParams(lam), krypton_units)
    assert got == pytest.approx(want, rel=1e-10)


def test_breakdown_is_consistent(potential, krypton_units):
    p = OrbitalParams(LAM_KR)
    shells = shells_at(D_KR)
    bd = energy_per_particle(p, potential, shells, krypton_units)
    assert bd.total == pytest.approx(bd.kinetic + bd.potential_total,
                                     abs=1e-12)
    assert bd.potential_total == pytest.approx(
        math.fsum(0.5 * c * pair_energy(p, potential, r)
                  for r, c in shells.shells), abs=1e-12)
    assert bd.total < 0.0


def _in_window(lam, pot):
    return min(abs(lam - pot.m) / pot.m, abs(lam - pot.n) / pot.n) < DEGENERACY_WINDOW


@given(lam=st.floats(min_value=SEARCH_BOX["lambda"][0], max_value=SEARCH_BOX["lambda"][1])
       .filter(lambda v: not _in_window(v, TwoYukawaParams())),
       d=st.floats(min_value=SEARCH_BOX["d"][0], max_value=SEARCH_BOX["d"][1]),
       order=st.sampled_from([0, 1, 2]))
@settings(max_examples=40, deadline=None)
@example(lam=91.1955, d=1.0978, order=2)  # the optimum
@example(lam=SEARCH_BOX["lambda"][0], d=SEARCH_BOX["d"][1], order=2)  # the box's corners
@example(lam=SEARCH_BOX["lambda"][1], d=SEARCH_BOX["d"][0], order=2)
@example(lam=30.0, d=1.1, order=1)  # an unsaturated expm1
def test_shell_sum_is_bitwise_the_per_shell_fsum(lam, d, order, krypton_units):
    # the array sum is the same IEEE products, 0.5*c*E, as a loop of
    # scalar pair energies, and fsum is exact: every row's total agrees
    # bitwise, and each lam-derivative adds the kinetic one to it
    pot = TwoYukawaParams()
    p = OrbitalParams(lam)
    shells = UNIT_SHELLS.scaled(d)
    per_shell = [(c, np.ravel(pair_energy(p, pot, float(r), order)).tolist())
                 for r, c in shells.shells]
    want = [math.fsum(0.5 * c * rows[k] for c, rows in per_shell) for k in range(order + 1)]
    got = energy_per_particle(p, pot, shells, krypton_units, order)
    assert got.potential_total == want[0]
    kinetic = (krypton_units.coupling * lam / 4.0, krypton_units.coupling / 4.0)
    assert got.lam_derivatives == tuple(k + v for k, v in zip(kinetic, want[1:]))


test_energy_layer_rejects_a_lam_beyond_the_doubles = cases_test(
    "test_energy_layer_rejects_a_lam_beyond_the_doubles")


def test_far_shell_limit_is_kinetic_only(potential, krypton_units):
    bd = energy_per_particle(OrbitalParams(LAM_KR), potential,
                             enumerate_shells(LatticeKind.FCC, 60.0, 60.0),
                             krypton_units)
    assert abs(bd.potential_total) < 1e-12
    assert bd.total == pytest.approx(bd.kinetic, abs=1e-12)


def test_cohesive_energy_near_reference(potential, krypton_units):
    # at the quoted optimum the model gives U ~ -2690 cal/mole
    bd = energy_per_particle(OrbitalParams(LAM_KR), potential,
                             shells_at(D_KR), krypton_units)
    u_cal = krypton_units.energy_to_cal_per_mole(bd.total)
    assert u_cal == pytest.approx(-2690.0, rel=0.01)


def test_shell_sum_equals_cluster_pair_sum(potential, krypton_units):
    # central-site sum over an explicit 201-site cluster vs the shell sum
    # truncated at the same radius
    p = OrbitalParams(LAM_KR)
    cluster = build_cluster(D_KR, 201)
    center = cluster[np.argmin(np.linalg.norm(cluster, axis=1))]
    dists = np.linalg.norm(cluster - center, axis=1)
    dists = dists[dists > 1e-9]
    brute = 0.5 * math.fsum(pair_energy(p, potential, float(s)) for s in dists)

    shells = enumerate_shells(LatticeKind.FCC, D_KR, float(dists.max()) + 1e-9)
    bd = energy_per_particle(p, potential, shells, krypton_units)
    assert bd.potential_total == pytest.approx(brute, abs=1e-8)


def test_thirteen_shell_cluster_match(potential, krypton_units):
    # same comparison, 13 shells deep (N = 321 sites)
    p = OrbitalParams(LAM_KR)
    shells13 = enumerate_shells(LatticeKind.FCC, D_KR,
                                enumerate_shells(LatticeKind.FCC, D_KR,
                                                 4.0 * D_KR).distances_r[12]
                                + 1e-9)
    assert len(shells13.shells) == 13
    n_sites = 1 + int(np.sum(shells13.counts_c))
    cluster = build_cluster(D_KR, n_sites)
    center = cluster[np.argmin(np.linalg.norm(cluster, axis=1))]
    dists = np.linalg.norm(cluster - center, axis=1)
    brute = 0.5 * math.fsum(pair_energy(p, potential, float(s))
                            for s in dists[dists > 1e-9])
    bd = energy_per_particle(p, potential, shells13, krypton_units)
    assert bd.potential_total == pytest.approx(brute, abs=1e-8)


def test_doubling_cutoff_changes_nothing(potential, krypton_units):
    p = OrbitalParams(LAM_KR)
    u12 = energy_per_particle(p, potential, shells_at(D_KR, 12.0),
                              krypton_units).total
    u24 = energy_per_particle(p, potential, shells_at(D_KR, 24.0),
                              krypton_units).total
    assert abs(u24 - u12) < 1e-10


def test_six_d_cutoff_would_not_converge(potential, krypton_units):
    # the attractive tail at 6d is ~1e-7 eps per neighbor, far above the
    # 1e-10 convergence target; this is why the default cutoff is 12d
    p = OrbitalParams(LAM_KR)
    u6 = energy_per_particle(p, potential, shells_at(D_KR, 6.0),
                             krypton_units).total
    u12 = energy_per_particle(p, potential, shells_at(D_KR, 12.0),
                              krypton_units).total
    assert abs(u12 - u6) > 1e-10


def test_same_site_w(potential, krypton_units):
    w = same_site_W(OrbitalParams(LAM_KR), potential, shells_at(D_KR),
                    krypton_units)
    assert w.W > 0.0
    assert 1e6 < w.ratio < 1e8  # "ten million times greater", order of magnitude
    assert w.W == pytest.approx(pair_energy(OrbitalParams(LAM_KR), potential,
                                            0.0), rel=1e-14)


test_empty_shells_rejected = cases_test("test_empty_shells_rejected")


@pytest.mark.parametrize("lam, d", [(LAM_KR, D_KR), (38.0, 1.3), (5.0, 1.1),
                                    (2.69 * 1.02, 1.1)])
def test_lam_derivatives_match_central_differences(lam, d, potential,
                                                   krypton_units):
    shells = shells_at(d)

    def total(x):
        return energy_per_particle(OrbitalParams(x), potential, shells,
                                   krypton_units).total

    bd = energy_per_particle(OrbitalParams(lam), potential, shells,
                             krypton_units, order=2)
    assert bd.total == total(lam)
    h = 1e-3 * lam
    u = [total(lam + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (u[0] - 8 * u[1] + 8 * u[3] - u[4]) / (12 * h)
    d2 = (-u[0] + 16 * u[1] - 30 * u[2] + 16 * u[3] - u[4]) / (12 * h * h)
    assert bd.lam_derivatives == pytest.approx((d1, d2), rel=1e-6, abs=1e-9)
    assert energy_per_particle(OrbitalParams(lam), potential, shells,
                               krypton_units, order=1).lam_derivatives == \
        bd.lam_derivatives[:1]
    assert energy_per_particle(OrbitalParams(lam), potential, shells,
                               krypton_units).lam_derivatives == ()


@pytest.mark.parametrize("order", [0, 1, 2])
def test_one_pair_energy_call_at_every_order(order, potential, krypton_units,
                                             monkeypatch):
    from varsolid import energy
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return pair_energy(*args, **kwargs)

    monkeypatch.setattr(energy, "pair_energy", counted)
    energy_per_particle(OrbitalParams(LAM_KR), potential, UNIT_SHELLS.scaled(D_KR),
                        krypton_units, order=order)
    assert len(calls) == 1
