"""Unit system: the dimensionless coupling and the two output conversions.

Everything here is pinned against CODATA-2018 arithmetic done inline, not
against copies of the package's own constants.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from varsolid import UnitSystem, make_krypton_units

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J/K
AMU = 1.66053906660e-27  # kg
NA = 6.02214076e23  # 1/mol


def test_krypton_coupling_against_inline_arithmetic():
    u = make_krypton_units()
    eps_J = 170.0 * KB
    mu = 83.798 * AMU
    want = HBAR**2 / (mu * (3.6e-10) ** 2 * eps_J)
    assert u.coupling == pytest.approx(want, rel=1e-14)
    # frozen value, so any constant regression is loud
    assert u.coupling == pytest.approx(2.6274373245919075e-4, rel=1e-13)


def test_krypton_basic_fields():
    u = make_krypton_units()
    assert u.sigma_angstrom == pytest.approx(3.6, abs=1e-12)
    assert u.epsilon_J == pytest.approx(170.0 * KB, rel=1e-15)
    assert u.mass_kg == pytest.approx(83.798 * AMU, rel=1e-15)


def test_energy_conversion_value():
    # 1 epsilon = eps_K * kB * N_A joule/mole = that / 4.184 cal/mole
    u = make_krypton_units()
    per_eps = 170.0 * KB * NA / 4.184
    assert u.energy_to_cal_per_mole(1.0) == pytest.approx(per_eps, rel=1e-14)
    assert u.energy_to_cal_per_mole(1.0) == pytest.approx(337.8247239689414,
                                                          rel=1e-13)
    assert u.energy_to_cal_per_mole(-7.9819661802) == pytest.approx(
        -7.9819661802 * per_eps, rel=1e-14)


def test_pressure_conversion_value():
    # 1 epsilon/sigma^3 in kbar = eps_J / sigma^3 / 1e8
    u = make_krypton_units()
    per_unit = 170.0 * KB / (3.6e-10) ** 3 / 1e8
    assert u.pressure_to_kbar(1.0) == pytest.approx(per_unit, rel=1e-14)
    assert u.pressure_to_kbar(1.0) == pytest.approx(0.5030656935871057,
                                                    rel=1e-13)


@given(sigma=st.floats(min_value=1e-11, max_value=1e-9),
       eps=st.floats(min_value=1.0, max_value=1e4),
       mass=st.floats(min_value=1.0, max_value=300.0))
def test_coupling_scaling_laws(sigma, eps, mass):
    # Lambda = hbar^2/(mu sigma^2 eps_J): halving the mass doubles it, etc.
    u = UnitSystem(sigma_m=sigma, epsilon_K=eps, mass_u=mass)
    v = UnitSystem(sigma_m=sigma, epsilon_K=eps, mass_u=2.0 * mass)
    assert u.coupling == pytest.approx(2.0 * v.coupling, rel=1e-12)
    w = UnitSystem(sigma_m=2.0 * sigma, epsilon_K=eps, mass_u=mass)
    assert u.coupling == pytest.approx(4.0 * w.coupling, rel=1e-12)


@pytest.mark.parametrize("bad", [
    dict(sigma_m=0.0, epsilon_K=170.0, mass_u=83.798),
    dict(sigma_m=3.6e-10, epsilon_K=-1.0, mass_u=83.798),
    dict(sigma_m=3.6e-10, epsilon_K=170.0, mass_u=0.0),
    dict(sigma_m=3.6e-10, epsilon_K=math.inf, mass_u=83.798),
    # scales whose kinetic coupling is not a positive finite number
    dict(sigma_m=1e298, epsilon_K=170.0, mass_u=83.798),  # sigma^2 overflows
    dict(sigma_m=1e-310, epsilon_K=170.0, mass_u=83.798),  # sigma^2 underflows
    dict(sigma_m=1.0, epsilon_K=1e308, mass_u=1e308),  # coupling -> 0
])
def test_nonpositive_parameters_rejected(bad):
    with pytest.raises(ValueError):
        UnitSystem(**bad)


def test_natural_hbar_is_sqrt_coupling():
    # momenta are reported in hbar/sigma; velocities in sqrt(eps/mu).  The
    # conversion between the two is sqrt(Lambda), used by the boost code.
    u = make_krypton_units()
    assert math.sqrt(u.coupling) == pytest.approx(0.016209371747825108, rel=1e-12)


@pytest.mark.parametrize("constant", ["hbar_SI", "kB_SI", "amu_SI", "avogadro"])
def test_si_constants_are_not_fields(constant):
    # the CODATA values live in varsolid.units alone; only the scales vary
    with pytest.raises(TypeError):
        UnitSystem(sigma_m=3.6e-10, epsilon_K=170.0, mass_u=83.798,
                   **{constant: 1.0})
