"""Parameter domain, Stokes data, connection constants, and the monodromy
constants (nu, h0, h1)."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from painleve_mkdv.errors import DegenerateParamsError, DomainError
from painleve_mkdv.stokes import (ConnectionConstants, connection_constants,
                                  make_params, reduce_angle, rh_constants,
                                  stokes_triple)

# (alpha, k) -> (d, phi) frozen from a 30-digit evaluation of the closed forms
CONNECTION_TABLE = [
    ((0.0, 0.3), 0.17326286863724377, -0.82527326195903848),
    ((0.0, 0.5), 0.30260873705040872, -0.90699751593502771),
    ((0.25, 0.3), 0.53273304371974427, 0.0082985345472993611),
    ((-0.3, -0.4), 0.73230551871336562, 2.7629173915298715),
    ((0.4, 0.5 * math.cos(0.4 * math.pi)), 0.91607434773307549, -0.46318394446153574),
]


def valid_pairs():
    return st.tuples(st.floats(-0.49, 0.49), st.floats(-0.99, 0.99)).filter(
        lambda ak: abs(ak[1]) < 0.995 * math.cos(math.pi * ak[0])
        and (ak == (0.0, 0.0) or math.cos(math.pi * ak[0]) ** 2 - ak[1] ** 2 < 1.0))


def test_make_params_validation():
    p = make_params(0.25, 0.3)
    assert not p.degenerate
    assert make_params(0.0, 0.0).degenerate
    with pytest.raises(DomainError):
        make_params(0.25, 0.8)  # 0.8 > cos(pi/4)
    with pytest.raises(DomainError):
        make_params(0.5, 0.0)
    with pytest.raises(DomainError):
        make_params(0.1, math.cos(0.1 * math.pi))  # boundary excluded
    with pytest.raises(DomainError):
        make_params(float("nan"), 0.0)


def test_stokes_triple_values():
    t = stokes_triple(make_params(0.25, 0.3))
    s = math.sin(math.pi * 0.25)
    assert abs(t.s1 - complex(-s, -0.3)) < 1e-15
    assert t.s2 == 0
    assert abs(t.s3 - complex(-s, 0.3)) < 1e-15
    t0 = stokes_triple(make_params(0.0, 0.0))
    assert t0.s1 == 0 and t0.s3 == 0


@given(valid_pairs())
@settings(max_examples=200, deadline=None)
def test_stokes_constraint(ak):
    p = make_params(*ak)
    resid = stokes_triple(p).constraint_residual(p.alpha)
    assert abs(resid) < 1e-14


@pytest.mark.parametrize("pair,d_ref,phi_ref", CONNECTION_TABLE)
def test_connection_constants_reference(pair, d_ref, phi_ref):
    c = connection_constants(make_params(*pair))
    assert abs(c.d - d_ref) <= 1e-13
    assert abs(c.phi - phi_ref) <= 1e-12
    assert -math.pi < c.phi <= math.pi


def test_connection_degenerate_is_zero():
    # the zero profile, whose phi is undefined, takes (d, phi) = (0, 0)
    assert connection_constants(make_params(0.0, 0.0)) == ConnectionConstants(0.0, 0.0)


@pytest.mark.parametrize("pair", [(0.0, 1e-200), (1e-200, 0.0)])
def test_connection_underflowing_d_rejected(pair):
    # nonzero pairs whose d^2 underflows to 0 have no phase to give
    with pytest.raises(DegenerateParamsError):
        connection_constants(make_params(*pair))


@given(valid_pairs())
@settings(max_examples=60, deadline=None)
def test_d_even_in_k(ak):
    alpha, k = ak
    if k == 0.0 or (alpha == 0.0 and k == 0.0):
        return
    d1 = connection_constants(make_params(alpha, k)).d
    d2 = connection_constants(make_params(alpha, -k)).d
    assert abs(d1 - d2) < 1e-14


def test_rh_constants_degenerate():
    rc = rh_constants(make_params(0.0, 0.0))
    assert rc.nu == 0
    assert rc.h1 == 0
    assert abs(rc.h0 + 1j * math.sqrt(2.0 * math.pi)) < 1e-14


def test_rh_constants_reference():
    rc = rh_constants(make_params(0.0, 0.5))
    assert abs(rc.nu - (-0.045786023869621704j)) < 1e-14
    # h0 h1 = s1 s3 / (1 - s1 s3) with s1 s3 = 1/4
    assert abs(rc.h0 * rc.h1 - 1.0 / 3.0) < 1e-13


def _route_one(alpha, k):
    """(nu, 1 - s1 s3, s1 s3) of route 1 at 40 digits from the float inputs:
    formed in double precision, 1 - s1 s3 = 1 - sin^2(pi alpha) - k^2 cancels
    near the edge |k| -> cos(pi alpha)."""
    with mp.workdps(40):
        s1s3 = mp.sin(mp.pi * mp.mpf(alpha)) ** 2 + mp.mpf(k) ** 2
        nu = -mp.log(1 - s1s3) / (2j * mp.pi)
        return complex(nu), 1 - s1s3, s1s3


@given(valid_pairs())
@example((0.48999999999999994, 0.03125))  # cos^2(pi alpha) - k^2 = 1.0e-5
@settings(max_examples=60, deadline=None)
def test_nu_two_routes_and_gamma_identity(ak):
    p = make_params(*ak)
    rc = rh_constants(p)
    # route 1: nu = -(2 pi i)^{-1} ln(1 - s1 s3) with the complex logarithm
    nu_log, one_minus, s1s3 = _route_one(*ak)
    assert abs(rc.nu - nu_log) < 1e-13
    if not p.degenerate:
        d = connection_constants(p).d
        assert abs(rc.nu + 0.5j * d * d) < 1e-13
    # Gamma-reflection consequence
    with mp.workdps(40):
        assert abs(mp.mpc(rc.h0 * rc.h1) * one_minus - s1s3) < 1e-12


def test_d_squared_near_the_edge():
    # near |k| -> cos(pi alpha) the error of d^2 = -ln(g)/pi is the error of
    # g = cos^2(pi alpha) - k^2 over pi g; bound that implied error in g by a
    # few ulps of c^2 = cos^2(pi alpha).  Measured on 1200 draws: at most
    # 4.5e-16 (1.0e-14 with g formed as cos(pi alpha)^2 - k^2, where the
    # rounding of pi alpha near pi/2 dominates as |alpha| -> 1/2)
    rng = np.random.default_rng(2026)
    for _ in range(200):
        alpha = math.copysign(rng.uniform(0.25, 0.49), rng.uniform(-1.0, 1.0))
        c = math.cos(math.pi * alpha)
        k = math.copysign(c * math.sqrt(1.0 - 10.0 ** rng.uniform(-12.0, -1.0)),
                          rng.uniform(-1.0, 1.0))
        d2 = -2.0 * rh_constants(make_params(alpha, k)).nu.imag
        with mp.workdps(40):
            c2 = mp.cos(mp.pi * mp.mpf(alpha)) ** 2
            g = c2 - mp.mpf(k) ** 2
            assert abs(d2 + mp.log(g) / mp.pi) * mp.pi * g < 1e-15 * c2


def test_d_squared_near_the_zero_pair():
    # d^2 against 60 digits on draws of |alpha| and |k| down to 1e-12: where
    # g = cos^2(pi alpha) - k^2 > 1/2 it is formed as -log1p(-(s1 s3))/pi and
    # keeps its relative digits (measured 6.3e-16 on 4000 draws; ln g lost
    # them all below |k| ~ 1e-8); on the edge side the bound of
    # test_d_squared_near_the_edge applies
    rng = np.random.default_rng(2027)
    for i in range(300):
        alpha = 0.0 if i % 10 == 0 else math.copysign(
            10.0 ** rng.uniform(-12.0, math.log10(0.49)), rng.uniform(-1.0, 1.0))
        c = math.cos(math.pi * alpha)
        k = 0.0 if i % 10 == 5 else math.copysign(
            c * 10.0 ** rng.uniform(-12.0, -1e-4), rng.uniform(-1.0, 1.0))
        d2 = -2.0 * rh_constants(make_params(alpha, k)).nu.imag
        with mp.workdps(60):
            c2 = mp.cos(mp.pi * mp.mpf(alpha)) ** 2
            g = c2 - mp.mpf(k) ** 2
            want = -mp.log(g) / mp.pi
            if g > 0.5:
                assert abs(d2 - want) <= 4e-15 * want
            else:
                assert abs(d2 - want) * mp.pi * g < 1e-15 * c2


def test_reduce_angle():
    assert reduce_angle(math.pi) == pytest.approx(math.pi)
    assert reduce_angle(-math.pi) == pytest.approx(math.pi)
    assert reduce_angle(7.0) == pytest.approx(7.0 - 2.0 * math.pi)
