"""Asymptotic models of v on both ends, and the log-log slope fitter
(``rh_verify.loglog_slope``) that measures their residual orders."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_mkdv.asymptotics import (_oscillatory_rows, psi_tilde,
                                       v_neg_asym, v_neg_launch, v_pos_asym)
from painleve_mkdv.errors import DomainError
from painleve_mkdv.rh_verify import loglog_slope
from painleve_mkdv.stokes import ConnectionConstants, connection_constants, \
    make_params
from pairs import ACCEPTANCE_PAIRS


def test_psi_tilde_values():
    c0 = ConnectionConstants(0.0, 0.0)
    val, der = psi_tilde(1.0, c0)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert psi_tilde(4.0, c0)[1] == pytest.approx(2.0, abs=1e-15)
    c = connection_constants(make_params(0.0, 0.5))
    # frozen: (2/3)25^{3/2} - (3/4) d^2 ln 25 + phi
    assert psi_tilde(25.0, c)[0] == pytest.approx(82.20526652937216, abs=1e-10)


@given(st.floats(0.5, 500.0), st.floats(0.0, 1.2), st.floats(-3.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_psi_tilde_derivative_matches_fd(s, d, phi):
    c = ConnectionConstants(d, phi)
    h = 1e-6 * max(1.0, s)
    fd = (psi_tilde(s + h, c)[0] - psi_tilde(s - h, c)[0]) / (2.0 * h)
    assert psi_tilde(s, c)[1] == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_psi_tilde_domain():
    with pytest.raises(DomainError):
        psi_tilde(-1.0, ConnectionConstants(0.1, 0.0))


def test_stationary_threshold():
    for pair in [(0.0, 0.5), (0.25, 0.3), (0.4, 0.5 * math.cos(0.4 * math.pi))]:
        c = connection_constants(make_params(*pair))
        # PsiTilde' = s^{1/2} - (3/4) d^2 / s vanishes at s0 = ((3/4) d^2)^{2/3}
        # and is strictly positive beyond twice that
        s0 = (0.75 * c.d * c.d) ** (2.0 / 3.0)
        assert s0 > 0.0
        ss = np.linspace(2.0 * s0, 100.0, 50)
        assert np.all(psi_tilde(ss, c)[1] > 0.0)


def test_v_neg_asym_reference():
    p = make_params(0.0, 0.5)
    c = connection_constants(p)
    v, _ = v_neg_asym(-25.0, p, c, include_alpha_term=True)
    assert v == pytest.approx(0.1171823468567973, abs=1e-10)


def test_v_neg_asym_alpha_term_is_alpha_over_x():
    p = make_params(0.25, 0.3)
    c = connection_constants(p)
    x = -25.0
    with_term = v_neg_asym(x, p, c, True)[0]
    without = v_neg_asym(x, p, c, False)[0]
    assert with_term - without == pytest.approx(0.25 / x, abs=1e-16)


def test_v_neg_asym_derivative_matches_fd():
    p = make_params(0.25, 0.3)
    c = connection_constants(p)
    x = -30.0
    h = 1e-5
    fd = (v_neg_asym(x + h, p, c, True)[0] - v_neg_asym(x - h, p, c, True)[0]) / (2 * h)
    v, vp = v_neg_asym(x, p, c, True)
    assert vp == pytest.approx(fd, rel=1e-8)


def _oscillatory_model_mp(p, c, with_next_orders):
    # the leading model, written out, plus optionally the rows after row 0
    # that v_neg_launch sums, evaluated in 40-digit arithmetic so that
    # mp.diff resolves v'' well below the size of the ODE residual
    d, alpha, phi = mp.mpf(c.d), mp.mpf(p.alpha), mp.mpf(c.phi)
    rows = _oscillatory_rows(c.d, p.alpha)[1:] if with_next_orders else ()

    def v(x):
        s = -x
        psi = mp.mpf(2) / 3 * s ** 1.5 - mp.mpf(3) / 4 * d * d * mp.log(s) + phi
        out = d * s ** -0.25 * mp.cos(psi) + alpha / x
        for power, m, cos_c, sin_c in rows:
            out += s ** -power * (cos_c * mp.cos(m * psi) + sin_c * mp.sin(m * psi))
        return out

    return v


def _residual_envelope_slope(p, v):
    pts = []
    for s in np.geomspace(60.0, 480.0, 6):
        period = 2.0 * math.pi / math.sqrt(s)
        worst = 0.0
        for j in range(8):
            x = -mp.mpf(s + period * j / 8.0)
            vx = v(x)
            r = mp.diff(v, x, 2) - (x * vx + 2 * vx ** 3 - p.alpha)
            worst = max(worst, float(abs(r)))
        pts.append((s, worst))
    return loglog_slope(pts)


@pytest.mark.parametrize("pair", ACCEPTANCE_PAIRS)
def test_v_neg_launch_residual_order(pair):
    # v_ss = -s v + 2 v^3 - alpha: the leading model leaves a residual
    # ~ s^{-3/4}.  The launch model sums the orders through s^{-25/4}, which
    # leaves s^{-6} (alpha != 0) or s^{-27/4} (alpha = 0, where the odd
    # orders vanish); measured -5.96 to -6.03 and -6.89 to -6.91.  Without
    # its last order it would be s^{-21/4} at best
    p = make_params(*pair)
    c = connection_constants(p)
    with mp.workdps(40):
        leading = _residual_envelope_slope(p, _oscillatory_model_mp(p, c, False))
        launch_model = _oscillatory_model_mp(p, c, True)
        launch = _residual_envelope_slope(p, launch_model)
        for x in (-60.0, -217.3, -480.0):
            assert v_neg_launch(x, p, c)[0] == pytest.approx(
                float(launch_model(mp.mpf(x))), abs=1e-12)
    assert leading > -1.25
    assert launch <= -5.75


def _rows_through_s_13_4(d, alpha):
    # the expansion through s^{-13/4} as it was written out by hand before
    # the recursion replaced it, in the same (power, m, C, S) layout
    d2, a2 = d * d, alpha * alpha
    d3, d5 = d2 * d, d2 * d2 * d
    d7, d9 = d5 * d2, d5 * d2 * d2
    return (
        (0.25, 1, d, 0.0),
        (1.75, 1, 0.375 * d3, 5.0 / 48.0 * d - 17.0 / 32.0 * d5 - 2.0 * a2 * d),
        (1.75, 3, -d3 / 16.0, 0.0),
        (2.5, 0, -3.0 * alpha * d2, 0.0),
        (2.5, 2, alpha * d2, 0.0),
        (3.25, 1,
         -2.0 * a2 * a2 * d - 17.0 / 16.0 * a2 * d5 + 41.0 / 24.0 * a2 * d
         - 289.0 / 2048.0 * d9 + 497.0 / 768.0 * d5 - 385.0 / 4608.0 * d,
         -29.0 / 4.0 * a2 * d3 - 11.0 / 16.0 * d7 + 51.0 / 128.0 * d3),
        (3.25, 3, -39.0 / 256.0 * d5,
         0.375 * a2 * d3 + 51.0 / 512.0 * d7 - 23.0 / 256.0 * d3),
        (3.25, 5, d5 / 256.0, 0.0),
    )


@pytest.mark.parametrize("d, alpha", [(0.17, 0.0), (0.53, 0.25), (0.73, -0.3),
                                      (1.41, 0.4), (2.0, -0.45)])
def test_recursion_reproduces_the_written_out_rows(d, alpha):
    # rows n <= 4 agree with the hand-written table to rounding; the later
    # rows follow it in the same layout
    rows = _oscillatory_rows(d, alpha)
    want = _rows_through_s_13_4(d, alpha)
    assert [row[:2] for row in rows[:len(want)]] == [row[:2] for row in want]
    scale = max(abs(x) for row in want for x in row[2:])
    for got, ref in zip(rows, want):
        assert got[2:] == pytest.approx(ref[2:], rel=1e-14, abs=1e-15 * scale)
    assert [row[0] for row in rows[len(want):]] == sorted(
        row[0] for row in rows[len(want):])
    assert rows[-1][0] == 6.25


def test_odd_orders_vanish_at_alpha_zero():
    for power, m, cos_c, sin_c in _oscillatory_rows(1.2, 0.0):
        if (power - 0.25) / 0.75 % 2 == 1:
            assert cos_c == 0.0 and sin_c == 0.0


@pytest.mark.parametrize("pair", ACCEPTANCE_PAIRS)
def test_v_neg_launch_derivative_matches_fd(pair):
    p = make_params(*pair)
    c = connection_constants(p)
    h = 1e-6
    for x in (-25.0, -60.0, -217.3, -480.0):
        fd = (v_neg_launch(x + h, p, c)[0] - v_neg_launch(x - h, p, c)[0]) / (2 * h)
        assert v_neg_launch(x, p, c)[1] == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_v_pos_asym_values():
    v, vp = v_pos_asym(10.0, 0.25)
    assert v == pytest.approx(0.025046875, abs=1e-16)
    h = 1e-5
    fd = (v_pos_asym(10 + h, 0.25)[0] - v_pos_asym(10 - h, 0.25)[0]) / (2 * h)
    assert vp == pytest.approx(fd, rel=1e-8)
    assert v_pos_asym(7.0, 0.0)[0] == 0.0


def test_v_pos_asym_monotone_leading():
    xs = np.linspace(1.0, 50.0, 200)
    v = v_pos_asym(xs, 0.25)[0]
    assert np.all(np.diff(v) < 0.0)


def test_loglog_slope_exact_laws():
    s = np.array([2.0, 5.0, 11.0, 23.0, 47.0])
    assert loglog_slope(np.stack([s, s ** -2.0], axis=1)) == pytest.approx(-2.0, abs=1e-12)
    assert loglog_slope(np.stack([s, 3.0 * s ** -1.75], axis=1)) == pytest.approx(-1.75, abs=1e-12)


def test_loglog_slope_noisy_law():
    s = np.linspace(3.0, 40.0, 25)
    vals = s ** -1.0 * (1.0 + 0.01 * np.sin(s))
    assert loglog_slope(np.stack([s, vals], axis=1)) == pytest.approx(-1.0, abs=0.02)


def test_loglog_slope_validation():
    with pytest.raises(DomainError):
        loglog_slope([(1.0, 1.0), (2.0, 1.0)])  # too few
    with pytest.raises(DomainError):
        loglog_slope([(1.0, 1.0)] * 6)  # coincident abscissas
    with pytest.raises(DomainError):
        loglog_slope([(1.0, 1.0), (2.0, -1.0), (3.0, 1.0), (4.0, 1.0), (5.0, 1.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            loglog_slope([(1.0, 1.0), (2.0, bad), (3.0, 1.0), (4.0, 1.0), (5.0, 1.0)])
        with pytest.raises(DomainError):
            loglog_slope([(1.0, 1.0), (bad, 1.0), (3.0, 1.0), (4.0, 1.0), (5.0, 1.0)])
