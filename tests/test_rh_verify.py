"""Computable Riemann-Hilbert identities: phases, N, beta, contour residues,
the stationary-point identity, and the parabolic-cylinder parametrices."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import painleve_mkdv.rh_verify as rv
import painleve_mkdv.specfun as sf
from painleve_mkdv.errors import (BranchCutError, DegenerateParamsError,
                                  DomainError, QuadratureError,
                                  SectorBoundaryError)
from painleve_mkdv.rh_verify import (SIGMA2, ContourCircle, beta_fn,
                                     loglog_slope, m_pred, n_matrix,
                                     parametrix_decay, phase_maps,
                                     residue_check_origin,
                                     stationary_identity, t_left_parametrix,
                                     t_right_parametrix, z_parametrix)
from painleve_mkdv.stokes import (ASParams, h_factors, make_params,
                                  rh_constants, stokes_triple)
from pairs import ACCEPTANCE_PAIRS

P05 = make_params(0.0, 0.5)
P253 = make_params(0.25, 0.3)
NU05 = rh_constants(P05).nu


def _ring_points(n):
    return [0.5 + 0.15 * cmath.exp(1j * (0.0371 + 2.0 * math.pi * j / n))
            for j in range(n)]


# phase maps -----------------------------------------------------------------

def test_phase_at_stationary_point():
    theta, _, zeta = phase_maps(0.5)
    assert abs(theta - (-1j / 3.0)) < 1e-16
    assert abs(zeta) < 1e-15
    assert abs(phase_maps(-0.5)[0] - 1j / 3.0) < 1e-16


def test_eta_at_origin():
    h = 1e-6
    eta0 = phase_maps(0.0)[1]
    deriv = (phase_maps(h)[1] - phase_maps(-h)[1]) / (2.0 * h)
    assert eta0 == 0.0
    assert abs(deriv - 1.0) < 1e-10


def test_zeta_squared_identity():
    z = 0.7 + 0.1j
    theta, _, zeta = phase_maps(z)
    theta_plus = phase_maps(0.5)[0]
    assert abs(zeta ** 2 + 4.0 * (theta - theta_plus)) < 1e-14


def test_zeta_branch_warning():
    with pytest.warns(UserWarning):
        phase_maps(-3.0)
    with pytest.warns(UserWarning):
        phase_maps(-1.5 + 1e-10j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase_maps(-1.5 + 1e-8j)
        phase_maps(-0.5)


# N matrix -------------------------------------------------------------------

def test_n_matrix_identity_at_nu_zero():
    assert np.allclose(n_matrix(2.0 + 1.0j, 0.0), np.eye(2), atol=0)


def test_n_matrix_reference_entries():
    n = n_matrix(1j, NU05)
    # arg((i+1/2)/(i-1/2)) = -0.92729522; entries e^{-/+ nu_im * arg}
    assert n[0, 0] == pytest.approx(0.95843, abs=2e-5)
    assert n[1, 1] == pytest.approx(1.04337, abs=2e-5)
    assert abs(np.linalg.det(n) - 1.0) < 5e-16


def test_n_matrix_inverse_is_minus_nu():
    for nu in (NU05, -0.5j, 0.3 + 0.2j):
        for z in _ring_points(16) + [1j, -2.0 + 0.5j, 1e3 + 0.0j]:
            prod = n_matrix(z, -nu) @ n_matrix(z, nu)
            assert np.max(np.abs(prod - np.eye(2))) < 1e-15


def test_n_matrix_segment_rejected():
    with pytest.raises(BranchCutError):
        n_matrix(0.25, NU05)


def test_n_matrix_far_field_bound():
    z = 1e3 + 0.0j
    n = n_matrix(z, NU05)
    assert np.linalg.norm(n - np.eye(2)) <= 2.0 * abs(NU05) / abs(z) * 1.5


# beta -----------------------------------------------------------------------

def test_beta_trivial_at_nu_zero():
    assert beta_fn(0.6, 50.0, 0.0) == 1.0


def test_beta_modulus_formula():
    # for purely imaginary nu, |beta| = exp(Im nu * (-arg base)); in
    # particular a positive-real base gives |beta| = 1
    z = 0.62
    t = 50.0
    beta = beta_fn(z, t, NU05)
    arg = (0.75 * math.pi + 0.5 * cmath.phase(z + 1.0) + cmath.phase(z + 0.5))
    assert abs(abs(beta) - math.exp(-NU05.imag * arg)) < 1e-15


def test_beta_bounded_on_ring():
    vals = [abs(beta_fn(z, 50.0, NU05)) for z in _ring_points(64)]
    assert 0.5 < min(vals) and max(vals) < 2.0


def test_beta_and_zeta_take_arrays():
    # one formula serves both: an array gives the scalar values elementwise,
    # and a scalar still gives a complex
    zs = np.array(_ring_points(16))
    betas = beta_fn(zs, 50.0, NU05)
    zetas = phase_maps(zs)[2]
    for z, beta, zeta in zip(zs, betas, zetas):
        scalar = beta_fn(complex(z), 50.0, NU05)
        assert type(scalar) is complex
        assert abs(scalar - beta) < 1e-15 * abs(beta)
        assert abs(phase_maps(complex(z))[2] - zeta) < 1e-15 * abs(zeta)
    with pytest.warns(UserWarning):
        phase_maps(np.array([0.5, -3.0]))
    with pytest.raises(BranchCutError):
        beta_fn(np.array([0.6, -0.5]), 50.0, NU05)


def test_beta_rejects_scalar_branch_points():
    for z in (-0.5, -1.0, complex(-0.5, 1e-13)):
        with pytest.raises(BranchCutError):
            beta_fn(z, 50.0, NU05)
    assert type(beta_fn(-0.5 + 1e-6j, 50.0, NU05)) is complex


def test_beta_analytic_across_segment():
    # the combined power is single-valued near the segment crossing
    eps = 1e-9
    up = beta_fn(0.35 + eps * 1j, 50.0, NU05)
    down = beta_fn(0.35 - eps * 1j, 50.0, NU05)
    assert abs(up - down) < 1e-7


# contour circle / residue ----------------------------------------------------

def test_contour_circle_validation():
    with pytest.raises(DomainError):
        ContourCircle(0.0, 0.3)


@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3), (-0.3, -0.4)])
def test_residue_origin(pair):
    nu = rh_constants(make_params(*pair)).nu
    target = -2j * math.pi
    vals = [residue_check_origin(ContourCircle(0.0, r), nu)
            for r in (0.05, 0.1, 0.2)]
    for v in vals:
        assert abs(v - target) < 1e-8
    assert max(abs(v - vals[0]) for v in vals) < 1e-8


def test_residue_nu_zero():
    val = residue_check_origin(ContourCircle(0.0, 0.1), 0.0)
    assert abs(val + 2j * math.pi) < 1e-12


def test_circle_quadrature_evaluates_each_node_once():
    # the doubled rules are nested: 1/z converges at the second rule, and the
    # integrand sees that rule's nodes once each, not those of both rules
    seen = []

    def f(zs):
        seen.append(zs)
        return 1.0 / zs

    val = rv._circle_integral(f, ContourCircle(0.0, 0.1))
    assert abs(val + 2j * math.pi) < 1e-12
    nodes = np.concatenate(seen)
    assert len(nodes) == 2 * rv._CIRCLE_NODES
    assert len(np.unique(np.round(nodes, 12))) == 2 * rv._CIRCLE_NODES


def test_circle_quadrature_reports_what_did_not_converge():
    # a pole 1.5e-5 inside the circle is more than 16384 nodes resolve
    with pytest.raises(QuadratureError, match=r"differ by \S+ at 16384 nodes"):
        rv._circle_integral(lambda zs: 1.0 / (zs - (0.5 + 0.15 * 0.9999)),
                            ContourCircle(0.5, 0.15))


def _fixed_rule(f, circle, n=4096):
    return rv._circle_sum(f, circle, 2.0 * math.pi * np.arange(n) / n, n)


# |alpha| -> 1/2: d = 2.27, nu = -2.57i
@pytest.mark.parametrize("pair", ACCEPTANCE_PAIRS + [(0.4999, 0.0)])
def test_circle_integrals_match_a_fixed_fine_rule(pair, monkeypatch):
    # the doubling from _CIRCLE_NODES stops once two rules agree to 1e-10;
    # what it returns agrees with one fixed 4096-node rule to 1e-13
    p = make_params(*pair)
    nu = rh_constants(p).nu

    def values():
        return ([residue_check_origin(ContourCircle(0.0, r), nu) for r in (0.05, 0.1, 0.2)]
                + [stationary_identity(p, t)[0] for t in (20.0, 50.0, 100.0, 1000.0)])

    doubled = values()
    monkeypatch.setattr(rv, "_circle_integral", _fixed_rule)
    for got, want in zip(doubled, values()):
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_time_must_be_finite_and_positive(t):
    # unguarded, t = inf gives nan from beta_fn and m_pred, a bare math
    # domain error from t_right_parametrix, and a QuadratureError from
    # stationary_identity after doubling to 16384 nodes
    z = 0.5 + 0.15j
    for evaluate in (lambda: beta_fn(z, t, NU05), lambda: t_right_parametrix(P05, t, z),
                     lambda: m_pred(P05, t, z), lambda: stationary_identity(P05, t)):
        with pytest.raises(DomainError, match="0 < t < inf"):
            evaluate()


# stationary identity ---------------------------------------------------------

@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3)])
@pytest.mark.parametrize("t", [20.0, 50.0, 100.0])
def test_stationary_identity(pair, t):
    lhs, rhs = stationary_identity(make_params(*pair), t)
    assert abs(lhs - rhs) < 1e-6


def test_stationary_identity_degenerate():
    lhs, rhs = stationary_identity(make_params(0.0, 0.0), 50.0)
    assert lhs == 0 and rhs == 0


def test_stationary_rhs_amplitude_scaling():
    # the envelope of the right side carries the explicit t^{-1/2} prefactor
    from painleve_mkdv.stokes import connection_constants
    c = connection_constants(P05)
    env25 = math.pi * c.d * 25.0 ** -0.5
    env100 = math.pi * c.d * 100.0 ** -0.5
    assert env25 / env100 == pytest.approx(2.0, abs=1e-14)
    _, rhs25 = stationary_identity(P05, 25.0)
    assert abs(rhs25) <= env25 + 1e-15


def test_stationary_radius_independence(monkeypatch):
    vals = []
    for r in (0.1, 0.15, 0.2):
        monkeypatch.setattr(rv, "_STATIONARY_CIRCLES",
                            (ContourCircle(0.5, r), ContourCircle(-0.5, r)))
        lhs, _ = stationary_identity(P253, 50.0)
        vals.append(lhs)
    assert max(abs(v - vals[0]) for v in vals) < 1e-8


# Z parametrix ----------------------------------------------------------------

def test_z_determinant_all_sectors():
    for w in (2.0 + 0.5j, -1.5 + 2.0j, -3.0 - 0.2j, 1.0 - 3.0j, 0.4 - 2.8j):
        d = np.linalg.det(z_parametrix(NU05, w))
        assert abs(d - (-1.0)) < 1e-10


def _z_recurrence(nu, w, sector, xm=cmath, pcf=sf.pcf_d, h=h_factors):
    # Z in its defining form: the base-sector matrix on D_{-nu-1}(iw) and
    # D_nu(w), times one unipotent factor per boundary ray crossed.  The
    # factors mix columns of opposite exponential scale, so in double
    # precision this is accurate only at moderate |w|; with xm=mp it is the
    # high-precision reference.
    v1, d1 = pcf(-nu - 1, 1j * w)
    v2, d2 = pcf(nu, w)
    col = xm.exp(0.5j * xm.pi * (nu + 1))
    half, two = xm.sqrt(0.5), xm.sqrt(2)
    z = np.array([[half * v1 * col, half * v2], [two * 1j * d1 * col, two * d2]])
    h0, h1 = h(nu)
    factors = ([[1, 0], [h0, 1]], [[1, h1], [0, 1]],
               [[1, 0], [-h0 * xm.exp(-2j * xm.pi * nu), 1]],
               [[1, -h1 * xm.exp(2j * xm.pi * nu)], [0, 1]])
    for factor in factors[:sector]:
        z = z @ np.array(factor)
    return z


def _mp_pcf_d(nu, z):
    value = mp.pcfd(nu, z)
    return value, z / 2 * value - mp.pcfd(nu + 1, z)


def _mp_h_factors(nu):
    root = mp.sqrt(2 * mp.pi)
    return -1j * root / mp.gamma(nu + 1), root * mp.exp(1j * mp.pi * nu) / mp.gamma(-nu)


def test_z_matches_recurrence_form():
    # the stable sector bases against the unipotent-product construction at
    # moderate arguments, one per sector
    for sector, arg in enumerate((-0.125, 0.25, 0.75, 1.25, 1.625)):
        w = 2.3 * cmath.exp(1j * (arg * math.pi + 0.11))
        direct = _z_recurrence(NU05, w, sector)
        stable = z_parametrix(NU05, w)
        assert np.max(np.abs(direct - stable)) < 1e-10


@pytest.mark.parametrize("nu", [-0.42j, -1j, -2j], ids=["-0.42i", "-i", "-2i"])
def test_z_matches_mpmath_reference(nu):
    # relative max-norm error against the defining form at 40 digits, four
    # seeded points with 1 <= |w| <= 6 in each sector.  The sector constants
    # are exact, so what is left is the error of the two pcf_d calls (rated
    # ~1e-11).
    rays = (-0.25, 0.0, 0.5, 1.0, 1.5, 1.75)
    rng = np.random.default_rng(0)
    worst = 0.0
    with mp.workdps(40):
        for sector in range(5):
            args = rng.uniform(rays[sector] + 0.02, rays[sector + 1] - 0.02, 4)
            for r, arg in zip(rng.uniform(1.0, 6.0, 4), args):
                w = r * cmath.exp(1j * math.pi * arg)
                ref = np.array(_z_recurrence(mp.mpc(nu), mp.mpc(w), sector,
                                             mp, _mp_pcf_d, _mp_h_factors),
                               dtype=complex)
                err = np.max(np.abs(z_parametrix(nu, w) - ref))
                worst = max(worst, err / np.max(np.abs(ref)))
    assert worst <= 5e-11


def test_pair_terms_cache_is_bounded_and_formed_once_per_sweep():
    # a sweep forms each pair's terms once: one miss per pair, and a hit at
    # each later call of t_right_parametrix and m_pred
    assert rv._pair_terms.cache_info().maxsize == 32
    rv._pair_terms.cache_clear()
    pairs = [make_params(*pair) for pair in ACCEPTANCE_PAIRS]
    for p in pairs:
        parametrix_decay(p)
    info = rv._pair_terms.cache_info()
    assert (info.misses, info.hits) == (len(pairs), len(pairs) * (2 * 13 * 16 - 1))


def test_z_parametrix_columns_share_kummer_sums(monkeypatch):
    # at |Re w^2| <= 6, |w| < 7.6 both columns of Z take the series path, and
    # the Kummer reflection maps the growing column's pair of sums onto the
    # recessive column's: the second pcf_d call finds the pair in the cache
    assert sf._kummer_sums.cache_info().maxsize == 1
    nu = -0.5j
    w = 1.2 * cmath.exp(1j * (0.25 * math.pi + 0.11))
    assert abs((w * w).real) <= 6.0
    sf._pcf_core.cache_clear()
    sf._kummer_sums.cache_clear()
    cached = z_parametrix(nu, w)
    info = sf._kummer_sums.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    monkeypatch.setattr(sf, "_kummer_sums", sf._kummer_sums.__wrapped__)
    assert np.array_equal(z_parametrix(nu, w), cached)


def test_z_parametrix_band_seeds_are_cached(monkeypatch):
    # at |Re w^2| <= 6, |Im w^2| > 18 one column of Z transports outward from
    # z = 0 and the other, recessive there, reads it as its Wronskian partner.
    # Point a transports D_nu, point b D_{-nu-1}; alternating between them
    # finds both seeds in the cache
    assert sf._pcf_at_zero.cache_info().maxsize == 2
    nu = -0.5j
    w_a = 4.5 * cmath.exp(1j * (0.25 * math.pi + 0.05))
    w_b = 4.5 * cmath.exp(1j * (-0.25 * math.pi + 0.05))
    for w in (w_a, w_b):
        assert abs((w * w).real) <= 6.0 and abs((w * w).imag) > 18.0
    sf._pcf_at_zero.cache_clear()
    sf._pcf_core.cache_clear()
    cached = [z_parametrix(nu, w) for w in (w_a, w_b)]
    assert sf._pcf_at_zero.cache_info().misses == 2
    assert all(np.array_equal(z_parametrix(nu, w), z) for w, z in zip((w_a, w_b), cached))
    assert sf._pcf_at_zero.cache_info().hits == 2
    monkeypatch.setattr(sf, "_pcf_at_zero", sf._pcf_at_zero.__wrapped__)
    sf._pcf_core.cache_clear()
    assert all(np.array_equal(z_parametrix(nu, w), z) for w, z in zip((w_a, w_b), cached))


# Points where the argument of one column of Z lies in the near-real wedge
# (its square has real part > 6): one per sector, and in sector 1 one for
# each column
_WEDGE_COLUMN_W = [4.0 * cmath.exp(1j * math.pi * arg)
                   for arg in (-0.125, 0.125, 0.375, 0.875, 1.125, 1.625)]


@pytest.mark.parametrize("w", _WEDGE_COLUMN_W)
def test_z_parametrix_wedge_column_reads_the_other(w):
    # the wedge column's Wronskian partner is the other column: Z evaluates
    # it once, and the wedge column finds it in the cache of _pcf_core
    assert sf._pcf_core.cache_info().maxsize == 2
    sf._pcf_core.cache_clear()
    z_parametrix(NU05, w)
    info = sf._pcf_core.cache_info()
    assert (info.hits, info.misses) == (1, 2)


@pytest.mark.parametrize("w", _WEDGE_COLUMN_W)
def test_z_parametrix_shared_partner_is_bit_identical(monkeypatch, w):
    sf._pcf_core.cache_clear()
    shared = z_parametrix(NU05, w)

    def fresh(nu, z):
        sf._pcf_core.cache_clear()
        return sf.pcf_d(nu, z)

    monkeypatch.setattr(rv, "pcf_d", fresh)
    assert np.array_equal(z_parametrix(NU05, w), shared)


def test_z_sector_boundary_guard():
    # on each ray and within 1e-8 of it, on either side, Z refuses; 1e-6 off
    # it, it takes the sector on that side: sector j lies between rays j and
    # j + 1, and the chain wraps at 7 pi/4
    rays = [-0.25 * math.pi, 0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 1.75 * math.pi]
    assert tuple(rays) == rv._SECTOR_RAYS
    for j, ray in enumerate(rays):
        for side in (-1.0, 1.0):
            for offset in (0.0, side * 5e-9):
                with pytest.raises(SectorBoundaryError):
                    z_parametrix(NU05, 2.0 * cmath.exp(1j * (ray + offset)))
            w = 2.0 * cmath.exp(1j * (ray + side * 1e-6))
            assert rv._z_sector(w) == (j - (side < 0)) % 5
            assert abs(np.linalg.det(z_parametrix(NU05, w)) + 1.0) < 1e-10


def test_z_large_w_expansion_slope():
    # beyond the two printed orders the residual decays like w^{-4}:
    # slope of each entry's correction over |w| in [10, 40] is <= -3.8
    nu = NU05
    m0 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    m1 = np.array([[(nu + 1) * (nu + 2) / 2, -nu * (nu - 1) / 2],
                   [(nu + 1) * (nu - 2) / 2, nu * (nu + 3) / 2]], dtype=complex)
    ray = cmath.exp(0.125j * math.pi)  # inside sector 1
    pts = {(i, j): [] for i in range(2) for j in range(2)}
    for r in np.geomspace(10.0, 40.0, 8):
        w = r * ray
        ln_w = math.log(r) + 1j * rv._chain_arg(w)
        z = z_parametrix(nu, w)
        scale = cmath.exp(0.25 * w * w - (nu + 0.5) * ln_w)
        half = cmath.exp(0.5 * ln_w)
        lead = (z * math.sqrt(2.0)
                @ np.diag([1.0 / scale, scale]))
        lead = np.diag([half, 1.0 / half]) @ lead
        resid = lead - m0 - m1 / (w * w)
        for i in range(2):
            for j in range(2):
                pts[(i, j)].append((r, abs(resid[i, j]) + 1e-300))
    for entry, data in pts.items():
        assert loglog_slope(data) <= -3.8, entry


# local parametrices ----------------------------------------------------------

def test_t_right_annulus_guard():
    with pytest.raises(DomainError):
        t_right_parametrix(P05, 50.0, 0.5 + 0.01j)
    with pytest.raises(DegenerateParamsError):
        t_right_parametrix(make_params(0.0, 0.0), 50.0, 0.5 + 0.15j)


@pytest.mark.parametrize("pair", [(0.0, 1e-200), (1e-200, 0.0)])
def test_t_right_rejects_underflowing_d(pair):
    # not the degenerate pair, but d^2 underflows, so nu = h1 = 0 there;
    # make_params rejects such pairs, so the pair is built directly
    p = ASParams(*pair)
    assert not p.degenerate and rh_constants(p).nu == 0
    with pytest.raises(DegenerateParamsError):
        t_right_parametrix(p, 50.0, 0.5 + 0.15j)
    with pytest.raises(DegenerateParamsError):
        parametrix_decay(p)


def _t_right_chain(p, t, z):
    # the parametrix as the product of its factors: four diagonal powers,
    # P(w), Z(w) and two more diagonal powers
    def diag_power(a):
        return np.array([[a, 0.0], [0.0, 1.0 / a]], dtype=complex)

    rc = rh_constants(p)
    theta, _, zeta = phase_maps(z)
    w = math.sqrt(t) * zeta
    a_fac = cmath.sqrt(-rc.h1 / stokes_triple(p).s3)
    p_mat = np.array([[w, 1.0], [1.0, 0.0]], dtype=complex)
    out = diag_power(beta_fn(z, t, rc.nu)) @ diag_power(1.0 / a_fac)
    out = out @ diag_power(cmath.exp(1j * t / 3.0)) @ diag_power(math.sqrt(0.5))
    out = out @ p_mat @ z_parametrix(rc.nu, w)
    return out @ diag_power(cmath.exp(t * theta)) @ diag_power(a_fac)


def test_t_right_matches_matrix_chain():
    worst = 0.0
    for pair in ACCEPTANCE_PAIRS:
        p = make_params(*pair)
        for t in np.geomspace(10.0, 1000.0, 13):
            for z in _ring_points(16):
                ref = _t_right_chain(p, t, z)
                got = t_right_parametrix(p, t, z)
                worst = max(worst, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    assert worst <= 1e-13


@pytest.mark.parametrize("pair", ACCEPTANCE_PAIRS)
def test_parametrices_take_numpy_and_python_floats_alike(pair):
    # the sweeps take t from np.geomspace; the result is the float t's
    p = make_params(*pair)
    z = 0.5 + 0.15 * cmath.exp(0.7j)
    for t in np.geomspace(10.0, 1000.0, 5):
        assert type(t) is np.float64
        for f, args in ((t_right_parametrix, (z,)), (m_pred, (z, "right")),
                        (t_left_parametrix, (-z,)), (m_pred, (-z, "left"))):
            rv._point_terms.cache_clear()
            got = f(p, t, *args)
            rv._point_terms.cache_clear()
            assert np.array_equal(got, f(p, float(t), *args))
        assert np.array_equal(beta_fn(z, t, NU05), beta_fn(z, float(t), NU05))


def test_sigma2_symmetry_exact():
    z = 0.5 + 0.12 * cmath.exp(0.9j)
    tl = t_left_parametrix(P253, 40.0, -z)
    tr = t_right_parametrix(P253, 40.0, z)
    assert np.array_equal(tl, SIGMA2 @ tr @ SIGMA2)


def test_m_pred_identity_at_degenerate():
    m = m_pred(make_params(0.0, 0.0), 50.0, 0.5 + 0.15j, "right")
    assert np.array_equal(m, np.eye(2))


def test_m_pred_trace_identity():
    z = 0.5 + 0.13 * cmath.exp(0.4j)
    t = 80.0
    nu = rh_constants(P253).nu
    zeta = phase_maps(z)[2]
    m = m_pred(P253, t, z, "right")
    assert abs(np.trace(m) - (2.0 + nu / (t * zeta ** 2))) < 1e-14


def test_m_pred_left_right_mirror():
    z = -0.5 + 0.13 * cmath.exp(1.1j)
    t = 60.0
    left = m_pred(P253, t, z, "left")
    right = m_pred(P253, t, -z, "right")
    assert np.array_equal(left, SIGMA2 @ right @ SIGMA2)


def test_sweep_point_terms_formed_once(monkeypatch):
    # t_right_parametrix and then m_pred at one (p, t, z) form phase_maps and
    # beta_fn once between them, on either side
    calls = {"phase_maps": 0, "beta_fn": 0}

    def counted(name):
        f = getattr(rv, name)

        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    for name in calls:
        monkeypatch.setattr(rv, name, counted(name))
    rv._point_terms.cache_clear()
    z = 0.5 + 0.15 * cmath.exp(0.7j)
    t_right_parametrix(P253, 40.0, z)
    m_pred(P253, 40.0, z, "right")
    assert calls == {"phase_maps": 1, "beta_fn": 1}
    t_left_parametrix(P253, 60.0, -z)
    m_pred(P253, 60.0, -z, "left")
    assert calls == {"phase_maps": 2, "beta_fn": 2}


def test_sweep_point_memo_holds_one_point():
    assert rv._point_terms.cache_info().maxsize == 1


def test_sweep_point_memo_is_bit_identical():
    # interleaved calls at two pairs sharing (t, z), on both sides, against
    # the same calls each made with the memo emptied first
    t, z = 40.0, 0.5 + 0.15 * cmath.exp(0.7j)
    seq = [(t_right_parametrix, (P05, t, z)), (m_pred, (P05, t, z, "right")),
           (t_right_parametrix, (P253, t, z)), (m_pred, (P05, t, z, "right")),
           (m_pred, (P253, t, z, "right")), (t_left_parametrix, (P253, t, -z)),
           (m_pred, (P253, t, -z, "left")), (t_right_parametrix, (P05, t, z)),
           (t_left_parametrix, (P05, t, -z)), (m_pred, (P253, t, z, "right"))]
    memo = [f(*args) for f, args in seq]
    for (f, args), got in zip(seq, memo):
        rv._point_terms.cache_clear()
        assert np.array_equal(f(*args), got)


@pytest.mark.parametrize("pair", [(0.0, 0.5), (0.25, 0.3)])
def test_parametrix_decay(pair):
    p = make_params(*pair)
    pts = parametrix_decay(p)
    assert loglog_slope(pts) <= -1.4
    at_100 = [n for (t, n) in pts if abs(t - 100.0) < 25.0][0]
    assert at_100 < 1e-2
