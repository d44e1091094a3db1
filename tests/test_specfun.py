"""Special-function kernels against a frozen high-precision oracle.

Reference values were computed once with mpmath at 30 significant digits
(power series / reflection identities / numerical differentiation) and are
frozen below; the Airy sweep also calls mpmath live, at 40 digits.  The
implementation under test never touches mpmath.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import painleve_mkdv.specfun as sf
from painleve_mkdv.errors import DomainError, PoleError, SpecFunRangeError
from painleve_mkdv.specfun import airy_ai, log_gamma, pcf_d

# (x, Ai(x), Ai'(x)) at 17 significant digits
AIRY_TABLE = [
    (0.0, 0.35502805388781724, -0.25881940379280680),
    (2.3, 0.021831993180622639, -0.035173122720818072),
    (-6.5, -0.23802030199711580, -0.67495249251320217),
    (9.0, 2.4711684308724898e-9, -7.4806413896589464e-9),
    (-9.0, -0.022133721547341404, -0.97566398092633159),
    (10.0, 1.1047532552898686e-10, -3.5206336767389236e-10),
    (12.0, 1.3931846888753608e-13, -4.8547365549853085e-13),
    (15.0, 2.1649625207379923e-18, -8.4205679540177728e-18),
    (-15.0, 0.27821749087082893, 0.27237420430864202),
]


@pytest.mark.parametrize("x,ai_ref,aip_ref", AIRY_TABLE)
def test_airy_reference_values(x, ai_ref, aip_ref):
    ai, aip = airy_ai(x)
    assert abs(ai - ai_ref) <= 1e-12 * abs(ai_ref)
    assert abs(aip - aip_ref) <= 1e-12 * abs(aip_ref)


def test_airy_matches_oracle():
    # relative on x > 0; against the (1+|x|)^{-/+1/4} envelope on x <= 0,
    # where Ai and Ai' oscillate through zeros
    with mp.workdps(40):
        for x in np.linspace(-30.0, 30.0, 601):
            ai, aip = airy_ai(x)
            ref = float(mp.airyai(x))
            refp = float(mp.airyai(x, derivative=1))
            if x > 0.0:
                scale, scale_p = abs(ref), abs(refp)
            else:
                scale, scale_p = (1.0 + abs(x)) ** -0.25, (1.0 + abs(x)) ** 0.25
            assert abs(ai - ref) <= 1e-12 * scale
            assert abs(aip - refp) <= 1e-12 * scale_p


def test_airy_asymptotic_envelope():
    # leading large-x law e^{-(2/3)x^{3/2}} / (2 sqrt(pi) x^{1/4})
    ai, _ = airy_ai(10.0)
    lead = math.exp(-2.0 / 3.0 * 10.0 ** 1.5) / (2.0 * math.sqrt(math.pi) * 10.0 ** 0.25)
    assert abs(ai - lead) / ai < 5e-3


def test_airy_rejects_nan():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            airy_ai(x)


def test_log_gamma_rejects_nan():
    for z in (complex("nan"), complex(math.inf, 0.0), complex(1.0, -math.inf)):
        with pytest.raises(DomainError):
            log_gamma(z)


# log-Gamma ------------------------------------------------------------------

LOGGAMMA_TABLE = [
    (1.0 + 0.0j, 0.0 + 0.0j),
    (0.3 + 0.4j, 0.49665590338172580 - 0.98274344760714666j),
    (-3.2 + 0.7j, -2.3406078939632626 - 10.713635915626588j),
    (-3.2 - 0.7j, -2.3406078939632626 + 10.713635915626588j),
    (-17.5 + 2.0j, -39.277772095541729 - 50.763570243203530j),
    (0.0 + 20.0j, -31.994854139470255 + 39.125080293545000j),
    (-2.5 + 0.0j, -0.056243716497674051 - 9.4247779607693797j),
    (complex(-2.5, -0.0), -0.056243716497674051 - 9.4247779607693797j),
]


@pytest.mark.parametrize("z,ref", LOGGAMMA_TABLE)
def test_log_gamma_reference_values(z, ref):
    got = log_gamma(z)
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_gamma_reflection_modulus():
    # |Gamma(iy)|^2 = pi / (y sinh(pi y)), the independent oracle route
    got = abs(cmath.exp(log_gamma(1j)))
    want = math.sqrt(math.pi / math.sinh(math.pi))
    assert abs(got - want) <= 1e-12
    assert abs(want - 0.52156404686493984) <= 1e-15


def test_log_gamma_arg_near_origin():
    # high-precision oracle value; also consistent with the expansion
    # -pi/2 - gamma*y + O(y^3)
    y = 0.0457859
    got = log_gamma(1j * y).imag
    assert abs(got - (-1.5971862480817344)) <= 1e-12
    expansion = -0.5 * math.pi - 0.5772156649015329 * y
    assert abs(got - expansion) <= 0.5 * y ** 3


@given(st.complex_numbers(min_magnitude=0.01, max_magnitude=19.0,
                          allow_infinity=False, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_log_gamma_recurrence(z):
    if z.imag == 0.0 and z.real <= 0.0:
        return
    lhs = log_gamma(z + 1.0)
    rhs = log_gamma(z) + cmath.log(z)
    diff = lhs - rhs
    # imaginary parts may differ by a multiple of 2 pi only off the principal
    # region; on the shifted path they agree exactly
    assert abs(diff.real) <= 1e-12 * max(1.0, abs(lhs.real))
    assert abs(math.remainder(diff.imag, 2.0 * math.pi)) <= 1e-11


def test_log_gamma_pole():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            log_gamma(z)


# Parabolic cylinder ---------------------------------------------------------

# (nu, z, D_nu(z), dD_nu/dz) frozen from the 30-digit oracle
PCF_TABLE = [
    ((0 - 0.0458j), (1.0 + 0.5j),
     (0.81238096393322811 - 0.21987706324634255j),
     (-0.47369123606740618 - 0.11425013718318040j)),
    ((0.3 + 0j), (-2.0 + 3.0j),
     (-4.4528813659219104 - 2.4851362383541396j),
     (-8.2267945660356394 + 4.5731665633796174j)),
    ((1 + 0.2j), (4.0 - 4.0j),
     (1.9128248443062615 + 6.3581527686005601j),
     (-17.299871936029325 - 7.9737386158398118j)),
    ((-0.5 + 0.1j), (7.4 + 0.3j),
     (2.5283487158293466e-7 - 3.3744905849847814e-7j),
     (-9.9735260852017452e-7 + 1.2365998978886890e-6j)),
    ((-0.5 + 0.1j), (7.6 + 0.3j),
     (1.1362129189114184e-7 - 1.6047567211436617e-7j),
     (-4.6063558834682008e-7 + 6.0469774378782825e-7j)),
    ((0 - 0.142j), 12.0j,
     (5057126260348442.3 - 1859523356293102.4j),
     (-11217429708132700.0 - 30320658297658977.0j)),
    ((0 - 0.142j), (-11.0 + 0.5j),
     (325137353463.47842 - 281351537065.46184j),
     (-1690213980828.1766 + 1599698126028.5580j)),
    ((2 + 0j), (-9.0 - 9.0j),
     (55.075010140495011 - 152.35400637339463j),
     (944.38120396814771 - 414.77541102586082j)),
    ((0.7 - 0.7j), (3.0 - 3.0j),
     (-1.5496845510053813 + 0.28599529977879550j),
     (1.5211065039884749 - 2.6762418902611211j)),
]


@pytest.mark.parametrize("nu,z,val_ref,der_ref", PCF_TABLE)
def test_pcf_reference_values(nu, z, val_ref, der_ref):
    val, der = pcf_d(nu, z)
    assert abs(val - val_ref) <= 1e-10 * abs(val_ref)
    assert abs(der - der_ref) <= 1e-10 * abs(der_ref)


def test_pcf_gaussian_identity():
    # D_0(z) = e^{-z^2/4}
    for z in (1.3, -2.0 + 0.7j, 4.0j, 6.0, -5.5):
        val, der = pcf_d(0.0, z)
        want = cmath.exp(-complex(z) ** 2 / 4.0)
        assert abs(val - want) <= 1e-14 * abs(want) + 1e-300
        assert abs(der - (-0.5 * complex(z)) * want) <= 1e-12 * max(abs(want), 1e-30)


def test_pcf_dminus1_at_zero():
    val, _ = pcf_d(-1.0, 0.0)
    assert abs(val - math.sqrt(math.pi / 2.0)) <= 1e-13


@pytest.mark.parametrize("nu", [-0.5j, 0.3, 1 + 0.2j])
def test_pcf_recurrences(nu):
    # three-term recurrence and the derivative relation, sampled over the
    # square [-4, 4] x [-4, 4]
    zs = [complex(x, y) for x in (-4.0, -1.5, 0.5, 2.5, 4.0)
          for y in (-4.0, -1.0, 0.0, 2.0, 4.0)]
    for z in zs:
        v_hi, _ = pcf_d(nu + 1.0, z)
        v_mid, d_mid = pcf_d(nu, z)
        v_lo, _ = pcf_d(nu - 1.0, z)
        scale = max(1.0, abs(v_hi), abs(v_mid), abs(v_lo))
        assert abs(v_hi - z * v_mid + nu * v_lo) <= 1e-10 * scale
        assert abs(d_mid + 0.5 * z * v_mid - nu * v_lo) <= 1e-10 * scale


def test_pcf_range_guard():
    with pytest.raises(SpecFunRangeError):
        pcf_d(0.3, 60.0)
    for nu, z in ((complex("nan"), 1.0), (0.3, math.inf), (0.3, complex(0.0, -math.inf))):
        with pytest.raises(DomainError):
            pcf_d(nu, z)


# The cancellation band |Im z^2| > 18, Re z^2 <= 6, |z| < 7.6: the terms of
# the even/odd series cancel there, and D_nu comes from Taylor transport of
# the Weber ODE outward from z = 0, or, where it is recessive (Re z > 0,
# Re z^2 > 0), from the wedge's continued fraction.
BAND_ORDERS = [-0.0458j, -1 + 0.0458j, -0.5j, -1 + 0.5j, 0.3 + 0.2j]
# |nu| = 2 orders, where D_nu is smallest next to its even and odd parts
ORDERS_TWO = [-1 + 2j, -2j, 2.0, -2.0, -1 - 2j, 1.5j]
# the orders nu = -2.567i and -nu - 1 of the parametrix Z at the edge pair
# (alpha, k) = (0.4999, 0), rounded outward
ORDERS_EDGE = [-2.58j, -1 + 2.58j]


def _seeded_points(seed, count, keep):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        z = complex(*rng.uniform(-7.6, 7.6, size=2))
        if abs(z) < 7.6 and keep(z, z * z):
            pts.append(z)
    return pts


def _band_points(seed, count):
    return _seeded_points(seed, count,
                          lambda z, z2: abs(z2.imag) > 18.0 and z2.real <= 6.0)


def _wedge_points(seed, count):
    return _seeded_points(seed, count, lambda z, z2: z2.real > 6.0 and z.real >= 0.0)


def _assert_matches_oracle(orders, pts, rel):
    # D and D' relative to mpmath, the orders taken in turn over the points;
    # D_nu' = (z/2) D_nu - D_{nu+1}
    with mp.workdps(30):
        for j, z in enumerate(pts):
            nu = orders[j % len(orders)]
            val, der = pcf_d(nu, z)
            ref = mp.pcfd(nu, z)
            refd = complex(0.5 * z * ref - mp.pcfd(nu + 1, z))
            ref = complex(ref)
            assert abs(val - ref) <= rel * abs(ref)
            assert abs(der - refd) <= rel * abs(refd)


def test_pcf_cancellation_band_matches_oracle():
    _assert_matches_oracle(BAND_ORDERS, _band_points(8, 40), 1e-10)


def test_pcf_band_transport_matches_oracle():
    # the worst relative error measured here is 9.0e-13
    _assert_matches_oracle(ORDERS_TWO, _band_points(12, 60), 5e-12)


def test_pcf_band_at_edge_orders_matches_oracle():
    # the worst relative error measured here is 6.0e-12: the rounding of
    # D_nu(0) and D_nu'(0), carried outward by the growing solution, which
    # 2, 4 and 8 steps read alike
    _assert_matches_oracle(ORDERS_EDGE, _band_points(21, 94), 1.5e-11)


def _series_region_points(seed, count):
    # below the ring with |Im z^2| <= 18, outside the reflected zone
    # (Re z^2 > 6, Re z < 0) and the wedge path's zone (Re z^2 > 6, Re z > 0):
    # the region the even/odd Kummer series used to cover, where D_nu comes
    # from Taylor transport outward from z = 0
    return _seeded_points(seed, count,
                          lambda z, z2: abs(z2.imag) <= 18.0 and z2.real <= 6.0)


def test_pcf_series_region_matches_oracle():
    # the worst relative errors measured here are 2.5e-12 at |nu| = 2 and
    # 5.1e-12 at the edge orders (the Kummer series read 4.4e-11 and 1.2e-10)
    _assert_matches_oracle(ORDERS_TWO, _series_region_points(22, 100), 1e-11)
    _assert_matches_oracle(ORDERS_EDGE, _series_region_points(23, 100), 1.5e-11)


def test_pcf_wedge_matches_oracle():
    # the right near-real wedge Re z^2 > 6, Re z >= 0, |z| < 7.6, where D_nu
    # comes from the continued fraction for D_{nu+1}/D_nu and the Wronskian
    # with D_{-nu-1}(-+iz)
    _assert_matches_oracle(BAND_ORDERS, _wedge_points(10, 40), 1e-10)


def test_pcf_wedge_at_order_two_matches_oracle():
    # the worst relative error measured here is 7.8e-13 in D and in D'
    _assert_matches_oracle(ORDERS_TWO, _wedge_points(14, 60), 2e-12)


def _recessive_band_points(seed, count):
    # band points where D_nu is recessive, which take the wedge's path
    return _seeded_points(seed, count, lambda z, z2: abs(z2.imag) > 18.0
                          and 0.0 < z2.real <= 6.0 and z.real > 0.0)


def _orders_in_turn(pts):
    return [(BAND_ORDERS[j % len(BAND_ORDERS)], z) for j, z in enumerate(pts)]


def _clear_specfun_caches():
    for fn in (sf._pcf_core, sf._pcf_at_zero, sf._origin_parts):
        fn.cache_clear()


def test_pcf_band_transport_stops_before_its_cap(monkeypatch):
    # every Taylor step of the transport from z = 0 ends on its own stopping
    # test: raising the coefficient cap changes no bit.  Band points take two
    # steps; just inside |z| = 4 near the imaginary axis one step is longest
    near_axis = [3.99 * cmath.exp(1j * (sign * 0.5 * math.pi + delta))
                 for sign in (1.0, -1.0) for delta in np.linspace(-0.3, 0.3, 7)]
    args = _orders_in_turn(_band_points(13, 60)) + [
        (nu, z) for nu in ORDERS_TWO + ORDERS_EDGE for z in near_axis]
    _clear_specfun_caches()
    capped = [pcf_d(nu, z) for nu, z in args]
    longer = tuple((1.0 / ((m + 2.0) * (m + 1.0)), m + 2.0)
                   for m in range(4 * sf._TAYLOR_TERMS - 2))
    assert longer[:len(sf._TERM_TABLE)] == sf._TERM_TABLE
    monkeypatch.setattr(sf, "_TERM_TABLE", longer)
    _clear_specfun_caches()
    assert [pcf_d(nu, z) for nu, z in args] == capped


def test_pcf_wedge_fraction_stops_before_its_cap(monkeypatch):
    # on seeded wedge points and on band points where D_nu is recessive the
    # continued fraction ends on its own stopping test: raising its term cap
    # changes no bit
    args = _orders_in_turn(_wedge_points(11, 60) + _recessive_band_points(15, 60))
    capped = [pcf_d(nu, z) for nu, z in args]
    monkeypatch.setattr(sf, "_CF_TERMS", 4 * sf._CF_TERMS)
    sf._pcf_core.cache_clear()
    assert [pcf_d(nu, z) for nu, z in args] == capped


def test_pcf_wedge_fraction_raises_at_its_cap(monkeypatch):
    monkeypatch.setattr(sf, "_CF_TERMS", 4)
    sf._pcf_core.cache_clear()
    with pytest.raises(SpecFunRangeError, match="continued fraction"):
        pcf_d(-0.5j, 3.0 + 0.5j)


# Reference loop: the asymptotic series as written before its factors moved
# to a module table.  The tabled kernel must reproduce it bit for bit.

def _loop_pcf_asym(nu, z):
    inv_z2 = 1.0 / (z * z)
    term = 1.0 + 0.0j
    total = term
    weighted = 0.0 + 0.0j
    prev = math.inf
    for s in range(0, 40):
        term = -term * (-nu + 2.0 * s) * (-nu + 2.0 * s + 1.0) * inv_z2 / (2.0 * (s + 1.0))
        mag = abs(term)
        if mag > prev:
            break
        total += term
        weighted += (s + 1.0) * term
        prev = mag
        if mag < 1e-18 * abs(total):
            break
    envelope = cmath.exp(-0.25 * z * z + nu * cmath.log(z))
    value = envelope * total
    deriv = envelope * ((-0.5 * z + nu / z) * total - 2.0 * weighted / z)
    return value, deriv


def _hex(values):
    return [x.hex() for c in values for x in (c.real, c.imag)]


def _general_orders(rng, count):
    # complex orders in the disc |nu| <= 2, not only imaginary ones
    orders = []
    while len(orders) < count:
        nu = complex(*rng.uniform(-2.0, 2.0, size=2))
        if abs(nu) <= 2.0:
            orders.append(nu)
    return orders


def test_tabled_asymptotic_series_matches_loop():
    # |arg z| <= pi/2 past the ring, where _pcf_core sums the series directly:
    # mostly |z| in [7.6, 9], where the most terms count (a regrouped product
    # changes ~0.4% of the values there and ~0.03% on [9, 50])
    rng = np.random.default_rng(18)
    radii = np.concatenate([rng.uniform(7.6, 9.0, 2000), rng.uniform(9.0, 50.0, 200)])
    for nu, r in zip(_general_orders(rng, len(radii)), radii):
        z = r * cmath.exp(1j * rng.uniform(-0.5, 0.5) * math.pi)
        assert _hex(sf._pcf_asym(nu, z)) == _hex(_loop_pcf_asym(nu, z))
