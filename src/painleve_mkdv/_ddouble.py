"""Compensated double-double arithmetic for series summation.

The Kummer series behind ``specfun.pcf_d`` loses ~e^{|Im w|} of relative
accuracy to cancellation once its argument oscillates hard; summing it in
complex double-double (~31 significant digits) keeps the 1e-11 target.  Only
the handful of operations that series loop needs are provided; numbers are
(hi, lo) float pairs with |lo| <= ulp(hi)/2.
"""

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float):
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(xh, xl, yh, yl):
    sh, sl = two_sum(xh, yh)
    sl += xl + yl
    return quick_two_sum(sh, sl)


def dd_mul(xh, xl, yh, yl):
    ph, pl = two_prod(xh, yh)
    pl += xh * yl + xl * yh
    return quick_two_sum(ph, pl)


def dd_mul_d(xh, xl, b):
    ph, pl = two_prod(xh, b)
    pl += xl * b
    return quick_two_sum(ph, pl)


def dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    th, tl = dd_mul_d(yh, yl, q1)
    rh, rl = dd_add(xh, xl, -th, -tl)
    q2 = rh / yh
    th, tl = dd_mul_d(yh, yl, q2)
    rh, rl = dd_add(rh, rl, -th, -tl)
    q3 = rh / yh
    qh, ql = quick_two_sum(q1, q2)
    return dd_add(qh, ql, q3, 0.0)


# Complex double-double numbers as (re_hi, re_lo, im_hi, im_lo) tuples.

def cdd_add(x, y):
    re = dd_add(x[0], x[1], y[0], y[1])
    im = dd_add(x[2], x[3], y[2], y[3])
    return re + im


def cdd_mul_cd(x, cr, ci):
    # complex-dd times complex-double
    a = dd_mul_d(x[0], x[1], cr)
    b = dd_mul_d(x[2], x[3], ci)
    re = dd_add(a[0], a[1], -b[0], -b[1])
    a = dd_mul_d(x[0], x[1], ci)
    b = dd_mul_d(x[2], x[3], cr)
    im = dd_add(a[0], a[1], b[0], b[1])
    return re + im


def cdd_mul_cdd(x, y):
    # full complex-dd product
    a = dd_mul(x[0], x[1], y[0], y[1])
    b = dd_mul(x[2], x[3], y[2], y[3])
    re = dd_add(a[0], a[1], -b[0], -b[1])
    a = dd_mul(x[0], x[1], y[2], y[3])
    b = dd_mul(x[2], x[3], y[0], y[1])
    im = dd_add(a[0], a[1], b[0], b[1])
    return re + im


def cdd_mul_d(x, c):
    return dd_mul_d(x[0], x[1], c) + dd_mul_d(x[2], x[3], c)


def cdd_div_cdd(x, v):
    # x / v with v = (vre_dd, vim_dd); conjugate trick with dd modulus
    vr = (v[0], v[1])
    vi = (v[2], v[3])
    a = dd_mul(x[0], x[1], *vr)
    b = dd_mul(x[2], x[3], *vi)
    num_re = dd_add(a[0], a[1], b[0], b[1])
    a = dd_mul(x[2], x[3], *vr)
    b = dd_mul(x[0], x[1], *vi)
    num_im = dd_add(a[0], a[1], -b[0], -b[1])
    a = dd_mul(*vr, *vr)
    b = dd_mul(*vi, *vi)
    s = dd_add(a[0], a[1], b[0], b[1])
    return dd_div(num_re[0], num_re[1], *s) + dd_div(num_im[0], num_im[1], *s)
