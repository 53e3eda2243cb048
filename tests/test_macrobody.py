"""Physical parameters, smeared density, damping rate."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate

from collapsim import (
    MacroBody,
    MacroParams,
    com_offdiag_decay,
    gamma_of_t,
    macro_damping_rate,
    macro_damping_rate_quadrature,
    smeared_density,
)
from collapsim.errors import ConfigError, InvalidInterval
from collapsim.macrobody import SPEED_OF_LIGHT_CM_S, _pair_bracket

ORIGIN = np.zeros(3)


def box_integral_3d(fn, lo, hi, n=64):
    """Tensor Gauss-Legendre quadrature over a box; oracle helper."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    axes = [(0.5 * (h - l) * xg + 0.5 * (h + l), 0.5 * (h - l) * wg) for l, h in zip(lo, hi)]
    pts = np.stack(np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij"), axis=-1)
    w = axes[0][1][:, None, None] * axes[1][1][None, :, None] * axes[2][1][None, None, :]
    return float(np.sum(w * fn(pts)))


def test_default_parameters():
    p = MacroParams()
    assert 1.0 / math.sqrt(p.alpha) == pytest.approx(1.0e-5, rel=1e-12)
    assert p.lam == 1.0e-16
    assert p.beta == pytest.approx(SPEED_OF_LIGHT_CM_S**2 * 1.0e10, rel=1e-15)
    assert p.gamma == pytest.approx(p.lam * (4.0 * math.pi / p.alpha) ** 1.5, rel=1e-15, abs=0.0)


def test_unit_bridge_exact():
    # gamma (alpha / 4 pi)^{3/2} cancels to lambda; the coefficient the rate
    # formulas actually use is exactly lambda, and the float recomputation
    # agrees to rounding
    p = MacroParams()
    assert p.reduction_rate_coeff == p.lam  # exact, by construction
    assert p.gamma * (p.alpha / (4.0 * math.pi)) ** 1.5 == pytest.approx(p.lam, rel=1e-12, abs=0.0)


def test_gamma_of_t_limits():
    p = MacroParams()
    assert gamma_of_t(p, p.t0) == 0.0
    # default beta makes saturation essentially instantaneous
    assert gamma_of_t(p, p.t0 + 1.0e-14) == pytest.approx(p.gamma, rel=1e-10, abs=0.0)
    with pytest.raises(InvalidInterval):
        gamma_of_t(p, p.t0 - 1.0)
    # monotone rise from zero at order-one beta
    p1 = MacroParams(beta=1.0)
    vals = [gamma_of_t(p1, t) for t in (0.0, 0.5, 1.0, 5.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_smeared_density_peak_and_normalization():
    p = MacroParams()
    body = MacroBody([[0.0, 0.0, 0.0]])
    q = np.array([1.0e-5, -2.0e-5, 0.5e-5])
    peak = smeared_density(body, q, q + body.offsets[0], p)
    assert peak == pytest.approx((p.alpha / (2.0 * math.pi)) ** 1.5, rel=1e-12)
    # integral over all space counts constituents: N = 2 here
    body2 = MacroBody([[0.0, 0.0, 0.0], [3.0e-5, 0.0, 0.0]])
    sigma = 1.0 / math.sqrt(p.alpha)
    lo = q + np.array([-8.0 * sigma, -8.0 * sigma, -8.0 * sigma])
    hi = q + np.array([3.0e-5 + 8.0 * sigma, 8.0 * sigma, 8.0 * sigma])
    total = box_integral_3d(lambda pts: smeared_density(body2, q, pts, p), lo, hi, n=72)
    assert total == pytest.approx(2.0, rel=1e-6)


def test_smeared_density_translation_invariance():
    p = MacroParams()
    body = MacroBody([[1.0e-5, 0.0, -1.0e-5], [0.0, 2.0e-5, 0.0]])
    q = np.array([2.0e-5, 1.0e-5, 0.0])
    x = np.array([1.5e-5, -0.5e-5, 1.0e-5])
    shift = np.array([3.3e-5, -1.1e-5, 0.7e-5])
    a = smeared_density(body, q, x, p)
    b = smeared_density(body, q + shift, x + shift, p)
    assert b == pytest.approx(a, rel=1e-10)


def test_damping_rate_zero_at_equal_arguments():
    p = MacroParams()
    body = MacroBody.lattice(3, 2.0e-5)
    q = np.array([1.0e-4, 2.0e-5, 0.0])
    assert macro_damping_rate(body, q, q, 1.0e-12, p) == 0.0
    rates = macro_damping_rate(body, q, q, [0.0, 1.0e-16, 1.0e-12, 3.0e14], p)
    assert rates.shape == (4,) and np.all(rates == 0.0)


def test_damping_rate_over_an_array_of_times():
    # one call over many times gives exactly the scalar calls' values, in t's shape
    p = MacroParams()
    body = MacroBody.lattice(5, 12.0 / math.sqrt(p.alpha))
    dq = np.array([3.0e-5, 1.0e-5, 0.0])
    times = np.array([[0.0, 1.0e-16, 2.0e-16], [5.0e-16, 1.0e-13, 1.0e14]])
    rates = macro_damping_rate(body, dq, ORIGIN, times, p)
    assert rates.shape == times.shape
    for t, rate in zip(times.ravel().tolist(), rates.ravel().tolist()):
        assert rate == macro_damping_rate(body, dq, ORIGIN, t, p)
    assert isinstance(macro_damping_rate(body, dq, ORIGIN, 1.0e-13, p), float)
    # a time before t0 anywhere in the array is rejected, displaced or not
    for q in (dq, ORIGIN):
        with pytest.raises(InvalidInterval):
            macro_damping_rate(body, q, ORIGIN, [1.0e-13, p.t0 - 1.0e-20, 1.0], p)


@pytest.mark.parametrize("dq", [1.0e-9, 1.0e-8])
def test_small_displacement_rate_matches_40_digit_bracket(dq):
    # same - shifted cancels as dq -> 0; the summed bracket keeps its digits
    p = MacroParams()
    body = MacroBody.lattice(30, 2.0e-5)
    with mpmath.workdps(40):
        a = mpmath.mpf(p.alpha) / 4
        xs = [mpmath.mpf(v) for v in body.offsets[:, 0].tolist()]
        d = mpmath.mpf(dq)
        bracket = mpmath.fsum(
            mpmath.exp(-a * (xi - xj) ** 2) - mpmath.exp(-a * (d + xi - xj) ** 2) for xi in xs for xj in xs
        )
        want = float(mpmath.mpf(p.lam) * bracket)  # gamma(t)/gamma = 1 at t = 1 s
    rate = macro_damping_rate(body, np.array([dq, 0.0, 0.0]), ORIGIN, 1.0, p)
    assert rate == pytest.approx(want, rel=1e-10, abs=0.0)


def test_pair_bracket_row_blocks_match_40_digit_sum():
    # a 130-site lattice with dq on its axis (blocks of 64, 64 and 2 rows) and a
    # 70-point 3-D body with dq off every axis (64 and 6 rows)
    p = MacroParams()
    rng = np.random.default_rng(16)
    cases = [
        (MacroBody.lattice(130, 1.5e-5), np.array([3.7e-5, 0.0, 0.0])),
        (MacroBody(rng.normal(scale=3.0e-5, size=(70, 3))), np.array([2.1e-5, -1.3e-5, 0.7e-5])),
    ]
    for body, dq in cases:
        with mpmath.workdps(40):
            a = mpmath.mpf(p.alpha) / 4
            qs = [[mpmath.mpf(v) for v in row] for row in body.offsets.tolist()]
            d = [mpmath.mpf(v) for v in dq.tolist()]
            want = float(mpmath.fsum(
                mpmath.exp(-a * sum((u - v) ** 2 for u, v in zip(qi, qj)))
                - mpmath.exp(-a * sum((w + u - v) ** 2 for w, u, v in zip(d, qi, qj)))
                for qi in qs for qj in qs
            ))
        got = _pair_bracket(body, tuple(dq), (0.0, 0.0, 0.0), p.alpha)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _three_plane_bracket(body, dq, alpha, rows=64):
    """The pair bracket as it was summed before identically zero planes were skipped: all three planes."""
    off, k, total = body.offsets, alpha / 4.0, 0.0
    for lo in range(0, len(off), rows):
        rel = [off[lo : lo + rows, None, c] - off[None, :, c] for c in range(3)]
        sh = [rel[c] + dq[c] for c in range(3)]
        r2, s2 = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2] for p in (rel, sh))
        kc = k * (2.0 * (rel[0] * dq[0] + rel[1] * dq[1] + rel[2] * dq[2]) + dq @ dq)
        shifted = kc < -1.0
        sign = np.where(shifted, -1.0, 1.0)
        total -= np.sum(sign * np.exp(-k * np.where(shifted, s2, r2)) * np.expm1(-sign * kc))
    return float(total)


def test_pair_bracket_skips_zero_planes_bit_for_bit():
    # a lattice on the x axis with dq along x has two planes of exact +0.0; a 3-D body has none.  Both
    # brackets keep the bits of the three-plane sum, and so do a dq along y and a dq with a -0.0 entry
    p = MacroParams()
    rng = np.random.default_rng(27)
    bodies = [MacroBody.lattice(130, 1.5e-5), MacroBody(rng.normal(scale=3.0e-5, size=(70, 3)))]
    dqs = [(3.7e-5, 0.0, 0.0), (2.1e-5, -1.3e-5, 0.7e-5), (0.0, 1.1e-5, 0.0), (4.0e-6, -0.0, 0.0)]
    for body in bodies:
        for dq in dqs:
            want = _three_plane_bracket(body, np.array(dq), p.alpha)
            got = _pair_bracket.__wrapped__(body, dq, (0.0, 0.0, 0.0), p.alpha)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), dq


def test_pair_bracket_memory_grows_linearly_in_n():
    # one uncached call's tracemalloc peak: (N, N, 3) temporaries would grow 16x from N = 200
    # to N = 800, row blocks 4x
    peaks = {}
    for n in (200, 800):
        body = MacroBody.lattice(n, 2.0e-5)
        _pair_bracket.cache_clear()
        tracemalloc.start()
        try:
            _pair_bracket(body, (3.0e-5, 0.0, 0.0), (0.0, 0.0, 0.0), MacroParams().alpha)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    _pair_bracket.cache_clear()
    assert peaks[800] < 6 * peaks[200]


def test_decay_and_rate_share_one_bracket_per_displacement():
    # the CLI's macro-rate asks for the decay and the rate at each dQ; the
    # O(N^2) pair bracket is computed once for both, with unchanged values
    p = MacroParams()
    body = MacroBody.lattice(40, 2.0e-5)
    times = [1.0e-13, 1.0e12]
    cold = {}
    for dq in (1.0e-5, 3.0e-5):
        q1 = np.array([dq, 0.0, 0.0])
        _pair_bracket.cache_clear()
        decay = com_offdiag_decay(body, q1, ORIGIN, times, p)
        _pair_bracket.cache_clear()
        cold[dq] = decay, macro_damping_rate(body, q1, ORIGIN, times, p)
    _pair_bracket.cache_clear()
    for dq, (decay, rate) in cold.items():
        q1 = np.array([dq, 0.0, 0.0])
        assert np.array_equal(com_offdiag_decay(body, q1, ORIGIN, times, p), decay)
        assert np.array_equal(macro_damping_rate(body, q1, ORIGIN, times, p), rate)
    info = _pair_bracket.cache_info()
    assert (info.hits, info.misses) == (2, 2)
    # an equal but distinct body is another key
    macro_damping_rate(MacroBody.lattice(40, 2.0e-5), np.array([3.0e-5, 0.0, 0.0]), ORIGIN, times, p)
    assert _pair_bracket.cache_info().misses == 3


def test_damping_rate_symmetry_and_positivity_random():
    p = MacroParams()
    rng = np.random.default_rng(2024)
    t = 1.0e-12
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        body = MacroBody(rng.normal(scale=3.0e-5, size=(n, 3)))
        q1 = rng.normal(scale=1.0e-4, size=3)
        q2 = rng.normal(scale=1.0e-4, size=3)
        g12 = macro_damping_rate(body, q1, q2, t, p)
        g21 = macro_damping_rate(body, q2, q1, t, p)
        scale = max(abs(g12), p.lam * n)
        assert abs(g12 - g21) <= 1.0e-12 * scale
        assert g12 >= -1.0e-12 * scale


def test_damping_rate_monotone_in_separation_single_site():
    p = MacroParams()
    body = MacroBody([[0.0, 0.0, 0.0]])
    t = 1.0e-12
    seps = np.linspace(0.0, 8.0e-5, 30)
    vals = [macro_damping_rate(body, np.array([s, 0, 0]), ORIGIN, t, p) for s in seps]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_single_site_saturates_at_lambda():
    p = MacroParams()
    body = MacroBody([[0.0, 0.0, 0.0]])
    far = np.array([10.0 / math.sqrt(p.alpha), 0.0, 0.0])
    val = macro_damping_rate(body, far, ORIGIN, 1.0e-12, p)
    # cross term e^{-25} is invisible at double precision
    assert val == pytest.approx(p.lam, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_closed_form_matches_quadrature(n_sites):
    p = MacroParams()
    sigma = 1.0 / math.sqrt(p.alpha)
    body = MacroBody.lattice(n_sites, 2.0 * sigma)
    t = 1.0e-12
    cases = [
        np.array([3.0 * sigma, 0.0, 0.0]),
        np.array([0.0, 1.5 * sigma, 0.0]),
        np.array([2.0 * sigma, 2.0 * sigma, -1.0 * sigma]),
        np.array([0.5 * sigma, 0.0, 0.2 * sigma]),
        np.array([5.0 * sigma, -1.0 * sigma, 0.0]),
    ]
    for dq in cases:
        closed = macro_damping_rate(body, dq, ORIGIN, t, p)
        quad = macro_damping_rate_quadrature(body, dq, ORIGIN, t, p, nodes_per_axis=96)
        assert quad == pytest.approx(closed, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("n_sites", [1, 10, 100])
def test_amplification_linear_in_n(n_sites):
    # lattice along x, displacement along y: all pair distances AND all
    # shifted pair distances |dQ + q_i - q_j| stay >= 10 sigma, which is the
    # separation the linear-in-N law needs
    p = MacroParams()
    spacing = 12.0 / math.sqrt(p.alpha)
    body = MacroBody.lattice(n_sites, spacing)
    dq = np.array([0.0, 15.0 / math.sqrt(p.alpha), 0.0])
    t = 1.0e-12
    single = macro_damping_rate(MacroBody.lattice(1, spacing), dq, ORIGIN, t, p)
    val = macro_damping_rate(body, dq, ORIGIN, t, p)
    assert val == pytest.approx(n_sites * single, rel=1e-6, abs=0.0)


def test_axis_aligned_displacement_keeps_residual_coherence():
    # when dQ sits 3 sigma away from a lattice vector the shifted overlap
    # term survives and the rate drops measurably below N x single
    p = MacroParams()
    s = 1.0 / math.sqrt(p.alpha)
    body = MacroBody.lattice(10, 12.0 * s)
    dq = np.array([15.0 * s, 0.0, 0.0])
    t = 1.0e-12
    single = macro_damping_rate(MacroBody.lattice(1, 12.0 * s), dq, ORIGIN, t, p)
    val = macro_damping_rate(body, dq, ORIGIN, t, p)
    deficit = (10.0 * single - val) / (10.0 * single)
    # 9 ordered pairs sit at 3 sigma and 8 more at 9 sigma from dQ
    want = (9.0 * math.exp(-2.25) + 8.0 * math.exp(-20.25)) / 10.0
    assert deficit == pytest.approx(want, rel=1e-9, abs=0.0)


def test_com_decay_identity_and_rate():
    p = MacroParams()
    body = MacroBody.lattice(4, 12.0 / math.sqrt(p.alpha))
    q = np.array([0.0, 2.0e-4, 0.0])  # perpendicular: clear of lattice vectors
    # visible decay needs t of order 1/(lambda N) = 2.5e15 s at the defaults
    times = np.array([0.0, 1.0e14, 1.0e15])
    dec = com_offdiag_decay(body, q, q, times, p)
    assert np.all(dec == 1.0)
    dec = com_offdiag_decay(body, q, ORIGIN, times, p)
    assert dec[0] == 1.0 and np.all(np.diff(dec) < 0.0)
    # late-time slope reproduces the saturated rate lambda N (the CSL value)
    t1, t2 = 1.0e15, 2.0e15
    d1, d2 = com_offdiag_decay(body, q, ORIGIN, [t1, t2], p)
    rate = -(math.log(d2) - math.log(d1)) / (t2 - t1)
    assert rate == pytest.approx(4.0 * p.lam, rel=1e-9, abs=0.0)
    # the quadrature-free exponent integrates gamma(u)/gamma exactly
    quad, _ = integrate.quad(lambda u: gamma_of_t(MacroParams(beta=1.0), u), 0.0, 3.0)
    body1 = MacroBody([[0.0, 0.0, 0.0]])
    p1 = MacroParams(beta=1.0)
    far = np.array([1.0e-3, 0.0, 0.0])
    want = math.exp(-quad * (p1.alpha / (4.0 * math.pi)) ** 1.5)
    got = com_offdiag_decay(body1, far, ORIGIN, [3.0], p1)[0]
    assert got == pytest.approx(want, rel=1e-8)


def test_efold_scale_for_large_bodies_via_identity():
    # 1e10 separated constituents: rate lambda N = 1e-6 / s, e-fold 1e6 s;
    # the algebraic cancellation is the oracle (no giant lattice needed)
    p = MacroParams()
    n = 1.0e10
    rate = p.reduction_rate_coeff * n
    assert rate == pytest.approx(1.0e-6, rel=1e-12, abs=0.0)
    assert 1.0 / rate == pytest.approx(1.0e6, rel=1e-12)


def test_body_constructors_and_validation(tmp_path):
    body = MacroBody.lattice(3, 1.0e-5)
    assert body.num_constituents == 3
    assert np.allclose(body.offsets[:, 0], [-1.0e-5, 0.0, 1.0e-5])
    csv_path = tmp_path / "body.csv"
    csv_path.write_text("i,qx,qy,qz\n0,0.0,0.0,0.0\n1,1e-5,0.0,0.0\n")
    loaded = MacroBody.from_csv(csv_path)
    assert loaded.num_constituents == 2
    with pytest.raises(ConfigError):
        MacroBody(np.zeros((0, 3)))
    with pytest.raises(ConfigError):
        MacroBody([[0.0, 1.0]])
    with pytest.raises(ConfigError):
        MacroParams(alpha=-1.0)
