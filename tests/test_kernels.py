"""Kernel closed forms against independent quadrature / high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from collapsim import (
    TimeGrid,
    build_covariance,
    divergence_check,
    exponential_kernel,
    gaussian_kernel,
    kernel_cumulative,
    kernel_double_integral,
    kernel_eval,
    tabulated_kernel,
    white_kernel,
)
from collapsim.errors import (
    ConfigError,
    InvalidInterval,
    UnsupportedPointwiseEval,
)
from collapsim.kernels import eval_zero_extended, kernel_from_config, load_kernel_table


def trapezoid_2d(kernel, t, t0, n=1000):
    """2-D trapezoid oracle for the double integral (independent of closed forms)."""
    s = np.linspace(t0, t, n + 1)
    mat = eval_zero_extended(kernel, s[:, None], s[None, :])
    return float(np.trapezoid(np.trapezoid(mat, s, axis=1), s, axis=0))


def tent_table(width=1.0, peak=1.0, points=41):
    """Triangular (Bartlett) kernel table: exactly piecewise linear and PSD."""
    lags = np.linspace(0.0, width, points)
    return lags, peak * (1.0 - lags / width)


# ---------------------------------------------------------------------------
# pointwise values


def test_gaussian_eval_zero_lag_frozen():
    # oracle: 40-digit evaluation of 1/sqrt(2 pi) = 0.39894228040143268
    k = gaussian_kernel(1.0, 1.0)
    assert kernel_eval(k, 2.3, 2.3) == pytest.approx(0.3989422804014327, rel=1e-14)


def test_exponential_eval_frozen():
    # oracle: (1/4) e^{-1} = 0.09196986029286058
    k = exponential_kernel(1.0, 2.0)
    assert kernel_eval(k, 3.0, 1.0) == pytest.approx(0.09196986029286058, rel=1e-14)


@given(
    t1=st.floats(-50, 50, allow_nan=False),
    t2=st.floats(-50, 50, allow_nan=False),
    tau=st.floats(0.05, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_eval_symmetry_property(t1, t2, tau):
    for k in (gaussian_kernel(1.0, tau), exponential_kernel(1.0, tau)):
        assert kernel_eval(k, t1, t2) == kernel_eval(k, t2, t1)


def test_eval_symmetry_on_grid():
    ts = np.linspace(-2.0, 3.0, 50)
    lags, vals = tent_table(width=6.0)
    kernels = [
        gaussian_kernel(1.0, 0.7),
        exponential_kernel(1.0, 0.4),
        tabulated_kernel(1.0, lags, vals),
    ]
    for k in kernels:
        a = kernel_eval(k, ts[:, None], ts[None, :])
        assert np.array_equal(a, a.T)


def test_white_has_no_pointwise_value():
    with pytest.raises(UnsupportedPointwiseEval):
        kernel_eval(white_kernel(1.0), 0.0, 0.0)


def test_tabulated_interpolation_and_range():
    lags, vals = tent_table(width=2.0, peak=0.5)
    k = tabulated_kernel(1.0, lags, vals)
    assert kernel_eval(k, 0.0, 0.0) == pytest.approx(0.5)
    assert kernel_eval(k, 1.0, 0.0) == pytest.approx(0.25)
    assert kernel_eval(k, 0.0, 1.0) == pytest.approx(0.25)
    assert kernel_eval(k, 0.0, 2.5) == 0.0  # zero beyond the last lag, as G, f and the covariance take it
    assert kernel_eval(k, [0.0, 3.0], 0.0).tolist() == [0.5, 0.0]


def test_tabulated_rejects_bad_tables():
    with pytest.raises(ConfigError):
        tabulated_kernel(1.0, [0.5, 1.0], [1.0, 0.0])  # lags must start at 0
    with pytest.raises(ConfigError):
        tabulated_kernel(1.0, [0.0, 0.0, 1.0], [1.0, 1.0, 0.0])  # not increasing


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("family", ["gaussian", "exponential"])
def test_unit_normalization_by_quadrature(family, tau):
    # The exponential tail still holds 6e-6 of mass at 12 tau, so its window
    # is widened to 30 tau to actually reach the 1e-8 normalization target;
    # the Gaussian window stays at 12 tau.
    if family == "gaussian":
        k, half = gaussian_kernel(1.0, tau), 12.0 * tau
    else:
        k, half = exponential_kernel(1.0, tau), 30.0 * tau
    val, _ = integrate.quad(lambda s: kernel_eval(k, 0.0, s), -half, half, limit=400)
    assert val == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# cumulative G


def test_cumulative_gaussian_infinite_history():
    # the noise starts at a finite t0 for every family: no stationary t0 = -inf history
    lags, vals = tent_table()
    kernels = [gaussian_kernel(2.0, 0.7), exponential_kernel(2.0, 0.7), white_kernel(2.0), tabulated_kernel(2.0, lags, vals)]
    for k in kernels:
        with pytest.raises(InvalidInterval, match="t0 must be finite"):
            kernel_cumulative(k, 5.0, -math.inf)


def test_cumulative_exponential_frozen():
    # oracle: adaptive quadrature gave 0.31606027941427883
    k = exponential_kernel(1.0, 2.0)
    assert kernel_cumulative(k, 2.0, 0.0) == pytest.approx(0.31606027941427883, rel=1e-14)


def test_cumulative_zero_length_interval():
    assert kernel_cumulative(gaussian_kernel(1.0, 1.0), 1.0, 1.0) == 0.0
    assert kernel_cumulative(exponential_kernel(1.0, 1.0), -2.0, -2.0) == 0.0
    lags, vals = tent_table()
    assert kernel_cumulative(tabulated_kernel(1.0, lags, vals), 0.3, 0.3) == 0.0


def test_cumulative_white_half_everywhere():
    k = white_kernel(3.0)
    assert kernel_cumulative(k, 1.0, 0.0) == 0.5
    assert kernel_cumulative(k, 0.0, 0.0) == 0.5  # delta at the edge counts half


def test_cumulative_invalid_interval():
    with pytest.raises(InvalidInterval):
        kernel_cumulative(gaussian_kernel(1.0, 1.0), 0.0, 1.0)
    lags, vals = tent_table()
    with pytest.raises(InvalidInterval):
        kernel_cumulative(tabulated_kernel(1.0, lags, vals), 1.0, -math.inf)


@pytest.mark.parametrize(
    "kernel",
    [
        gaussian_kernel(1.0, 0.6),
        exponential_kernel(1.0, 0.6),
        tabulated_kernel(1.0, *tent_table(width=3.0)),
    ],
)
def test_cumulative_matches_quadrature(kernel):
    t, t0 = 1.7, 0.2
    oracle, _ = integrate.quad(lambda s: kernel_eval(kernel, t, s), t0, t, limit=200)
    assert kernel_cumulative(kernel, t, t0) == pytest.approx(oracle, abs=1e-10)


# ---------------------------------------------------------------------------
# double integral f


def test_double_integral_white_is_span():
    assert kernel_double_integral(white_kernel(1.0), 3.5, 0.0) == 3.5


def test_double_integral_exponential_frozen():
    # closed form e^{-1}; 2-D trapezoid oracle at step 1e-3 agreed within 1e-5
    k = exponential_kernel(1.0, 1.0)
    val = kernel_double_integral(k, 1.0, 0.0)
    assert val == pytest.approx(0.36787944117144233, rel=1e-14)
    assert val == pytest.approx(trapezoid_2d(k, 1.0, 0.0, n=1000), abs=1e-5)


def test_double_integral_gaussian_vs_trapezoid_oracle():
    k = gaussian_kernel(1.0, 0.3)
    val = kernel_double_integral(k, 1.0, 0.0)
    assert val == pytest.approx(trapezoid_2d(k, 1.0, 0.0, n=2000), rel=1e-6)


def test_double_integral_tabulated_vs_trapezoid_oracle():
    k = tabulated_kernel(1.0, *tent_table(width=1.5, peak=0.8))
    val = kernel_double_integral(k, 2.0, 0.0)
    assert val == pytest.approx(trapezoid_2d(k, 2.0, 0.0, n=3000), rel=1e-5)


def test_double_integral_zero_span():
    assert kernel_double_integral(gaussian_kernel(1.0, 1.0), 0.5, 0.5) == 0.0
    assert kernel_double_integral(white_kernel(1.0), -1.0, -1.0) == 0.0


def test_double_integral_needs_finite_t0():
    with pytest.raises(InvalidInterval):
        kernel_double_integral(gaussian_kernel(1.0, 1.0), 1.0, -math.inf)
    with pytest.raises(InvalidInterval):
        kernel_double_integral(white_kernel(1.0), 0.0, 1.0)


@pytest.mark.parametrize(
    "kernel",
    [gaussian_kernel(1.0, 0.5), exponential_kernel(1.0, 0.5), white_kernel(1.0)],
)
def test_f_derivative_reproduces_2g(kernel):
    # identity df/dt = 2 G(t; t0) by kernel symmetry
    t0 = 0.0
    h = 1e-4
    for t in (0.3, 0.8, 2.0):
        fd = (
            kernel_double_integral(kernel, t + h, t0)
            - kernel_double_integral(kernel, t - h, t0)
        ) / (2.0 * h)
        g2 = 2.0 * kernel_cumulative(kernel, t, t0)
        assert fd == pytest.approx(g2, rel=1e-6)


def test_exponential_white_limit():
    horizon = 1.0
    k = exponential_kernel(1.0, 1.0e-3 * horizon)
    assert kernel_double_integral(k, horizon, 0.0) == pytest.approx(horizon, rel=2e-3)


def irregular_table(rows=200):
    """Unevenly spaced lags, D oscillating through zero many times."""
    rng = np.random.default_rng(7)
    lags = np.concatenate([[0.0], np.cumsum(rng.uniform(0.001, 0.05, rows - 1))])
    return lags, np.cos(9.0 * lags) * np.exp(-lags)


def table_oracle_40_digits(lags, vals, span):
    """(G, f) at 40 digits from each segment's exact polynomial antiderivative."""
    with mpmath.workdps(40):
        s, g, w = mpmath.mpf(span), mpmath.mpf(0), mpmath.mpf(0)
        for a, b, va, vb in zip(*(map(mpmath.mpf, c) for c in (lags[:-1], lags[1:], vals[:-1], vals[1:]))):
            if a >= s:
                break
            hi = min(b, s)
            slope = (vb - va) / (b - a)
            c0 = va - slope * a  # D(u) = c0 + slope u on this segment
            g += c0 * (hi - a) + slope * (hi**2 - a**2) / 2
            w += s * c0 * (hi - a) + (s * slope - c0) * (hi**2 - a**2) / 2 - slope * (hi**3 - a**3) / 3
        return float(g), float(2 * w)


@pytest.mark.parametrize("where", ["zero", "knot", "mid-segment", "last-lag", "beyond"])
def test_table_transforms_match_40_digit_oracle(where):
    lags, vals = irregular_table()
    span = {
        "zero": 0.0,
        "knot": lags[57],
        "mid-segment": 0.5 * (lags[120] + lags[121]),
        "last-lag": lags[-1],
        "beyond": 1.7 * lags[-1],
    }[where]
    k = tabulated_kernel(1.0, lags, vals)
    g, f = table_oracle_40_digits(lags, vals, float(span))
    for got, want in ((kernel_cumulative(k, span, 0.0), g), (kernel_double_integral(k, span, 0.0), f)):
        assert abs(got - want) <= 1e-14 * abs(want)


# ---------------------------------------------------------------------------
# PSD invariant and divergence reports


@pytest.mark.parametrize(
    "kernel",
    [
        gaussian_kernel(0.8, 0.35),
        exponential_kernel(1.3, 0.2),
        tabulated_kernel(1.0, *tent_table(width=1.0)),
    ],
)
def test_covariance_psd_floor_512_nodes(kernel):
    grid = TimeGrid(0.0, 2.0, 511)  # 512 nodes
    build_covariance(grid, kernel)  # factorizes within the jitter ladder
    # the factor keeps only L, so the unjittered matrix is rebuilt from the kernel
    # (zero-extended: the tent table ends at lag 1, inside the grid's span of 2)
    t = grid.nodes()
    cov = kernel.gamma * eval_zero_extended(kernel, t[:, None], t[None, :])
    eigs = np.linalg.eigvalsh(cov)
    floor = -1.0e-10 * float(np.max(np.diag(cov)))
    assert float(eigs.min()) >= floor


def test_divergence_white():
    rep = divergence_check(white_kernel(1.0), horizon=10.0, t0=0.0)
    assert rep.diverging and rep.nondecreasing
    assert rep.last_slope == pytest.approx(1.0, rel=1e-12)


def test_divergence_exponential_asymptotic_slope():
    rep = divergence_check(exponential_kernel(1.0, 1.0), horizon=50.0, t0=0.0)
    assert rep.diverging
    assert rep.last_slope == pytest.approx(1.0, rel=1e-2)


def test_divergence_flags_compact_oscillatory_table():
    # D integrates to zero over its support: f saturates at 2/3 (hand computed,
    # confirmed by the 2-D trapezoid oracle below), so no divergence.
    k = tabulated_kernel(1.0, [0.0, 1.0, 2.0], [1.0, -0.5, 0.0])
    assert kernel_double_integral(k, 5.0, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert kernel_double_integral(k, 5.0, 0.0) == pytest.approx(
        trapezoid_2d(k, 5.0, 0.0, n=4000), rel=1e-4
    )
    rep = divergence_check(k, horizon=200.0, t0=0.0)
    assert not rep.diverging
    assert rep.nondecreasing  # f grows to its plateau and stays there


def test_divergence_requires_horizon_past_t0():
    with pytest.raises(InvalidInterval):
        divergence_check(white_kernel(1.0), horizon=0.0, t0=0.0)


# ---------------------------------------------------------------------------
# config plumbing


def test_kernel_from_config_families(tmp_path):
    k = kernel_from_config({"family": "gaussian", "gamma": 2.0, "tau": 0.5})
    assert k.tau == 0.5 and k.gamma == 2.0
    k = kernel_from_config({"family": "white", "gamma": 1.5})
    assert k.gamma == 1.5
    path = tmp_path / "table.csv"
    path.write_text("lag,D\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
    k = kernel_from_config({"family": "tabulated", "gamma": 1.0, "table_path": str(path)})
    assert kernel_eval(k, 0.25, 0.0) == pytest.approx(0.75)


def test_kernel_from_config_rejects_garbage(tmp_path):
    with pytest.raises(ConfigError):
        kernel_from_config({"family": "mauve", "gamma": 1.0})
    with pytest.raises(ConfigError):
        kernel_from_config({"family": "Exponential", "gamma": 1.0, "tau": 1.0})  # names are exact
    with pytest.raises(ConfigError):
        kernel_from_config({"family": "gaussian", "gamma": 1.0})  # no tau
    with pytest.raises(ConfigError):
        kernel_from_config({"family": "gaussian", "gamma": -1.0, "tau": 1.0})
    with pytest.raises(ConfigError):
        kernel_from_config({"family": "white"})  # no gamma
    with pytest.raises(ConfigError, match="kernel.tau"):
        kernel_from_config({"family": "white", "gamma": 1.0, "tau": -5.0})
    with pytest.raises(ConfigError, match="kernel.table_path"):
        kernel_from_config({"family": "exponential", "gamma": 1.0, "tau": 1.0, "table_path": "nope.csv"})
    with pytest.raises(ConfigError, match="kernel.tau"):
        kernel_from_config({"family": "tabulated", "gamma": 1.0, "tau": 1.0, "table_path": "nope.csv"})
    bad = tmp_path / "bad.csv"
    bad.write_text("lag,D\n0.0,1.0\n")
    with pytest.raises(ConfigError):
        kernel_from_config({"family": "tabulated", "gamma": 1.0, "table_path": str(bad)})


def test_load_kernel_table_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.0,1.0\n1.0,0.25\n")
    lags, vals = load_kernel_table(path)
    assert lags.tolist() == [0.0, 1.0] and vals.tolist() == [1.0, 0.25]
    # one header row, as the first non-empty row, and blank lines anywhere
    path.write_text("\nlag,D\n\n0.0,1.0\n1.0,0.25\n\n")
    lags, vals = load_kernel_table(path)
    assert lags.tolist() == [0.0, 1.0] and vals.tolist() == [1.0, 0.25]


@pytest.mark.parametrize(
    "text, line",
    [
        ("lag,D\nfoo,bar\n0.0,1.0\n1.0,0.2\n", 2),  # a second text row is not a header
        ("lag,D\n0.0,1.0\n0.5\n1.0,0.2\n", 3),  # one column
        ("0.0,1.0\n\n0.5,0.3,9\n1.0,0.2\n", 3),  # three columns; blank lines count
        ("0.0,1.0\n0.5,x\n1.0,0.2\n", 2),  # a non-number after the first row
    ],
    ids=["second-text-row", "one-column", "three-columns", "non-number"],
)
def test_load_kernel_table_rejects_bad_rows_naming_the_line(tmp_path, text, line):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"t.csv line {line}:"):
        load_kernel_table(path)
