"""Activation kinds: pinned values vs math-library oracles, grid invariants,
softmax vector behavior, dispatch, and saturation-flag policy."""

import math

import numpy as np
import pytest

from neuric.activation import (
    AfConfig,
    AfKind,
    CapacityError,
    RangeError,
    apply,
    clamp_domain,
    eval_raw,
    exp_fx,
    gelu,
    relu,
    selu,
    sigmoid,
    softmax,
    softmax_acc_format as acc_format,
    softmax_raw,
    swish,
    tanh_af,
)
from neuric.fixedpoint import FXP8, FXP16, FXP32, Fx, FxFormat, from_real, quantize_raw

K = AfKind

SELU_L = 1.0507009873554805
SELU_A = 1.6732632423543772
GELU_C0 = math.sqrt(2.0 / math.pi)
GELU_C1 = 0.044715


def oracle_f(kind):
    """Double-precision reference for each kind's elementwise form."""
    return {
        K.SIGMOID: lambda x: 1.0 / (1.0 + math.exp(-x)),
        K.TANH: math.tanh,
        K.RELU: lambda x: max(x, 0.0),
        K.SWISH: lambda x: x / (1.0 + math.exp(-x)),
        K.GELU: lambda x: 0.5 * x * (1.0 + math.tanh(GELU_C0 * (x + GELU_C1 * x**3))),
        K.SELU: lambda x: SELU_L * x if x > 0 else SELU_L * SELU_A * (math.exp(x) - 1.0),
    }[kind]


def cfg16(kind=K.SIGMOID, **kw):
    return AfConfig(kind, FXP16, **kw)


def cfg8(kind=K.SIGMOID, **kw):
    return AfConfig(kind, FXP8, **kw)


class TestConfig:
    def test_iteration_default_tracks_fraction_bits(self):
        assert cfg16().n_iters == 14
        assert cfg8().n_iters == 7
        assert AfConfig(K.TANH, FXP32).n_iters == 30

    def test_explicit_iters(self):
        assert AfConfig(K.TANH, FXP16, n_iters=10).n_iters == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            AfConfig(K.TANH, FXP16, n_iters=0)
        with pytest.raises(ValueError):
            AfConfig(K.TANH, FXP16, max_norm=0.0)
        with pytest.raises(ValueError):
            AfConfig(K.TANH, FXP16, fifo_depth=0)
        with pytest.raises(ValueError):
            AfConfig(K.TANH, FxFormat(16, 15))   # not enough integer headroom

    def test_seven_kinds(self):
        assert len(AfKind) == 7

    def test_acc_format(self):
        assert acc_format(FXP16) == FxFormat(22, 12)
        assert acc_format(FXP8) == FxFormat(14, 5)

    def test_softmax_refused_where_accumulator_does_not_fit(self):
        # 38-bit accumulator + 4 engine guard bits exceed the 40-bit datapath
        with pytest.raises(ValueError, match=r"softmax is not available at q3\.28"):
            AfConfig(K.SOFTMAX, FXP32)
        assert AfConfig(K.TANH, FXP32).kind is K.TANH
        assert AfConfig(K.SOFTMAX, FXP16).kind is K.SOFTMAX


class TestExp:
    def test_zero(self):
        v = exp_fx(from_real(0.0, FXP16), cfg16())
        assert abs(v.value - 1.0) <= FXP16.lsb

    def test_one(self):
        v = exp_fx(from_real(1.0, FXP16), cfg16())
        assert abs(v.value - math.e) / math.e <= 0.02

    def test_max_norm_corner(self):
        x = from_real(-5.5, FXP16)
        v = exp_fx(x, cfg16())
        assert abs(v.value - math.exp(x.value)) <= 2 * FXP16.lsb

    def test_grid_tolerance(self):
        # error <= max(2% relative, 2 LSB absolute) across the domain where
        # the output is representable; the absolute arm covers outputs near
        # the quantization floor where no rounding can hold 2% relative
        cfg = cfg16()
        for x in np.linspace(-5.5, math.log(FXP16.max_value) - 0.01, 1001):
            xq = from_real(float(x), FXP16)
            t = math.exp(xq.value)
            v = exp_fx(xq, cfg)
            assert abs(v.value - t) <= max(0.02 * t, 2 * FXP16.lsb), xq.value

    def test_range_error(self):
        with pytest.raises(RangeError):
            exp_fx(from_real(5.6, FXP16), cfg16())
        with pytest.raises(RangeError):
            exp_fx(from_real(-5.7, FXP16), cfg16())

    def test_output_ceiling_saturates_with_flag(self):
        v = exp_fx(from_real(3.0, FXP16), cfg16())
        assert v.raw == FXP16.max_raw and v.sat

    def test_nonnegative(self):
        cfg = cfg16()
        for x in np.linspace(-5.5, 2.0, 301):
            assert exp_fx(from_real(float(x), FXP16), cfg).raw >= 0


class TestPinnedValues:
    LSB = FXP16.lsb

    def test_sigmoid(self):
        assert abs(sigmoid(from_real(0.0, FXP16), cfg16()).value - 0.5) <= self.LSB
        v = sigmoid(from_real(1.0, FXP16), cfg16(K.SIGMOID))
        t = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(v.value - t) / t <= 0.01

    def test_tanh(self):
        assert abs(tanh_af(from_real(0.0, FXP16), cfg16()).value) <= self.LSB
        v = tanh_af(from_real(0.5, FXP16), cfg16(K.TANH))
        assert abs(v.value - math.tanh(0.5)) / math.tanh(0.5) <= 0.01

    def test_relu(self):
        c = cfg16(K.RELU)
        assert relu(from_real(-0.7, FXP16), c).raw == 0
        assert relu(from_real(0.3, FXP16), c).raw == from_real(0.3, FXP16).raw
        assert relu(from_real(0.0, FXP16), c).raw == 0

    def test_swish(self):
        c = cfg16(K.SWISH)
        assert swish(from_real(0.0, FXP16), c).raw == 0
        t = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(swish(from_real(1.0, FXP16), c).value - t) / t <= 0.015
        corner = -5.5 / (1.0 + math.exp(5.5))
        assert abs(swish(from_real(-5.5, FXP16), c).value - corner) <= 3 * self.LSB

    def test_gelu(self):
        c = cfg16(K.GELU)
        assert gelu(from_real(0.0, FXP16), c).raw == 0
        f = oracle_f(K.GELU)
        assert abs(gelu(from_real(1.0, FXP16), c).value - f(1.0)) / f(1.0) <= 0.015
        assert abs(gelu(from_real(-1.0, FXP16), c).value - f(-1.0)) <= 2 * self.LSB

    def test_selu(self):
        c = cfg16(K.SELU)
        assert selu(from_real(0.0, FXP16), c).raw == 0
        assert abs(selu(from_real(1.0, FXP16), c).value - SELU_L) <= 2 * self.LSB
        t = SELU_L * SELU_A * (math.exp(-1.0) - 1.0)
        assert abs(selu(from_real(-1.0, FXP16), c).value - t) <= 3 * self.LSB


class TestGrids:
    """4096-point grid invariants on [-max_norm, max_norm], both formats."""

    def _grid(self, fmt):
        lo = max(-5.5, fmt.min_value)
        hi = min(5.5, fmt.max_value)
        raw, _ = quantize_raw(np.linspace(lo, hi, 4096), fmt)
        return raw

    @pytest.mark.parametrize("fmt", [FXP16, FXP8], ids=["fxp16", "fxp8"])
    @pytest.mark.parametrize("kind", [K.SIGMOID, K.TANH, K.RELU, K.SELU],
                             ids=lambda k: k.value)
    def test_nondecreasing(self, fmt, kind):
        cfg = AfConfig(kind, fmt)
        raw = np.unique(self._grid(fmt))
        y, _ = eval_raw(kind, raw, np.zeros(raw.shape, bool), cfg)
        drops = np.diff(y)
        assert drops.min() >= -1, kind   # <= 1 LSB of local quantization jitter

    @pytest.mark.parametrize("fmt", [FXP16, FXP8], ids=["fxp16", "fxp8"])
    def test_ranges(self, fmt):
        raw = self._grid(fmt)
        one = 1 << fmt.frac_bits
        s, _ = eval_raw(K.SIGMOID, raw, np.zeros(raw.shape, bool), AfConfig(K.SIGMOID, fmt))
        assert s.min() >= 0 and s.max() <= one
        t, _ = eval_raw(K.TANH, raw, np.zeros(raw.shape, bool), AfConfig(K.TANH, fmt))
        assert t.min() >= -one and t.max() <= one

    @pytest.mark.parametrize("fmt", [FXP16, FXP8], ids=["fxp16", "fxp8"])
    def test_symmetries(self, fmt):
        raw = self._grid(fmt)
        z = np.zeros(raw.shape, bool)
        t_pos, _ = eval_raw(K.TANH, raw, z, AfConfig(K.TANH, fmt))
        t_neg, _ = eval_raw(K.TANH, -raw, z, AfConfig(K.TANH, fmt))
        assert np.abs(t_pos + t_neg).max() <= 2
        s_pos, _ = eval_raw(K.SIGMOID, raw, z, AfConfig(K.SIGMOID, fmt))
        s_neg, _ = eval_raw(K.SIGMOID, -raw, z, AfConfig(K.SIGMOID, fmt))
        one = 1 << fmt.frac_bits
        assert np.abs(s_pos + s_neg - one).max() <= 2

    @pytest.mark.parametrize("fmt", [FXP16, FXP8], ids=["fxp16", "fxp8"])
    def test_relu_difference_identity(self, fmt):
        # relu(x) - relu(-x) == x exactly, for every representable x
        raw = self._grid(fmt)
        z = np.zeros(raw.shape, bool)
        cfg = AfConfig(K.RELU, fmt)
        r_pos, _ = eval_raw(K.RELU, raw, z, cfg)
        r_neg, _ = eval_raw(K.RELU, -raw, z, cfg)
        assert (r_pos - r_neg == raw).all()

    def test_mean_relative_error_budget(self):
        # every kind stays under 3.5% mean relative error on [-1, 1]
        from neuric.analysis import monte_carlo
        for kind in AfKind:
            rep = monte_carlo(kind, AfConfig(kind, FXP16), 20_000, seed=9)
            assert rep.rel_mean <= 3.5, (kind, rep.rel_mean)


class TestSoftmax:
    def test_uniform_vector(self):
        c = AfConfig(K.SOFTMAX, FXP16)
        out = softmax([from_real(0.7, FXP16)] * 4, c)
        for v in out:
            assert abs(v.value - 0.25) <= FXP16.lsb

    def test_singleton(self):
        out = softmax([from_real(1.0, FXP16)], AfConfig(K.SOFTMAX, FXP16))
        assert len(out) == 1 and abs(out[0].value - 1.0) <= FXP16.lsb

    def test_two_element_oracle(self):
        out = softmax([from_real(0.0, FXP16), from_real(1.0, FXP16)],
                      AfConfig(K.SOFTMAX, FXP16))
        assert abs(out[0].value - 0.268941) <= 3 * FXP16.lsb
        assert abs(out[1].value - 0.731059) <= 3 * FXP16.lsb

    @pytest.mark.parametrize("fmt", [FXP16, FXP8], ids=["fxp16", "fxp8"])
    def test_sum_and_range(self, fmt):
        rng = np.random.default_rng(11)
        cfg = AfConfig(K.SOFTMAX, fmt)
        one = 1 << fmt.frac_bits
        for ln in (2, 3, 5, 8, 16, 33, 64):
            xs = rng.uniform(max(-2.0, fmt.min_value + 0.1),
                             min(2.0, fmt.max_value - 0.1), (4, ln))
            raw, _ = quantize_raw(xs, fmt)
            y, _ = softmax_raw(raw, np.zeros(raw.shape, bool), cfg)
            assert y.min() >= 0 and y.max() <= one
            sums = y.sum(axis=1)
            assert (np.abs(sums - one) <= ln).all(), (fmt.name, ln)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        cfg = AfConfig(K.SOFTMAX, FXP16)
        for _ in range(50):
            xs = rng.uniform(-2.0, 2.0, 8)
            c = float(rng.uniform(-3.0, 3.0))
            a, _ = quantize_raw(xs, FXP16)
            b = a + from_real(c, FXP16).raw
            ya, _ = softmax_raw(a[None, :], np.zeros((1, 8), bool), cfg)
            yb, _ = softmax_raw(b[None, :], np.zeros((1, 8), bool), cfg)
            assert np.abs(ya - yb).max() <= 2

    def test_capacity(self):
        cfg = AfConfig(K.SOFTMAX, FXP16)
        with pytest.raises(CapacityError):
            softmax([from_real(0.0, FXP16)] * 65, cfg)
        softmax([from_real(0.0, FXP16)] * 64, cfg)   # at depth: fine
        small = AfConfig(K.SOFTMAX, FXP16, fifo_depth=4)
        with pytest.raises(CapacityError):
            softmax([from_real(0.0, FXP16)] * 5, small)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([], AfConfig(K.SOFTMAX, FXP16))


class TestCrossPrecision:
    def test_argmax_agreement(self):
        # both precisions pick the same winner whenever the wide-format
        # outputs separate top-2 by at least 4 coarse LSB
        rng = np.random.default_rng(21)
        margin = 4 * FXP8.lsb
        lo, hi = FXP8.min_value + 0.1, FXP8.max_value - 0.1
        checked = 0
        for kind in AfKind:
            c16, c8 = AfConfig(kind, FXP16), AfConfig(kind, FXP8)
            for _ in range(40):
                xs = rng.uniform(lo, hi, 8)
                r16, _ = quantize_raw(xs, FXP16)
                r8, _ = quantize_raw(xs, FXP8)
                if kind is K.SOFTMAX:
                    y16, _ = softmax_raw(r16[None, :], np.zeros((1, 8), bool), c16)
                    y8, _ = softmax_raw(r8[None, :], np.zeros((1, 8), bool), c8)
                    y16, y8 = y16[0], y8[0]
                else:
                    y16, _ = eval_raw(kind, r16, np.zeros(8, bool), c16)
                    y8, _ = eval_raw(kind, r8, np.zeros(8, bool), c8)
                v16 = np.sort(y16 * FXP16.lsb)
                if v16[-1] - v16[-2] < margin:
                    continue
                assert int(np.argmax(y16)) == int(np.argmax(y8)), (kind, xs)
                checked += 1
        assert checked >= 100   # the margin filter must leave real coverage


class TestApply:
    def test_relu_vector(self):
        out = apply(AfConfig(K.RELU, FXP16),
                    [from_real(v, FXP16) for v in (-1.0, 0.0, 1.0)])
        assert [v.value for v in out] == [0.0, 0.0, 1.0]

    def test_tanh_zero(self):
        out = apply(AfConfig(K.TANH, FXP16), [from_real(0.0, FXP16)])
        assert abs(out[0].value) <= FXP16.lsb

    def test_softmax_dispatch(self):
        out = apply(AfConfig(K.SOFTMAX, FXP16),
                    [from_real(0.0, FXP16), from_real(0.0, FXP16)])
        for v in out:
            assert abs(v.value - 0.5) <= FXP16.lsb

    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(31)
        fns = {K.SIGMOID: sigmoid, K.TANH: tanh_af, K.RELU: relu,
               K.SWISH: swish, K.GELU: gelu, K.SELU: selu}
        for kind, fn in fns.items():
            cfg = AfConfig(kind, FXP16)
            xs = [from_real(float(v), FXP16) for v in rng.uniform(-5.5, 5.5, 16)]
            vec = apply(cfg, xs)
            for x, v in zip(xs, vec):
                assert v.raw == fn(x, cfg).raw

    def test_format_mismatch(self):
        with pytest.raises(ValueError):
            apply(AfConfig(K.TANH, FXP16), [from_real(0.0, FXP8)])

    def test_oracle_tracking_random(self):
        rng = np.random.default_rng(41)
        for kind in (K.SIGMOID, K.TANH, K.SWISH, K.GELU, K.SELU):
            cfg = AfConfig(kind, FXP16)
            f = oracle_f(kind)
            for v in rng.uniform(-5.0, 5.0, 24):
                x = from_real(float(v), FXP16)
                got = apply(cfg, [x])[0].value
                assert abs(got - f(x.value)) <= max(6 * FXP16.lsb,
                                                    0.02 * abs(f(x.value))), (kind, v)


class TestSaturationPolicy:
    def test_domain_clamp_sets_no_flag(self):
        # 6.0 is representable at Q3.12 but beyond max_norm: clamped, not flagged
        x = from_real(6.0, FXP16)
        assert not x.sat
        y = sigmoid(x, cfg16())
        y_edge = sigmoid(from_real(5.5, FXP16), cfg16())
        assert y.raw == y_edge.raw
        assert not y.sat

    def test_clamp_domain_helper(self):
        c = cfg16()
        v = clamp_domain(from_real(6.0, FXP16), c)
        assert v.value == from_real(5.5, FXP16).value and not v.sat
        w = clamp_domain(from_real(-7.0, FXP16), c)
        assert w.value == from_real(-5.5, FXP16).value and not w.sat
        u = clamp_domain(from_real(1.0, FXP16), c)
        assert u.raw == from_real(1.0, FXP16).raw

    def test_sticky_flag_propagates(self):
        x = Fx(from_real(0.5, FXP16).raw, FXP16, sat=True)
        for fn in (sigmoid, tanh_af, relu, swish, gelu, selu):
            assert fn(x, cfg16()).sat
        out = softmax([x, from_real(0.0, FXP16)], AfConfig(K.SOFTMAX, FXP16))
        assert out[0].sat   # per-lane stickiness

    def test_eval_raw_rejects_softmax(self):
        with pytest.raises(ValueError):
            eval_raw(K.SOFTMAX, np.zeros(2, np.int64), np.zeros(2, bool),
                     AfConfig(K.SOFTMAX, FXP16))
