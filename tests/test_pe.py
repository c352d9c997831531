"""Processing element: MAC vs exact integer oracle, neuron composition,
batched layer equivalence, cycle model vs instrumented execution."""

import json
import math

import numpy as np
import pytest

from neuric.activation import AfConfig, AfKind, apply, clamp_domain
from neuric.cordic import count_ops
from neuric.fixedpoint import FXP8, FXP16, Fx, FxFormat, convert, from_real, quantize_raw
from neuric.pe import (
    CycleReport,
    ExecStrategy,
    NeuricConfig,
    acc_format,
    cycles,
    layer,
    mac,
    neuron,
    run_batch,
    run_batch_file,
)

K = AfKind


def pe16(kind=K.TANH, **kw):
    return NeuricConfig(FXP16, AfConfig(kind, FXP16, **kw))


def pe8(kind=K.TANH, **kw):
    return NeuricConfig(FXP8, AfConfig(kind, FXP8, **kw))


class TestConfig:
    def test_word_width_gate(self):
        from neuric.fixedpoint import FXP32
        with pytest.raises(ValueError):
            NeuricConfig(FXP32, AfConfig(K.TANH, FXP32))

    def test_format_agreement(self):
        with pytest.raises(ValueError):
            NeuricConfig(FXP16, AfConfig(K.TANH, FXP8))

    def test_n_iters_mirrors_af(self):
        assert pe16().n_iters == 14
        assert pe8().n_iters == 7
        with pytest.raises(ValueError):
            NeuricConfig(FXP16, AfConfig(K.TANH, FXP16), n_iters=9)

    def test_acc_format(self):
        assert acc_format(FXP16) == FxFormat(32, 24)
        assert acc_format(FXP8) == FxFormat(16, 10)


class TestMac:
    def test_zero_weight(self):
        cfg = pe16()
        v = mac(from_real(0.0, FXP16), from_real(0.7, FXP16), from_real(0.0, FXP16), cfg)
        assert abs(v.value) <= FXP16.lsb

    def test_simple_products(self):
        cfg = pe16()
        v = mac(from_real(0.1, FXP16), from_real(0.5, FXP16), from_real(0.25, FXP16), cfg)
        assert abs(v.value - 0.225) <= 2 * FXP16.lsb

    @pytest.mark.parametrize("cfg,fmt", [(pe16(), FXP16), (pe8(), FXP8)],
                             ids=["fxp16", "fxp8"])
    def test_exact_integer_oracle(self, cfg, fmt):
        # quantized operands are exact multiples of the LSB, so
        # acc_raw + w_raw*x_raw at double fraction *is* the rational answer
        rng = np.random.default_rng(5)
        n = 2000
        afmt = acc_format(fmt)
        acc = rng.uniform(-1.0, 1.0, n)
        x = rng.uniform(-2.0, 2.0, n)
        w = rng.uniform(-1.0, 1.0, n)
        aq, _ = quantize_raw(acc, afmt)
        xq, _ = quantize_raw(x, fmt)
        wq, _ = quantize_raw(w, fmt)
        worst = 0.0
        for i in range(n):
            got = mac(Fx(int(aq[i]), afmt), Fx(int(xq[i]), fmt), Fx(int(wq[i]), fmt), cfg)
            exact = (int(aq[i]) + int(wq[i]) * int(xq[i])) * afmt.lsb
            worst = max(worst, abs(got.value - exact))
        assert worst <= 2 * fmt.lsb

    def test_commutativity(self):
        cfg = pe16()
        rng = np.random.default_rng(6)
        for _ in range(300):
            a, x, w = rng.uniform(-1, 1, 3)
            af, xf, wf = (from_real(float(v), FXP16) for v in (a, x, w))
            v1 = mac(af, xf, wf, cfg)
            v2 = mac(af, wf, xf, cfg)
            assert abs(v1.value - v2.value) <= FXP16.lsb

    def test_acc_format_choice(self):
        cfg = pe16()
        amt = acc_format(FXP16)
        io_acc = mac(from_real(0.1, FXP16), from_real(0.5, FXP16),
                     from_real(0.25, FXP16), cfg)
        wide_acc = mac(convert(from_real(0.1, FXP16), amt), from_real(0.5, FXP16),
                       from_real(0.25, FXP16), cfg)
        assert io_acc.fmt == FXP16 and wide_acc.fmt == amt
        assert abs(io_acc.value - wide_acc.value) <= FXP16.lsb

    def test_format_gates(self):
        cfg = pe16()
        with pytest.raises(ValueError):
            mac(from_real(0.0, FXP16), from_real(0.5, FXP8), from_real(0.25, FXP16), cfg)
        with pytest.raises(ValueError):
            mac(from_real(0.0, FXP8), from_real(0.5, FXP16), from_real(0.25, FXP16), cfg)

    def test_argument_cap_beyond_schedule_sum(self):
        # the 0..N-1 shift schedule can steer |z| only up to sum(2^-i) =
        # 2 - 2^(1-n); beyond that the product caps at w * that sum rather
        # than erroring (out-of-normalized-domain policy)
        cfg = pe16()
        big = FXP16.max_value
        v = mac(from_real(0.0, FXP16), from_real(big, FXP16), from_real(0.5, FXP16), cfg)
        cap = 0.5 * (2.0 - 2.0 ** (1 - cfg.n_iters))
        assert abs(v.value - cap) <= 2 * FXP16.lsb
        # inside the schedule's reach the product is exact to rounding
        w = mac(from_real(0.0, FXP16), from_real(1.9, FXP16), from_real(0.5, FXP16), cfg)
        assert abs(w.value - 1.9 * 0.5) <= 2 * FXP16.lsb

    def test_sticky_sat(self):
        cfg = pe16()
        x = Fx(from_real(0.5, FXP16).raw, FXP16, sat=True)
        v = mac(from_real(0.0, FXP16), x, from_real(0.25, FXP16), cfg)
        assert v.sat


class TestNeuron:
    def test_zero_fixed_points(self):
        for kind in (K.TANH, K.RELU, K.SWISH, K.GELU, K.SELU):
            cfg = pe16(kind)
            zero = from_real(0.0, FXP16)
            v = neuron([zero, zero], [zero, zero], zero, cfg)
            assert abs(v.value) <= FXP16.lsb, kind

    def test_single_input_relu(self):
        cfg = pe16(K.RELU)
        v = neuron([from_real(1.0, FXP16)], [from_real(0.5, FXP16)],
                   from_real(0.0, FXP16), cfg)
        assert abs(v.value - 0.5) <= 2 * FXP16.lsb

    def test_cancellation_sigmoid(self):
        cfg = pe16(K.SIGMOID)
        xs = [from_real(0.5, FXP16), from_real(-0.5, FXP16)]
        ws = [from_real(0.3, FXP16), from_real(0.3, FXP16)]
        v = neuron(xs, ws, from_real(0.0, FXP16), cfg)
        assert abs(v.value - 0.5) <= 2 * FXP16.lsb

    def test_length_gates(self):
        cfg = pe16()
        z = from_real(0.0, FXP16)
        with pytest.raises(ValueError):
            neuron([z], [z, z], z, cfg)
        with pytest.raises(ValueError):
            neuron([], [], z, cfg)

    def test_equals_manual_fold(self):
        # the neuron is exactly its composition: mac fold + clamp + apply
        rng = np.random.default_rng(7)
        for kind in (K.SIGMOID, K.TANH, K.RELU, K.SWISH, K.GELU, K.SELU):
            cfg = pe16(kind)
            for _ in range(10):
                l = int(rng.integers(1, 9))
                xs = [from_real(float(v), FXP16) for v in rng.uniform(-1, 1, l)]
                ws = [from_real(float(v), FXP16) for v in rng.uniform(-1, 1, l)]
                b = from_real(float(rng.uniform(-1, 1)), FXP16)
                got = neuron(xs, ws, b, cfg)
                acc = convert(b, acc_format(FXP16))
                for x, w in zip(xs, ws):
                    acc = mac(acc, x, w, cfg)
                want = apply(cfg.af, [clamp_domain(convert(acc, FXP16), cfg.af)])[0]
                assert got.raw == want.raw and got.sat == want.sat, kind

    def test_oracle_tracking(self):
        # double-precision dot + oracle activation, quantization-aware bound
        rng = np.random.default_rng(8)
        cfg = pe16(K.TANH)
        for _ in range(50):
            xs = rng.uniform(-1, 1, 6)
            ws = rng.uniform(-1, 1, 6)
            b = float(rng.uniform(-0.5, 0.5))
            v = neuron([from_real(float(t), FXP16) for t in xs],
                       [from_real(float(t), FXP16) for t in ws],
                       from_real(b, FXP16), cfg)
            want = math.tanh(b + float(np.dot(xs, ws)))
            assert abs(v.value - want) <= 0.01


class TestCrossPrecisionNeuron:
    def test_agreement_on_shared_grid(self):
        # inputs exactly representable at both precisions
        rng = np.random.default_rng(9)
        bound = 2.0 ** (-FXP8.frac_bits + 1)
        for kind in (K.TANH, K.SIGMOID):
            c16, c8 = pe16(kind), pe8(kind)
            for _ in range(40):
                l = int(rng.integers(1, 5))
                xs = rng.integers(-16, 17, l) * FXP8.lsb    # on the coarse grid
                ws = rng.integers(-16, 17, l) * FXP8.lsb
                if abs(float(np.dot(xs, ws))) > 1.5:
                    continue
                v16 = neuron([from_real(float(t), FXP16) for t in xs],
                             [from_real(float(t), FXP16) for t in ws],
                             from_real(0.0, FXP16), c16)
                v8 = neuron([from_real(float(t), FXP8) for t in xs],
                            [from_real(float(t), FXP8) for t in ws],
                            from_real(0.0, FXP8), c8)
                assert abs(v16.value - v8.value) <= bound, (kind, xs, ws)


class TestLayer:
    def test_matches_neuron_grid(self):
        rng = np.random.default_rng(10)
        for kind in (K.TANH, K.RELU, K.SOFTMAX):
            cfg = pe16(kind)
            x = rng.uniform(-1, 1, (5, 4))
            w = rng.uniform(-1, 1, (3, 4))
            b = rng.uniform(-0.5, 0.5, 3)
            out, _ = layer(x, w, b, cfg)
            assert out.shape == (5, 3)
            if kind is K.SOFTMAX:
                continue   # row-coupled; covered by softmax_raw tests
            for i in range(5):
                for u in range(3):
                    want = neuron([from_real(float(v), FXP16) for v in x[i]],
                                  [from_real(float(v), FXP16) for v in w[u]],
                                  from_real(float(b[u]), FXP16), cfg)
                    assert out[i, u] == want.value, (kind, i, u)

    def test_softmax_rows_normalize(self):
        cfg = pe16(K.SOFTMAX)
        rng = np.random.default_rng(11)
        out, _ = layer(rng.uniform(-1, 1, (6, 5)), rng.uniform(-1, 1, (4, 5)),
                       np.zeros(4), cfg)
        assert np.all(out >= 0)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 4 * FXP16.lsb

    def test_shape_gate(self):
        cfg = pe16()
        with pytest.raises(ValueError):
            layer(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(4), cfg)
        with pytest.raises(ValueError):
            layer(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros(3), cfg)

    def test_in_dim_zero_refused(self):
        # as neuron refuses an empty input list, a layer needs an input
        with pytest.raises(ValueError, match="in_dim"):
            layer(np.zeros((2, 0)), np.zeros((3, 0)), np.zeros(3), pe16())

    def test_sat_events_count(self):
        cfg = pe16(K.RELU)
        x = np.full((3, 2), 7.0)
        w = np.full((1, 2), 7.0)       # dot = 98 saturates the accumulator
        out, sat_events = layer(x, w, np.zeros(1), cfg)
        assert sat_events == 3
        out2, sat_none = layer(np.full((3, 2), 0.1), np.full((1, 2), 0.1),
                               np.zeros(1), cfg)
        assert sat_none == 0


CANONICAL = {
    # inputs landing each activation on its documented canonical path
    K.RELU: 0.3,
    K.TANH: 0.4,      # |acc| <= 1: rotation + divide route
    K.SIGMOID: 0.5,
    K.SWISH: 0.5,
    K.GELU: 0.4,
    K.SELU: -0.4,     # exponential branch, no argument halving
    K.SOFTMAX: 0.2,
}


class TestCycles:
    def test_relu_passthrough(self):
        rep = cycles(pe16(K.RELU), 1)
        assert rep.af_cycles == 1 and rep.mac_cycles == 14

    def test_tanh_pinned(self):
        rep = cycles(pe16(K.TANH), 1)
        assert rep.mac_cycles == 14 and rep.af_cycles == 28
        assert rep.total == 42

    def test_mac_linear_in_length(self):
        cfg = pe16(K.TANH)
        assert cycles(cfg, 8).mac_cycles == 2 * cycles(cfg, 4).mac_cycles

    def test_softmax_scales_af(self):
        cfg = pe16(K.SOFTMAX)
        r1, r4 = cycles(cfg, 1), cycles(cfg, 4)
        assert r4.af_cycles == 4 * r1.af_cycles
        assert r1.af_cycles == 2 * 14 + 4

    def test_pipelined_total_is_stage_max(self):
        it = NeuricConfig(FXP16, AfConfig(K.GELU, FXP16), ExecStrategy.ITERATIVE)
        pl = NeuricConfig(FXP16, AfConfig(K.GELU, FXP16), ExecStrategy.PIPELINED)
        ri, rp = cycles(it, 3), cycles(pl, 3)
        assert ri.total == ri.mac_cycles + ri.af_cycles
        assert rp.total == max(rp.mac_cycles, rp.af_cycles)
        assert (ri.mac_cycles, ri.af_cycles) == (rp.mac_cycles, rp.af_cycles)

    def test_vector_len_gate(self):
        with pytest.raises(ValueError):
            cycles(pe16(), 0)

    @pytest.mark.parametrize("n_iters", [7, 14])
    @pytest.mark.parametrize("kind", list(AfKind), ids=lambda k: k.value)
    def test_shift_add_matches_instrumentation(self, kind, n_iters):
        fmt = FXP16
        cfg = NeuricConfig(fmt, AfConfig(kind, fmt, n_iters=n_iters))
        for length in (1, 3):
            rep = cycles(cfg, length)
            lvl = CANONICAL[kind]
            if kind is K.SOFTMAX:
                x = np.full((1, length), lvl)
                w = np.eye(length) * 0.5
                b = np.zeros(length)
                rep = cycles(cfg, length)   # af reported per result vector
                with count_ops() as c:
                    layer(x, w, b, cfg)
                # layer folds length MACs for each of the `length` units
                assert c.shift_add == length * rep.mac_cycles + (
                    rep.shift_add_ops - rep.mac_cycles), (kind, length)
            else:
                xs = [from_real(lvl, fmt)] + [from_real(0.0, fmt)] * (length - 1)
                ws = [from_real(1.0, fmt)] + [from_real(0.0, fmt)] * (length - 1)
                with count_ops() as c:
                    neuron(xs, ws, from_real(0.0, fmt), cfg)
                assert c.shift_add == rep.shift_add_ops, (kind, length)

    @pytest.mark.parametrize("kind,muls", [(K.RELU, 0), (K.TANH, 0), (K.SIGMOID, 0),
                                           (K.SWISH, 1), (K.GELU, 5), (K.SELU, 1)],
                             ids=lambda v: getattr(v, "value", v))
    def test_multiplier_uses_match_model(self, kind, muls):
        fmt = FXP16
        cfg = NeuricConfig(fmt, AfConfig(kind, fmt))
        with count_ops() as c:
            neuron([from_real(CANONICAL[kind], fmt)], [from_real(1.0, fmt)],
                   from_real(0.0, fmt), cfg)
        assert c.muls == muls


class TestRunBatch:
    PAYLOAD = {
        "config": {"format": "fxp16", "af": "relu"},
        "inputs": [[1.0, 2.0], [0.5, -0.5]],
        "weights": [[0.5, 0.25], [1.0, 1.0]],
        "bias": [0.0, 0.25],
    }

    def test_outputs_match_neuron(self):
        res = run_batch(self.PAYLOAD)
        assert res["schema"] == 1
        cfg = pe16(K.RELU)
        for row_x, row_w, b, got in zip(self.PAYLOAD["inputs"], self.PAYLOAD["weights"],
                                        self.PAYLOAD["bias"], res["outputs"]):
            want = neuron([from_real(v, FXP16) for v in row_x],
                          [from_real(v, FXP16) for v in row_w],
                          from_real(b, FXP16), cfg)
            assert got == want.value

    def test_cycle_totals_are_sums(self):
        res = run_batch(self.PAYLOAD)
        per_row = cycles(pe16(K.RELU), 2)
        assert res["cycles"]["mac_cycles"] == 2 * per_row.mac_cycles
        assert res["cycles"]["total"] == 2 * per_row.total
        assert res["cycles"]["shift_add_ops"] == 2 * per_row.shift_add_ops

    def test_sat_events(self):
        hot = {

            "config": {"format": "fxp16", "af": "relu"},
            "inputs": [[7.0, 7.0]],
            "weights": [[7.0, 7.0]],
            "bias": [0.0],
        }
        assert run_batch(hot)["sat_events"] == 1
        assert run_batch(self.PAYLOAD)["sat_events"] == 0

    def test_row_mismatch_rejected(self):
        bad = dict(self.PAYLOAD, bias=[0.0])
        with pytest.raises(ValueError):
            run_batch(bad)
        bad2 = dict(self.PAYLOAD, inputs=[[1.0], [0.5, -0.5]])
        with pytest.raises(ValueError):
            run_batch(bad2)

    def test_zero_rows(self):
        for af in ("tanh", "softmax"):
            empty = {"config": {"af": af}, "inputs": [], "weights": [], "bias": []}
            assert run_batch(empty) == {
                "schema": 1, "outputs": [], "sat_events": 0,
                "cycles": {"mac_cycles": 0, "af_cycles": 0, "total": 0, "shift_add_ops": 0}}

    def test_file_round_trip(self, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(json.dumps(self.PAYLOAD))
        res = run_batch_file(src, dst)
        assert json.loads(dst.read_text()) == res
        assert res == run_batch(self.PAYLOAD)
