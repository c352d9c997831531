"""Bit-level pins of the kernels' outputs.

Each digest is a sha256 over the raw codes and saturation flags of one
family of kernel calls, hard-coded from the implementation before the
engine-pass and MAC-fold refactor.  A refactor that is meant to keep every
output keeps every digest; a change that moves outputs on purpose states
which digest moved and why.  The batch entry points are further pinned
against the scalar ``neuron`` and a local copy of the per-unit fold they
replace.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from neuric.activation import AfConfig, AfKind, clamp_domain_raw, eval_raw, softmax_raw
from neuric.cordic import count_ops
from neuric.fixedpoint import FXP8, FXP16, convert_raw, from_real, quantize_raw
from neuric.pe import NeuricConfig, _mac_raw, acc_format, layer, neuron, run_batch

K = AfKind
DATA = Path(__file__).parent / "data"
ELEMENTWISE = [k for k in AfKind if k is not K.SOFTMAX]
FORMATS = {"fxp8": FXP8, "fxp16": FXP16}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _all_codes(fmt):
    codes = np.arange(fmt.min_raw, fmt.max_raw + 1, dtype=np.int64)
    return codes, (codes & 7) == 3     # a fixed sprinkle of incoming sat flags


def elementwise_digest(kind, fmt) -> str:
    codes, sat = _all_codes(fmt)
    out, s = eval_raw(kind, codes, sat, AfConfig(kind, fmt))
    return _digest(out, s)


def softmax_digest(fmt) -> str:
    # wide inputs: rows clamp at max_norm, saturate at the format and
    # drive the max-subtracted differences to the format floor
    rng = np.random.default_rng(2024)
    raw, sat = quantize_raw(rng.uniform(-7.0, 7.0, (4096, 8)), fmt)
    out, s = softmax_raw(raw, sat, AfConfig(K.SOFTMAX, fmt))
    return _digest(out, s)


def mac_digest(fmt) -> str:
    rng = np.random.default_rng(99)
    afmt = acc_format(fmt)
    n = 50_000
    acc = rng.integers(afmt.min_raw, afmt.max_raw + 1, n)
    x = rng.integers(fmt.min_raw, fmt.max_raw + 1, n)
    w = rng.integers(fmt.min_raw, fmt.max_raw + 1, n)
    sat = rng.random(n) < 0.01
    out, s = _mac_raw(acc, x, w, fmt, afmt, fmt.frac_bits + 2, sat=sat)
    return _digest(out, s)


def spiral_digest(fmt) -> str:
    blob = json.loads((DATA / "spiral_mlp.json").read_text())
    x = np.concatenate([np.asarray(blob["x_test"], dtype=np.float64),
                        np.random.default_rng(3).uniform(-1.5, 1.5, (200, 2))])
    h, s1 = layer(x, blob["w1"], blob["b1"], NeuricConfig(fmt, AfConfig(K.TANH, fmt)))
    p, s2 = layer(h, blob["w2"], blob["b2"], NeuricConfig(fmt, AfConfig(K.SOFTMAX, fmt)))
    return _digest(np.rint(h / fmt.lsb), np.rint(p / fmt.lsb), [s1, s2])


PINNED = {
    "fxp16:sigmoid": "7f89b9519f4a847119d9bc575eda977ba07975cb660e8ca45fe905a2353384ed",
    "fxp16:tanh": "9b21e41ae5fd042106ae2e6bfc927e3c7aa1df3b838891b1a288f44c91708cce",
    "fxp16:relu": "0ed4f4807e997ad04e48cd76cdecab9bb8e2489c5bffb01f8c6dbf8b096c8653",
    "fxp16:swish": "b8e9f0b04d1970c83b6cf7cc98df05240ec7622fea8bbbf6a92b5a51c392b852",
    "fxp16:gelu": "0a6ccd2b44d3a4523aa6d3c9811c89cdcece844a7254a2f04cfc4439fa856023",
    "fxp16:selu": "8c4297cf0179f3068b78e3abc499f7b8320480b55380daa2378dca2f33715ce1",
    "fxp16:softmax": "81fd8b2696834de9bca63c1e104f1673fbcba2ea4aac4226ceb0a18bcdaf4f89",
    "fxp16:mac": "9b04feb460d719a660c46b54400211631ed63898994f0b5fe7d85c5e24364d0a",
    "fxp16:spiral": "b9fe131c36e23d151ee51c95b08f0118b6a6982e1fe1d93b4f77be7fbcf07abb",
    "fxp8:sigmoid": "9961b09e35a45c08d47c8cc2d5d4fc9825f0418e961a135911da8ef4265c9595",
    "fxp8:tanh": "a1f4f6a743748e4367461fa790c088fb03258fde83d2f8080c5694cfea9a1137",
    "fxp8:relu": "7a11fb4899e3d01b31f906cd31f243cb0a33bef81a803662cb65d156bc7760d5",
    "fxp8:swish": "8385acc799569b441621df099896f3c7fd6a6f04e0660ddaafe0d3929a86c30a",
    "fxp8:gelu": "a0b00979f9ed11f7557f88b3f286d5cb2c6e56723857464620edb04c2295f538",
    "fxp8:selu": "093c63bbd171c093856ce83b02431f68933b66c72f8c126aaea595c816cbb575",
    "fxp8:softmax": "81e6c0fb4832fc5cd8e0eb05c473aacb724e3aefb5214c326fd9f3eb893ed69e",
    "fxp8:mac": "fd5d132e2b44b4d226d2a2aa8dfc8d4ea1bee6f50a55f88e4a8ce980533452c6",
    "fxp8:spiral": "19b0b844d64af48cc884cd1a486d74452ed88fe10b67e54c4d41d52f31c3855f",
}


@pytest.mark.parametrize("kind", ELEMENTWISE, ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_code_pinned(name, kind):
    assert elementwise_digest(kind, FORMATS[name]) == PINNED[f"{name}:{kind.value}"]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_softmax_rows_pinned(name):
    assert softmax_digest(FORMATS[name]) == PINNED[f"{name}:softmax"]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_mac_lanes_pinned(name):
    assert mac_digest(FORMATS[name]) == PINNED[f"{name}:mac"]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_spiral_mlp_pinned(name):
    assert spiral_digest(FORMATS[name]) == PINNED[f"{name}:spiral"]


def _payload(name, kind, rng):
    # mixed lengths, plus rows whose operands clip at quantization and
    # whose dot products clip in the accumulator narrowing
    lengths = [5, 1, 9, 3, 3, 7, 2, 8, 1, 4]
    rows = [rng.uniform(-1, 1, n) for n in lengths] + [np.full(4, 6.0), np.full(2, -3.9)]
    ws = [rng.uniform(-1, 1, n) for n in lengths] + [np.full(4, 7.0), np.full(2, 3.9)]
    bias = list(rng.uniform(-0.5, 0.5, len(lengths))) + [0.5, -9.0]
    return {"config": {"format": name, "af": kind.value},
            "inputs": [r.tolist() for r in rows], "weights": [w.tolist() for w in ws],
            "bias": [float(b) for b in bias]}


@pytest.mark.parametrize("kind", list(AfKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(FORMATS))
def test_run_batch_equals_per_row_neuron(name, kind):
    fmt = FORMATS[name]
    cfg = NeuricConfig(fmt, AfConfig(kind, fmt))
    payload = _payload(name, kind, np.random.default_rng(len(name) + len(kind.value)))
    with count_ops() as batched:
        res = run_batch(payload)
    with count_ops() as per_row:
        want = [neuron([from_real(v, fmt) for v in xs], [from_real(v, fmt) for v in ws],
                       from_real(b, fmt), cfg)
                for xs, ws, b in zip(payload["inputs"], payload["weights"], payload["bias"])]
    assert res["outputs"] == [y.value for y in want]
    assert res["sat_events"] == sum(y.sat for y in want) > 0
    assert batched == per_row


def _per_unit_layer(x, weights, biases, cfg):
    """The dense layer as a per-unit loop of ``_mac_raw`` over lane arrays."""
    io, afmt, n = cfg.fmt, acc_format(cfg.fmt), cfg.n_iters
    xq, sx = quantize_raw(np.atleast_2d(x), io)
    wq, sw = quantize_raw(np.atleast_2d(weights), io)
    bq, sb = quantize_raw(np.asarray(biases, dtype=np.float64), io)
    batch, units = xq.shape[0], wq.shape[0]
    acc = np.empty((batch, units), dtype=np.int64)
    sat = np.empty((batch, units), dtype=bool)
    g = afmt.frac_bits - io.frac_bits
    for u in range(units):
        a = np.full(batch, int(bq[u]) << g, dtype=np.int64)
        s = sx.any(axis=1) | sw[u].any() | sb[u]
        for l in range(xq.shape[1]):
            a, s = _mac_raw(a, xq[:, l], np.full(batch, wq[u, l], dtype=np.int64),
                            io, afmt, n, sat=s)
        acc[:, u] = a
        sat[:, u] = s
    narrowed, s1 = convert_raw(acc, afmt, io)
    narrowed = clamp_domain_raw(narrowed, cfg.af)
    if cfg.af.kind is K.SOFTMAX:
        out, sat = softmax_raw(narrowed, sat | s1, cfg.af)
    else:
        out, sat = eval_raw(cfg.af.kind, narrowed.ravel(), (sat | s1).ravel(), cfg.af)
        out = out.reshape(batch, units)
    return out * io.lsb, int(sat.sum())


@pytest.mark.parametrize("kind", list(AfKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(FORMATS))
def test_layer_equals_per_unit_fold(name, kind):
    fmt = FORMATS[name]
    cfg = NeuricConfig(fmt, AfConfig(kind, fmt))
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.2, 1.2, (40, 6))
    x[0] = 5.0                                    # clips at fxp8 quantization
    w = rng.uniform(-1.5, 1.5, (5, 6))
    w[1] = 4.5                                    # drives the accumulator past I/O range
    b = rng.uniform(-0.5, 0.5, 5)
    with count_ops() as folded:
        got, got_sat = layer(x, w, b, cfg)
    with count_ops() as looped:
        want, want_sat = _per_unit_layer(x, w, b, cfg)
    assert np.array_equal(got, want)
    assert got_sat == want_sat > 0
    assert folded == looped
