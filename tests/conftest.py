"""Shared test oracles, independent of the library's fast paths."""

from __future__ import annotations

import itertools

import numpy as np
import pytest


def naive_conv3d(x, weights, bias, spec):
    """Direct sliding-window convolution oracle (explicit loops, no reuse
    of the library's tap-slicing implementation)."""
    kt, kh, kw = spec.kernel
    dt, dh, dw = spec.dilation
    eff = [(k - 1) * d + 1 for k, d in zip(spec.kernel, spec.dilation)]
    if spec.padding == "same":
        pads = [((e - 1) // 2, (e - 1) - (e - 1) // 2) for e in eff]
        xp = np.pad(x, (*pads, (0, 0)))
        out_thw = x.shape[:3]
    else:
        xp = x
        out_thw = tuple(s - (e - 1) for s, e in zip(x.shape[:3], eff))
    to, ho, wo = out_thw
    y = np.zeros((to, ho, wo, spec.out_channels), dtype=np.float64)
    for t, h, w, o in itertools.product(range(to), range(ho), range(wo),
                                        range(spec.out_channels)):
        acc = 0.0
        for i, j, k, c in itertools.product(range(kt), range(kh), range(kw),
                                            range(spec.in_channels)):
            acc += weights[i, j, k, c, o] * xp[t + i * dt, h + j * dh,
                                               w + k * dw, c]
        y[t, h, w, o] = acc + (bias[o] if bias is not None else 0.0)
    return y


def naive_conv3d_backward(x, weights, spec, grad):
    """(grad_x, grad_w) of sum(grad * naive_conv3d(x, weights, ...)), by
    the same explicit loops as `naive_conv3d`."""
    kt, kh, kw = spec.kernel
    dt, dh, dw = spec.dilation
    eff = [(k - 1) * d + 1 for k, d in zip(spec.kernel, spec.dilation)]
    if spec.padding == "same":
        pads = [((e - 1) // 2, (e - 1) - (e - 1) // 2) for e in eff]
    else:
        pads = [(0, 0)] * 3
    xp = np.pad(x, (*pads, (0, 0)))
    gxp = np.zeros(xp.shape, dtype=np.float64)
    gw = np.zeros(weights.shape, dtype=np.float64)
    to, ho, wo, _ = grad.shape
    for t, h, w, o in itertools.product(range(to), range(ho), range(wo),
                                        range(spec.out_channels)):
        for i, j, k, c in itertools.product(range(kt), range(kh), range(kw),
                                            range(spec.in_channels)):
            pos = (t + i * dt, h + j * dh, w + k * dw, c)
            gw[i, j, k, c, o] += grad[t, h, w, o] * xp[pos]
            gxp[pos] += grad[t, h, w, o] * weights[i, j, k, c, o]
    (pt, _), (ph, _), (pw, _) = pads
    t, h, w, _ = x.shape
    return gxp[pt:pt + t, ph:ph + h, pw:pw + w], gw


def naive_maxpool(x, grad):
    """2x2 stride-2 spatial max pooling oracle (explicit loops).

    Returns (y, grad_x): each output is the first maximal element of its
    window in row-major order, bit for bit, and grad_x routes `grad` to
    that element only.
    """
    t, h, w, c = x.shape
    y = np.empty((t, h // 2, w // 2, c), dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=grad.dtype)
    for n, i, j, ch in itertools.product(range(t), range(h // 2),
                                         range(w // 2), range(c)):
        best = None
        for di, dj in itertools.product(range(2), range(2)):
            pos = (n, 2 * i + di, 2 * j + dj, ch)
            if best is None or x[pos] > x[best]:
                best = pos
        y[n, i, j, ch] = x[best]
        gx[best] = grad[n, i, j, ch]
    return y, gx


def closed_form_conv_params(specs):
    """Spreadsheet-style parameter count over a list of (name, ConvSpec)."""
    total = 0
    for _, spec in specs:
        kt, kh, kw = spec.kernel
        total += kt * kh * kw * spec.in_channels * spec.out_channels
        if spec.bias:
            total += spec.out_channels
    return total


def zero_all_params(model):
    for arr in model.named_params().values():
        arr[...] = 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
