"""SGD-with-momentum and Adam parameter updates."""

from __future__ import annotations

import numpy as np

from .errors import GraphError

SGD = "sgd"
ADAM = "adam"
# Adam's moment decay rates and denominator floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Optimizer:
    """Per-parameter moment buffers plus a step counter.

    ``step`` consumes a {name: gradient} mapping matching the parameter
    registry; a non-finite gradient raises, signalling training divergence.
    """

    def __init__(self, params, method=ADAM, learning_rate=2e-4, momentum=0.9):
        if method not in (SGD, ADAM):
            raise GraphError(f"unknown optimizer method {method!r}")
        self.params = dict(params)
        self.method = method
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.step_count = 0
        self.m = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        if method == ADAM:
            self.v = {k: np.zeros_like(v.data) for k, v in self.params.items()}

    def step(self, grads):
        self.step_count += 1
        for name, param in self.params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            if g.shape != param.data.shape:
                raise GraphError(f"gradient shape mismatch for {name}")
            if not np.all(np.isfinite(g)):
                raise GraphError(f"non-finite gradient for {name}")
            if self.method == SGD:
                self.m[name] = self.momentum * self.m[name] + g
                param.data = param.data - self.learning_rate * self.m[name]
            else:
                self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
                self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * g * g
                m_hat = self.m[name] / (1.0 - BETA1 ** self.step_count)
                v_hat = self.v[name] / (1.0 - BETA2 ** self.step_count)
                param.data = param.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
