"""Reference optimizers: SGD, heavy-ball momentum, Adam, AdamW, Polyak
iterate averaging over SGD, and Lookahead over SGD.

All of them operate on flat float64 parameter arrays. AdamW shares the
Adam code path with a decoupled decay term, so AdamW with wd=0 is
bit-identical to Adam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .nn import all_finite

OPTIMIZER_KINDS = ("sgd", "momentum", "adam", "adamw", "polyak_sgd", "lookahead_sgd")

DEFAULT_HYPER = {
    "sgd": {},
    "momentum": {"beta": 0.9},
    "adam": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
    "adamw": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "wd": 0.0},
    "polyak_sgd": {},
    "lookahead_sgd": {"lookahead_k": 5, "lookahead_alpha": 0.5},
}


@dataclass
class OptimizerState:
    kind: str
    lr: float
    hyper: dict
    slots: dict = field(default_factory=dict)
    step_count: int = 0


def make_optimizer(kind, lr, param_count, **hyper):
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    merged = dict(DEFAULT_HYPER[kind])
    for key, value in hyper.items():
        if key not in merged:
            raise ValueError(f"{kind} does not take hyperparameter {key!r}")
        merged[key] = value
    slots = {}
    if kind == "momentum":
        slots["velocity"] = np.zeros(param_count)
    elif kind in ("adam", "adamw"):
        slots["m"] = np.zeros(param_count)
        slots["v"] = np.zeros(param_count)
    elif kind == "polyak_sgd":
        slots["average"] = np.zeros(param_count)
    elif kind == "lookahead_sgd":
        slots["slow"] = None  # initialized from theta on the first step
    return OptimizerState(kind=kind, lr=lr, hyper=merged, slots=slots)


def step(state, theta, grad, out=None):
    """One update; mutates the slot buffers in place.

    The new parameters are written into ``out`` and returned, or into a
    fresh array without it. ``out`` must not share memory with ``theta``
    or ``grad``, so an update that fails its finite check leaves its input
    intact. Only the final result goes into ``out``, so the bits do not
    depend on it. The gradient and the update are each cleared as finite
    by ``nn.all_finite``'s one dot product.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if out is None:
        out = np.empty_like(theta)
    elif np.shares_memory(out, theta) or np.shares_memory(out, grad):
        raise ValueError("out must not share memory with theta or grad")
    if not all_finite(grad):
        raise NumericError("non-finite gradient", step_index=state.step_count)
    state.step_count += 1
    t = state.step_count
    h = state.hyper
    lr = state.lr

    if state.kind == "sgd":
        # theta - lr * grad, with no temporary
        np.subtract(theta, np.multiply(grad, lr, out=out), out=out)
    elif state.kind == "momentum":
        v = state.slots["velocity"]
        v[:] = h["beta"] * v + grad
        np.subtract(theta, lr * v, out=out)
    elif state.kind in ("adam", "adamw"):
        m, v = state.slots["m"], state.slots["v"]
        m[:] = h["beta1"] * m + (1.0 - h["beta1"]) * grad
        v[:] = h["beta2"] * v + (1.0 - h["beta2"]) * grad * grad
        m_hat = m / (1.0 - h["beta1"] ** t)
        v_hat = v / (1.0 - h["beta2"] ** t)
        wd = h["wd"] if state.kind == "adamw" else 0.0
        np.subtract(theta, lr * (m_hat / (np.sqrt(v_hat) + h["eps"]) + wd * theta), out=out)
    elif state.kind == "polyak_sgd":
        np.subtract(theta, lr * grad, out=out)
        avg = state.slots["average"]
        avg[:] = avg + (out - avg) / t
    elif state.kind == "lookahead_sgd":
        if state.slots["slow"] is None:
            state.slots["slow"] = theta.copy()
        np.subtract(theta, lr * grad, out=out)
        if t % int(h["lookahead_k"]) == 0:
            slow = state.slots["slow"]
            slow[:] = slow + h["lookahead_alpha"] * (out - slow)
            np.copyto(out, slow)
    else:  # pragma: no cover
        raise ValueError(f"unknown optimizer kind {state.kind!r}")

    if not all_finite(out):
        raise NumericError("non-finite parameter update", step_index=t)
    return out


def polyak_average(state):
    """Running mean of the post-step iterates seen so far."""
    if state.kind != "polyak_sgd":
        raise ValueError("polyak_average requires a polyak_sgd state")
    if state.step_count == 0:
        raise ValueError("polyak average undefined before the first step")
    return state.slots["average"].copy()
