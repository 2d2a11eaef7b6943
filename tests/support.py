"""Small helpers shared across test modules."""

from __future__ import annotations

import sys

import numpy as np

from redar import StateSpace, spectral_radius


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def random_stable(rng: np.random.Generator, n: int, target: float) -> np.ndarray:
    """Random square matrix rescaled to the requested spectral radius."""
    a = rng.standard_normal((n, n))
    sr = spectral_radius(a)
    if sr > 1e-12:
        a *= target / sr
    return a


def random_system(
    rng: np.random.Generator, n: int, n_in: int, n_out: int, target: float = 0.7,
    with_d: bool = True,
) -> StateSpace:
    return StateSpace(
        random_stable(rng, n, target),
        rng.standard_normal((n, n_in)),
        rng.standard_normal((n_out, n)),
        rng.standard_normal((n_out, n_in)) if with_d else np.zeros((n_out, n_in)),
    )


def random_psd(rng: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)


def count_calls(monkeypatch, fn) -> list[tuple]:
    """Record the positional arguments of every call of ``fn`` made through
    any redar module attribute that holds it, since a caller looks ``fn``
    up in its own module, and return the record."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "redar" or name.startswith("redar."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls
