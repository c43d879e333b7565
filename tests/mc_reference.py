"""Test-only reference Monte Carlo psi: the samplers and chunked mean written
plainly, each chunk's weights built from freshly allocated arrays.

It draws the same variates from the same child streams as
`hesslab.cones._mc_mean` and its samplers, and combines them by the same
floating-point operations without buffer reuse or in-place arithmetic, so
`reference_psi` must match `characteristic_function(..., "monte_carlo")`
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from hesslab.cones import (
    MC_CHUNK,
    LorentzCone,
    OrthantCone,
    PolyhedralCone,
    ProductCone,
    _ball_volume,
)


def uniform_ball(rng, count: int, d: int) -> np.ndarray:
    """Uniform samples in the unit d-ball."""
    if d == 1:
        return rng.uniform(-1.0, 1.0, size=(count, 1))
    z = rng.standard_normal((count, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / d)
    return z * radii[:, None]


def mc_mean(total: int, seed_seq: np.random.SeedSequence, sampler):
    nchunks = (total + MC_CHUNK - 1) // MC_CHUNK
    children = seed_seq.spawn(nchunks)
    sum_w = 0.0
    sum_w2 = 0.0
    done = 0
    for k in range(nchunks):
        count = min(MC_CHUNK, total - done)
        w = sampler(np.random.default_rng(children[k]), count)
        sum_w += float(w.sum())
        sum_w2 += float((w * w).sum())
        done += count
    mean = sum_w / total
    variance = max(sum_w2 / total - mean * mean, 0.0)
    stderr = math.sqrt(variance / max(total - 1, 1))
    return mean, stderr


def orthant_sampler(cone: OrthantCone, x):
    rates = 1.5 * x
    norm = float(np.prod(rates))

    def sampler(rng, count):
        y = rng.standard_exponential((count, cone.dim))
        y *= 1.0 / rates
        return np.exp(0.5 * (y @ x)) / norm

    return sampler


def lorentz_sampler(cone: LorentzCone, x):
    x0 = float(x[0])
    xbar = x[1:]
    gap = x0 - float(np.linalg.norm(xbar))
    d = cone.dim - 1
    vol = _ball_volume(d)

    def sampler(rng, count):
        y0 = rng.exponential(1.0 / gap, size=count)
        ybar = uniform_ball(rng, count, d) * y0[:, None]
        inner = x0 * y0 + ybar @ xbar
        return np.exp(gap * y0 - inner) * vol * y0 ** d / gap

    return sampler


def polyhedral_sampler(cone: PolyhedralCone, x):
    sub, coeff = cone._tilt_basis(x)
    coeff = np.maximum(coeff, 0.0)
    rates = np.maximum(1.5 * coeff, 0.25 * float(coeff.mean()))
    absdet = abs(float(np.linalg.det(sub)))
    norm = absdet * float(np.prod(rates))
    subinv_t = np.linalg.inv(sub).T
    gt = cone.generators.T

    def sampler(rng, count):
        z = rng.exponential(1.0 / rates, size=(count, cone.dim))
        y = z @ subinv_t
        inside = np.all(y @ gt > 0.0, axis=1)
        return np.exp(z @ (rates - coeff)) * inside / norm

    return sampler


_SAMPLERS = {
    OrthantCone: orthant_sampler,
    LorentzCone: lorentz_sampler,
    PolyhedralCone: polyhedral_sampler,
}


def reference_psi(cone, x, samples: int, seed: int = 42) -> tuple[float, float]:
    """(value, stderr) of the Monte Carlo psi at an interior point ``x``."""
    return _psi(cone, np.asarray(x, float), samples, np.random.SeedSequence(seed))


def _psi(cone, x, samples, seed_seq):
    if isinstance(cone, ProductCone):
        children = seed_seq.spawn(len(cone.factors))
        parts = [
            _psi(f, x[s], samples, child)
            for (f, s), child in zip(cone._slices(), children)
        ]
        value = math.prod(v for v, _ in parts)
        rel2 = sum((e / v) ** 2 for v, e in parts)
        return value, value * math.sqrt(rel2)
    return mc_mean(samples, seed_seq, _SAMPLERS[type(cone)](cone, x))
