"""Test-only reference Monte Carlo psi: the randomly shifted lattice and the
cones' importance weights written plainly, each from fresh arrays, with no
in-place arithmetic.

It finds the lattice generator by its own search, draws the same shifts from
the same stream as `hesslab.cones._lattice_mean`, and builds each weight by
the same floating-point operations, so `reference_psi` must match
`characteristic_function(..., "monte_carlo")` bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from hesslab.cones import (
    LATTICE_SHIFTS,
    LorentzCone,
    OrthantCone,
    PolyhedralCone,
    ProductCone,
    _ball_volume,
)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def uniform_ball(rng, count: int, d: int) -> np.ndarray:
    """Uniform samples in the unit d-ball."""
    if d == 1:
        return rng.uniform(-1.0, 1.0, size=(count, 1))
    z = rng.standard_normal((count, d))
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / d)
    return z * radii[:, None]


def lattice_points(n: int, k: int) -> np.ndarray:
    """(k, n): row j is {i a^j / n mod 1}, a the integer nearest n / phi
    coprime to n (the first of two at the same distance)."""
    coprime = [c for c in range(1, n + 1) if math.gcd(c, n) == 1]
    a = min(coprime, key=lambda c: abs(c - n / GOLDEN_RATIO))
    i = np.arange(n)
    return np.array([(a ** j % n) * i % n / n for j in range(k)])


def lattice_mean(total: int, seed_seq: np.random.SeedSequence, k: int, weights):
    n = total // LATTICE_SHIFTS
    points = lattice_points(n, k)
    shifts = np.random.default_rng(seed_seq).random((LATTICE_SHIFTS, k))
    means = np.array([weights(np.mod(points + s[:, None], 1.0)).mean() for s in shifts])
    return float(np.mean(means)), float(np.std(means, ddof=1)) / math.sqrt(LATTICE_SHIFTS)


def exponentials(u, rates):
    return -np.log1p(-u) / rates


def orthant_weights(cone: OrthantCone, x):
    rates = 0.75 * x
    norm = float(np.prod(rates))
    return cone.dim, lambda u: np.exp((rates - x) @ exponentials(u, rates[:, None])) / norm


def lorentz_weights(cone: LorentzCone, x):
    xbar = x[1:]
    rate = 0.75 * (float(x[0]) - float(np.linalg.norm(xbar)))
    d = cone.dim - 1
    vol = _ball_volume(d)

    def weights(u):
        if d == 1:
            b = 2.0 * u[1:] - 1.0
        else:
            z = ndtri(u[1:d + 1])
            b = z / np.linalg.norm(z, axis=0) * u[d + 1] ** (1.0 / d)
        y0 = exponentials(u[0], rate)
        return np.exp(-y0 * (float(x[0]) - rate + xbar @ b)) * vol * y0 ** d / rate

    return (2 if d == 1 else d + 2), weights


def polyhedral_weights(cone: PolyhedralCone, x):
    sub, coeff = cone._tilt_basis(x)
    coeff = np.maximum(coeff, 0.0)
    rates = np.maximum(0.75 * coeff, 0.25 * float(coeff.mean()))
    norm = abs(float(np.linalg.det(sub))) * float(np.prod(rates))
    pairings = cone.generators @ np.linalg.inv(sub)

    def weights(u):
        z = exponentials(u, rates[:, None])
        inside = np.all(pairings @ z > 0.0, axis=0)
        return np.exp((rates - coeff) @ z) * inside / norm

    return cone.dim, weights


_WEIGHTS = {
    OrthantCone: orthant_weights,
    LorentzCone: lorentz_weights,
    PolyhedralCone: polyhedral_weights,
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
    return lattice_mean(samples, seed_seq, *_WEIGHTS[type(cone)](cone, x))
