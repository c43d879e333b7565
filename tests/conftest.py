"""Shared fixtures: worked-example field data and the acceptance summary hook."""

from __future__ import annotations

import numpy as np

from hesslab.geomcore import (
    Chart,
    MetricField,
    OneFormField,
    VectorFieldT,
    curvature_slices,
    flat_connection,
    samples_first,
)

# Results recorded by tests/test_acceptance.py; printed at the end of the run.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)


def curvature_tensor(conn, pts):
    """The whole curvature tensor (m, l, i, j, k) = R^l_{ijk}, sample axis
    first in memory, gathered from the library's pair slices
    (`curvature_slices`): R^l_{jik} = -R^l_{ijk}, and R^l_{iik} = 0."""
    d = conn.chart.dim
    out = samples_first(np.zeros((d, d, d, d, len(pts))))

    def put(rows, i, j, r):
        out[rows, :, i, j] = r
        out[rows, :, j, i] = -r

    curvature_slices(conn, pts, put)
    return out


# ---------------------------------------------------------------------------
# worked example data used across test modules
# ---------------------------------------------------------------------------

def hopf_chart() -> Chart:
    return Chart(2, ((0.4, 2.1), (0.3, 1.9)))


def hopf_structure():
    """Flat chart away from the origin, g = (dx0^2+dx1^2)/r^2, theta = -2(x.dx)/r^2."""
    chart = hopf_chart()
    r2 = "(x0*x0+x1*x1)"
    g = MetricField(chart, [[f"1/{r2}", "0"], ["0", f"1/{r2}"]])
    theta = OneFormField(chart, [f"-2*x0/{r2}", f"-2*x1/{r2}"])
    xi = VectorFieldT(chart, ["-2*x0", "-2*x1"])
    return chart, flat_connection(chart), g, theta, xi


def halfplane_chart() -> Chart:
    return Chart(2, ((0.3, 2.0), (-1.0, 1.0)), positive=(True, False))


def halfplane_metric(chart=None) -> MetricField:
    chart = chart or halfplane_chart()
    return MetricField(chart, [["1/(x0*x0)", "0"], ["0", "1/(x0*x0)"]])


def poincare_structure():
    """Half-space x0 > 0 with g = (dx0^2+dx1^2)/x0^2 and theta = -2 dx0/x0."""
    chart = halfplane_chart()
    g = halfplane_metric(chart)
    theta = OneFormField(chart, ["-2/x0", "0"])
    xi = VectorFieldT(chart, ["-2*x0", "0"])
    return chart, flat_connection(chart), g, theta, xi


def sphere_chart() -> Chart:
    return Chart(2, ((-0.6, 0.6), (-0.6, 0.6)))


def sphere_metric(chart=None) -> MetricField:
    """Stereographic round-sphere metric 4*delta/(1+r^2)^2."""
    chart = chart or sphere_chart()
    conf = "(4/((1+x0*x0+x1*x1)^2))"
    return MetricField(chart, [[conf, "0"], ["0", conf]])


E67_Q = "((1+exp(x0/2))^2 + (1+exp(x1/2))^2)"


def e67_structure():
    """The Killing-but-not-affine example: g = (e^x dx^2 + e^y dy^2)/Q."""
    chart = Chart(2, ((-1.5, 1.5), (-1.5, 1.5)))
    g = MetricField(chart, [[f"exp(x0)/{E67_Q}", "0"], ["0", f"exp(x1)/{E67_Q}"]])
    theta = OneFormField(
        chart,
        [f"-(exp(x0/2)+exp(x0))/{E67_Q}", f"-(exp(x1/2)+exp(x1))/{E67_Q}"],
    )
    xi = VectorFieldT(chart, ["-(1+exp(-x0/2))", "-(1+exp(-x1/2))"])
    return chart, flat_connection(chart), g, theta, xi


def dense_sphere_scene(dim: int) -> dict:
    """The round sphere metric 4 Q / (1 + y^T Q y)^2 in a dense linear chart,
    with its Levi-Civita connection: the shape of a dense-curvature scene."""
    a = np.eye(dim) + 0.3 * np.random.default_rng(dim).uniform(0.0, 1.0, (dim, dim))
    q = a.T @ a
    q = q.tolist()
    quad = " + ".join(f"({q[i][j]!r})*x{i}*x{j}" for i in range(dim) for j in range(dim))
    entries = [[f"4*({q[i][j]!r})/(1 + {quad})^2" for j in range(dim)] for i in range(dim)]
    return {
        "name": f"sphere-d{dim}",
        "chart": {"dim": dim, "box": [[-0.5, 0.5]] * dim},
        "fields": {
            "g": {"type": "metric", "entries": entries},
            "D": {"type": "connection", "levi_civita_of": "g"},
            "flat": {"type": "connection", "flat": True},
        },
        "structures": {"S": {"type": "statistical", "conn": "D", "metric": "g"}},
        "checks": [
            {"op": "statistical", "structure": "S"},
            {"op": "curvature", "structure": "S", "expect": {"c": [0.99999, 1.00001]}},
            {"op": "hessian", "conn": "flat", "metric": "g", "expect_fail": True},
        ],
    }
