import math

import numpy as np
import pytest
from hypothesis import settings

from gridenergy.energy import HALF_PI, PFState
from gridenergy.errors import PhaseOutOfRange
from gridenergy.network import (Bus, BusKind, Line, Network, absorb_setpoints,
                                incidence, load_case, losslessify)

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


def make_twobus(p=-0.1, q=-0.1, b=1.0, g=0.0, pq_kind=BusKind.PQ):
    buses = [Bus(1, BusKind.SLACK), Bus(2, pq_kind, p_inj=p, q_inj=q)]
    return Network(buses, [Line(1, 2, b=b, g=g)])


def fd_gradient(f, x, step: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Default step 1e-5 * (1 + |x_i|) balances truncation against rounding
    for the double-precision cross checks this is used in.
    """
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = step if step is not None else 1e-5 * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def matrix_convexity_gap(x1: float, y1: float, x2: float, y2: float,
                         lam: float) -> np.ndarray:
    """Loewner convexity gap of f(x, y) = (1/cos y) [[e^x, 1], [1, e^-x]].

    Returns lam*f(x1,y1) + (1-lam)*f(x2,y2) - f at the combined point;
    the matrix is positive semidefinite whenever |y1|, |y2| < pi/2.
    """
    for y in (y1, y2):
        if abs(y) > HALF_PI - 1e-6:
            raise PhaseOutOfRange("y arguments must stay below 90 degrees")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")

    def f(x, y):
        return np.array([[math.exp(x), 1.0], [1.0, math.exp(-x)]]) / math.cos(y)

    xm = lam * x1 + (1.0 - lam) * x2
    ym = lam * y1 + (1.0 - lam) * y2
    return lam * f(x1, y1) + (1.0 - lam) * f(x2, y2) - f(xm, ym)


def phasor_hessian(n, s):
    """The energy's Hessian as the phasor power-flow Jacobian, independent of
    energy.hessian: with Y = A diag(y) A^T and I = Y V,
        dS/dtheta = j diag(V) conj(diag(I) - Y diag(V)),
        dS/drho = diag(V) conj(Y diag(V)) + conj(diag(I)) diag(V),
    Q rows at the PQ buses, then P rows at the non-slack buses, columns
    (rho_pq, theta_ns); a lossy network's rows are (Q + kappa P, P - kappa Q)."""
    a = incidence(n)
    y = (a * n.y) @ a.T
    v = np.exp(s.rho + 1j * s.theta)
    cur, yv = y @ v, y * v
    ds_dtheta = 1j * v[:, None] * np.conj(np.diag(cur) - yv)
    ds_drho = v[:, None] * np.conj(yv) + np.diag(np.conj(cur) * v)
    jac = np.hstack((ds_drho[:, n.pq], ds_dtheta[:, n.ns]))
    kappa = n.lossy_ratio
    return np.vstack(((jac.imag + kappa * jac.real)[n.pq],
                      (jac.real - kappa * jac.imag)[n.ns]))


def random_network(rng, n_max=10, tree=False, pq_prob=0.75, b_hi=20.0,
                   inj_scale=0.3):
    """Random connected network with unit set-points; bus 1 is the slack."""
    n = int(rng.integers(2, n_max + 1))
    buses = [Bus(1, BusKind.SLACK)]
    for i in range(2, n + 1):
        kind = BusKind.PQ if rng.random() < pq_prob else BusKind.PV
        q = rng.normal(scale=inj_scale) if kind is BusKind.PQ else 0.0
        buses.append(Bus(i, kind, p_inj=rng.normal(scale=inj_scale), q_inj=q))
    lines = []
    for i in range(2, n + 1):
        j = int(rng.integers(1, i))
        lines.append(Line(i, j, b=float(rng.uniform(0.5, b_hi))))
    if not tree:
        pairs = {frozenset((ln.i, ln.j)) for ln in lines}
        for _ in range(int(rng.integers(0, n))):
            i, j = rng.integers(1, n + 1, size=2)
            key = frozenset((int(i), int(j)))
            if i != j and key not in pairs:
                pairs.add(key)
                lines.append(Line(int(i), int(j), b=float(rng.uniform(0.5, b_hi))))
    return Network(buses, lines)


def random_state(rng, n, rho_amp=0.3, theta_amp=0.5):
    s = PFState.flat(n)
    s.rho[n.pq] = rng.uniform(-rho_amp, rho_amp, len(n.pq))
    s.theta[n.ns] = rng.uniform(-theta_amp, theta_amp, len(n.ns))
    return s


def stacked(states):
    """One PFState holding the given states along a leading axis."""
    return PFState(np.stack([s.rho for s in states]),
                   np.stack([s.theta for s in states]))


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.fixture(scope="session")
def twobus():
    return load_case("twobus")


@pytest.fixture(scope="session")
def threebus():
    return load_case("threebus")


@pytest.fixture(scope="session")
def threebus_tree():
    return load_case("threebus-tree")


@pytest.fixture(scope="session")
def ieee14():
    with pytest.warns(UserWarning):
        n = load_case("ieee14")
    return n


@pytest.fixture(scope="session")
def ieee118():
    with pytest.warns(UserWarning):
        n = load_case("ieee118")
    return n


@pytest.fixture(scope="session")
def ieee14_model(ieee14):
    return absorb_setpoints(losslessify(ieee14))


@pytest.fixture(scope="session")
def ieee118_model(ieee118):
    return absorb_setpoints(losslessify(ieee118))


@pytest.fixture(scope="session")
def bundled_models(twobus, threebus, threebus_tree, ieee14_model, ieee118_model):
    return {
        "twobus": twobus,
        "threebus": threebus,
        "threebus-tree": threebus_tree,
        "ieee14": ieee14_model,
        "ieee118": ieee118_model,
    }
