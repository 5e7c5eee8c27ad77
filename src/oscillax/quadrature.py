"""Panel-based Gauss-Legendre quadrature for oscillatory radial integrals.

All integrals in this package are 1-D integrals of smooth envelopes times
oscillatory factors whose instantaneous frequency is known in advance
(Bessel kernels oscillate at rate r, the time phase at rate a*t*rho^(a-1)).
Panels are sized so that the total phase accumulated across one panel stays
below a budget, which keeps a 16-point rule in its spectral-accuracy
regime.  Every rule takes PHASE_BUDGET radians per panel, a conservative
version of the usual "resolve the local phase derivative" step rule
h <= pi / (4 * (r + a*|t|*rho^(a-1) + 1)), except the rho rules of the
propagator (`oscillatory.frequency_rule`), whose larger budget the maximal
fields audit against a rule at half of it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Phase radians per panel; GL-16 integrates e^{i*phi*x} essentially exactly
# for |phi| * width <= order - a few.
PHASE_BUDGET = 8.0
DEFAULT_ORDER = 16


@lru_cache(maxsize=32)
def _gl_reference(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_centres(breakpoints):
    """(mid, half): each panel's centre and half-width.  A reference node x
    on [-1, 1] maps to mid + half * x on its panel."""
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ValueError("need at least two panel edges")
    if np.any(np.diff(bp) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    return 0.5 * (bp[1:] + bp[:-1]), 0.5 * np.diff(bp)


def _composite(breakpoints, x, *weights):
    """A reference rule (nodes x and weight sets on [-1, 1]) mapped to each
    panel, as flat arrays in increasing node order."""
    mid, half = (a[:, None] for a in panel_centres(breakpoints))
    return ((mid + half * x).ravel(),) + tuple((half * w).ravel() for w in weights)


def panel_rule(breakpoints, order: int = DEFAULT_ORDER):
    """Composite Gauss-Legendre nodes/weights over consecutive panels.

    breakpoints: increasing 1-D array of panel edges (>= 2 entries).
    Returns (nodes, weights) as flat arrays in increasing node order.
    """
    return _composite(breakpoints, *_gl_reference(order))


def grid_panels(step: float, starts):
    """(mid, half, ref) of panels of DEFAULT_ORDER equally spaced rows of
    the grid k * step: the panel at start s holds rows s, s + 1, ..., and
    ref = linspace(-1, 1, DEFAULT_ORDER).  The rows of
    np.linspace(0, R, size), step = R / (size - 1), are within an ulp of
    mid + half ref."""
    mid = (np.asarray(starts) + 0.5 * (DEFAULT_ORDER - 1)) * step
    half = np.full(mid.size, 0.5 * (DEFAULT_ORDER - 1) * step)
    return mid, half, np.linspace(-1.0, 1.0, DEFAULT_ORDER)


def gl_panels(nodes):
    """(mid, half, ref) of the composite GL-16 rule `panel_rule` made these
    nodes from, or None.

    The nodes are taken as panels of DEFAULT_ORDER consecutive nodes; each
    panel's mid and half come from its two end nodes and ref is the
    reference rule.  The result is accepted only if mid + half ref is within
    one ulp of the panel's largest node at every node of it, as
    `RadialKernel` takes panels; otherwise, and when the count is not a
    multiple of DEFAULT_ORDER, it is None.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size == 0 or x.size % DEFAULT_ORDER:
        return None
    ref = _gl_reference(DEFAULT_ORDER)[0]
    panel = x.reshape(-1, DEFAULT_ORDER)
    mid = 0.5 * (panel[:, 0] + panel[:, -1])
    half = (panel[:, -1] - panel[:, 0]) / (ref[-1] - ref[0])
    error = np.abs(mid[:, None] + half[:, None] * ref - panel)
    ulp = np.spacing(np.abs(panel).max(axis=1))
    if not (np.all(half > 0.0) and np.all(error <= ulp[:, None])):
        return None
    return mid, half, ref


# QUADPACK's qk15 (Piessens et al., 1983), to double precision: the Kronrod
# abscissae in [0, 1), decreasing, their K15 weights, and the G7 weights of
# the Gauss subset (0 at the four Kronrod-only abscissae here).
_GK15_X = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
           0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
           0.20778495500789848, 0.0)
_K15_W = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
          0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
          0.20443294007529889, 0.20948214108472782)
_G7_W = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664,
         0.0, 0.3818300505051189, 0.0, 0.4179591836734694)


# The 15 G7/K15 nodes on [-1, 1], increasing.
KRONROD_NODES = np.concatenate((np.negative(_GK15_X), _GK15_X[-2::-1]))
KRONROD_NODES.flags.writeable = False


def kronrod_rule(breakpoints):
    """Composite G7/K15 Gauss-Kronrod (nodes, K15 weights, G7 weights).

    15 nodes per panel, increasing; the G7 weights vanish at the eight
    Kronrod-only nodes, so one set of values gives both sums.
    """
    k_w, g_w = (np.concatenate((w, w[-2::-1])) for w in (_K15_W, _G7_W))
    return _composite(breakpoints, KRONROD_NODES, k_w, g_w)


def phase_breakpoints(lo, hi, linear_rate=0.0, power_coeff=0.0, power=1.0,
                      panel_cap=None, forced=(), budget=PHASE_BUDGET):
    """Panel edges on [lo, hi] bounding accumulated phase per panel.

    The phase model is psi(x) = linear_rate * x + |power_coeff| * x**power,
    monotone on x >= 0.  Edges are chosen so psi increases by at most
    `budget` radians across each panel; `panel_cap` additionally limits the
    panel width (used to resolve non-oscillatory structure such as a narrow
    profile).  `forced` points are inserted as exact edges.
    """
    lo = float(lo)
    hi = float(hi)
    if not hi > lo:
        raise ValueError("empty interval")
    linear_rate = abs(float(linear_rate))
    power_coeff = abs(float(power_coeff))
    cap = float(panel_cap) if (panel_cap is not None and panel_cap > 0) else (hi - lo)

    def cost(x):
        # Panels per unit of accumulated phase plus panels per unit width;
        # strictly increasing, so inversion below is well defined.
        out = (linear_rate * x) / budget + (x - lo) / cap
        if power_coeff > 0.0:
            out = out + (power_coeff / budget) * np.power(x, power)
        return out

    total = cost(hi) - cost(lo)
    n_panels = max(int(np.ceil(total)), 1)

    # Equidistribute the cost on a dense grid; dense enough that edge
    # placement error is a small fraction of a panel.
    dense = np.linspace(lo, hi, max(8 * n_panels + 1, 257))
    cost_dense = cost(dense)
    targets = np.linspace(cost_dense[0], cost_dense[-1], n_panels + 1)
    edges = np.interp(targets, cost_dense, dense)
    edges[0], edges[-1] = lo, hi

    if forced:
        extra = [p for p in forced if lo < p < hi]
        if extra:
            edges = np.union1d(edges, np.asarray(extra, dtype=float))
    # Deduplicate edges that collapsed numerically.
    keep = np.concatenate(([True], np.diff(edges) > 1e-300))
    return edges[keep]


def oscillatory_rule(lo, hi, linear_rate=0.0, power_coeff=0.0, power=1.0,
                     panel_cap=None, forced=(), budget=PHASE_BUDGET):
    """GL-16 nodes/weights resolving the given oscillation model on [lo, hi]."""
    return panel_rule(phase_breakpoints(lo, hi, linear_rate, power_coeff, power,
                                        panel_cap, forced, budget))

