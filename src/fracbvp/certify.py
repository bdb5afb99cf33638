"""Existence and uniqueness certificates for the nonlinear problem.

Uniqueness rests on a contraction bound: when f is Lipschitz in (u, v) with
constant k, the fixed-point operator contracts in the pair norm whenever

    d = 2 k max(gstar, theta) < 1,

which for k >= 0 is max(2 k gstar, 2 k theta) bit for bit.  gstar is the
kernel mass sup_t integral |G(t, s)| ds and theta is the companion-kernel
envelope, H's triangle mass (greens.theta):

    theta = 1 + Gamma(2-beta) / (Gamma(3-alpha) Gamma(alpha-beta+1)).

Existence needs only a growth bound |f(t, u, v)| <= p_star psi(r) on pairs of
norm r: any radius r with r >= max(gstar, theta) p_star psi(r), the same
kernel bound, supports a fixed point.  psi is affine, psi(r) = a + b r, with
b = 0 the constant case; for it the smallest such radius has a closed form.

Every sampled check of f is here too, on one state lattice: the Lipschitz
estimate of an omitted k, and :func:`contradiction`'s test of a supplied k
or growth block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .expr import Expr, evaluate
from .greens import ProblemParams, gstar, gstar_coarse_bound, theta
from .solver import ProblemSpec


@dataclass(frozen=True)
class GrowthSpec:
    """Growth condition |f(t, u, v)| <= p_star (a + b max(|u|, |v|)), b = 0 the
    constant envelope.  The fields are checked in the order a, b, p_star."""

    p_star: float
    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainError(f"growth envelope needs a > 0, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise DomainError(f"growth envelope needs b >= 0, got {self.b!r}")
        if not (math.isfinite(self.p_star) and self.p_star >= 0.0):
            raise DomainError(f"p_star must be >= 0, got {self.p_star!r}")


@dataclass(frozen=True)
class Certificate:
    """Outcome of a certification run.

    ``estimated_k`` marks certificates whose Lipschitz constant came from
    sampled finite differences rather than the caller; those are heuristic,
    not rigorous.
    """

    params: ProblemParams
    gstar_value: float
    gstar_paper_bound: float
    theta: float
    k: float
    d: float
    unique: bool
    r: Optional[float]
    exists: bool
    estimated_k: bool

    def as_dict(self) -> dict[str, object]:
        return {
            "gstar_value": self.gstar_value,
            "gstar_paper_bound": self.gstar_paper_bound,
            "theta": self.theta,
            "k": self.k,
            "d": self.d,
            "unique": self.unique,
            "r": self.r,
            "exists": self.exists,
            "estimated_k": self.estimated_k,
        }


def contraction_constant(k: float, kernel_bound: float) -> float:
    """d = 2 k max(gstar, theta) for a Lipschitz constant k >= 0, given the
    kernel bound max(gstar, theta)."""
    if not (math.isfinite(k) and k >= 0.0):
        raise DomainError(f"Lipschitz constant must be >= 0, got {k!r}")
    if not (math.isfinite(kernel_bound) and kernel_bound >= 0.0):
        raise DomainError(f"kernel bound must be >= 0, got {kernel_bound!r}")
    return 2.0 * k * kernel_bound


def existence_radius(growth: GrowthSpec, kernel_bound: float) -> Optional[float]:
    """Smallest radius r with r >= max(gstar, theta) p_star psi(r), given the
    kernel bound max(gstar, theta).

    Returns None when no finite radius satisfies the inequality (affine
    envelope with slope too large), or when the radius overflows to inf.
    """
    if not (math.isfinite(kernel_bound) and kernel_bound >= 0.0):
        raise DomainError(f"kernel bound must be >= 0, got {kernel_bound!r}")
    p = growth.p_star
    slope = p * growth.b * kernel_bound
    if slope >= 1.0:
        return None
    r = p * growth.a * kernel_bound / (1.0 - slope)
    return r if math.isfinite(r) else None


def certify(
    spec: ProblemSpec,
    k: Optional[float] = None,
    growth: Optional[GrowthSpec] = None,
    n: int = 2049,
    m: int = 257,
) -> Certificate:
    """Build a certificate for the problem from computed kernel constants.

    When no Lipschitz constant is supplied, one is estimated by sampled
    finite differences of the right-hand side and the certificate is flagged
    ``estimated_k``.  A supplied ``k`` and ``growth`` are taken as given;
    :func:`contradiction` tests them against samples of the right-hand
    side.  ``m`` is the number of t nodes of the gstar scan; ``n`` is
    ignored and kept only for the signature.
    """
    params = spec.params
    gs = gstar(params, m=m)
    th = theta(params)
    kernel_bound = max(gs, th)
    estimated = k is None
    # a Python float k keeps d a float and unique a bool, as json.dumps needs
    k = float(lipschitz_estimate(spec.rhs) if k is None else k)
    d = contraction_constant(k, kernel_bound)
    r = existence_radius(growth, kernel_bound) if growth is not None else None
    return Certificate(
        params=params,
        gstar_value=gs,
        gstar_paper_bound=gstar_coarse_bound(params),
        theta=th,
        k=k,
        d=d,
        unique=d < 1.0,
        r=r,
        exists=r is not None,
        estimated_k=estimated,
    )


# The state lattice of every sampled check: 65 t values on [0, 1] crossed
# with 5 nodes per axis on [-10, 10]^2, each node with four central-difference
# probes (u+du, u-du, v+dv, v-dv), steps 1e-6 * (1 + |coordinate|).  The
# points are three contiguous arrays of one shape, (65, 5, 5, 4), as evaluate
# requires (it broadcasts nothing); C order is the order of the nested scalar loop
# t -> u -> v -> probe, so the first failing point reported is the one that
# loop would hit first.
_AXIS = 10.0 * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
_NODE_U, _NODE_V = np.meshgrid(_AXIS, _AXIS, indexing="ij")
_DU, _DV = 1e-6 * (1.0 + np.abs(_NODE_U)), 1e-6 * (1.0 + np.abs(_NODE_V))
_PROBE_U = np.stack([_NODE_U + _DU, _NODE_U - _DU, _NODE_U, _NODE_U], axis=-1)
_PROBE_V = np.stack([_NODE_V, _NODE_V, _NODE_V + _DV, _NODE_V - _DV], axis=-1)
_T = np.arange(65)[:, None, None, None] / 64
_LATTICE = tuple(np.ascontiguousarray(x) for x in np.broadcast_arrays(_T, _PROBE_U, _PROBE_V))
# contradiction's samples, the lattice's rows t = 0, 1/2 and 1: 300 points
_CHECK_POINTS = tuple(np.ascontiguousarray(x[::32]) for x in _LATTICE)


def _samples(e: Expr, points: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """f at ``points``, rows of the state lattice, and at each (t, node) the
    larger of its central-difference quotients in u and v, in absolute value.

    A failing evaluation raises :class:`EvaluationError` naming the first
    failing point (t, u, v).
    """
    try:
        f = evaluate(e, *points)
    except EvaluationError as exc:
        t, u, v = (x.flat[exc.index] for x in points)
        raise EvaluationError(
            f"right-hand side failed on the sampled state lattice at (t, u, v) = "
            f"({t:.12g}, {u:.12g}, {v:.12g}): {exc}",
            exc.index,
        ) from exc
    fu, fv = (f[..., 0] - f[..., 1]) / (2 * _DU), (f[..., 2] - f[..., 3]) / (2 * _DV)
    return f, np.maximum(np.abs(fu), np.abs(fv))


def lipschitz_estimate(e: Expr) -> float:
    """Sampled bound on max(|df/du|, |df/dv|) over [0,1] x [-10, 10]^2.

    Central differences with step 1e-6 * (1 + |coordinate|) at every point of
    a 65-point t grid crossed with a 5-point lattice per state axis.  This is
    an estimate, not a certified constant: it can undershoot the true
    Lipschitz constant between samples.
    """
    return float(np.max(_samples(e, _LATTICE)[1]))


def contradiction(rhs: Expr, k: Optional[float], growth: Optional[GrowthSpec]) -> Optional[str]:
    """Why samples of f disprove a supplied ``k`` or ``growth``, or None.

    f is sampled once on the rows t = 0, 1/2 and 1 of the state lattice of
    :func:`lipschitz_estimate`, probes included, 300 points.  Each central
    difference quotient is a lower bound on the Lipschitz constant up to a
    roundoff below about 4.4e-10 max|f| (steps are at least 1e-6), so ``k`` is
    disproved when a quotient exceeds k + 1e-9 (k + max|f|).  ``growth`` is
    disproved by a sample with |f| > p_star psi(max(|u|, |v|)) + 1e-9 (1 + |f|).
    The text names the key, the sampled value and the point (t, u, v).
    """
    if k is None and growth is None:
        return None
    t, u, v = _CHECK_POINTS
    f, quotient = _samples(rhs, _CHECK_POINTS)
    size = np.abs(f)
    if k is not None:
        i, j, l = np.unravel_index(np.argmax(quotient), quotient.shape)
        if quotient[i, j, l] > k + 1e-9 * (k + size.max()):
            return (
                f"key 'k': {k!r} is below the sampled difference quotient "
                f"{quotient[i, j, l]:.12g} of rhs at (t, u, v) = "
                f"({t[i, j, l, 0]:.12g}, {_NODE_U[j, l]:.12g}, {_NODE_V[j, l]:.12g})"
            )
    if growth is not None:
        # an overflowing bound is inf, which no sample exceeds
        with np.errstate(over="ignore"):
            bound = growth.p_star * (growth.a + growth.b * np.maximum(np.abs(u), np.abs(v)))
        excess = size - bound - 1e-9 * (1.0 + size)
        at = np.unravel_index(np.argmax(excess), excess.shape)
        if excess[at] > 0.0:
            return (
                f"key 'p_star': |rhs| = {size[at]:.12g} exceeds p_star * "
                f"psi(max(|u|, |v|)) = {bound[at]:.12g} at (t, u, v) = "
                f"({t[at]:.12g}, {u[at]:.12g}, {v[at]:.12g})"
            )
    return None
