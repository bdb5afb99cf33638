"""Existence and uniqueness certificates for the nonlinear problem.

Uniqueness rests on a contraction bound: when f is Lipschitz in (u, v) with
constant k, the fixed-point operator contracts in the pair norm whenever

    d = max(2 k gstar, 2 k theta) < 1,

where gstar is the kernel mass sup_t integral |G(t, s)| ds and theta is the
companion-kernel envelope, H's triangle mass (greens.theta):

    theta = 1 + Gamma(2-beta) / (Gamma(3-alpha) Gamma(alpha-beta+1)).

Existence needs only a growth bound |f(t, u, v)| <= p_star psi(r) on pairs of
norm r: any radius r with r >= max(gstar, theta) p_star psi(r) supports a
fixed point.  psi is affine, psi(r) = a + b r, with b = 0 the constant case;
for it the smallest such radius has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .expr import NODE_U, NODE_V, Expr, lattice_samples, lipschitz_estimate, state_lattice
from .greens import ProblemParams, gstar, gstar_coarse_bound, theta
from .solver import ProblemSpec


@dataclass(frozen=True)
class AffinePsi:
    """Growth envelope psi(r) = a + b r; the default b = 0 is the constant case."""

    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainError(f"growth envelope needs a > 0, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise DomainError(f"growth envelope needs b >= 0, got {self.b!r}")


@dataclass(frozen=True)
class GrowthSpec:
    """Growth condition |f(t, u, v)| <= p_star * psi(max(|u|, |v|))."""

    p_star: float
    psi: AffinePsi

    def __post_init__(self) -> None:
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


def contraction_constant(params: ProblemParams, k: float, gstar_value: float) -> float:
    """d = max(2 k gstar, 2 k theta) for a Lipschitz constant k >= 0."""
    if not (math.isfinite(k) and k >= 0.0):
        raise DomainError(f"Lipschitz constant must be >= 0, got {k!r}")
    if not (math.isfinite(gstar_value) and gstar_value >= 0.0):
        raise DomainError(f"gstar must be >= 0, got {gstar_value!r}")
    return max(2.0 * k * gstar_value, 2.0 * k * theta(params))


def existence_radius(
    params: ProblemParams, growth: GrowthSpec, gstar_value: float
) -> Optional[float]:
    """Smallest radius r with r >= max(gstar, theta) p_star psi(r).

    Returns None when no finite radius satisfies the inequality (affine
    envelope with slope too large).
    """
    if not (math.isfinite(gstar_value) and gstar_value >= 0.0):
        raise DomainError(f"gstar must be >= 0, got {gstar_value!r}")
    m = max(gstar_value, theta(params))
    p = growth.p_star
    slope = p * growth.psi.b * m
    if slope >= 1.0:
        return None
    return p * growth.psi.a * m / (1.0 - slope)


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
    estimated = k is None
    # a Python float k keeps d a float and unique a bool, as json.dumps needs
    k = float(lipschitz_estimate(spec.rhs) if k is None else k)
    d = contraction_constant(params, k, gs)
    r = existence_radius(params, growth, gs) if growth is not None else None
    return Certificate(
        params=params,
        gstar_value=gs,
        gstar_paper_bound=gstar_coarse_bound(params),
        theta=theta(params),
        k=k,
        d=d,
        unique=d < 1.0,
        r=r,
        exists=r is not None,
        estimated_k=estimated,
    )


# contradiction's samples: t in {0, 1/2, 1} on the state lattice and its
# probes, 3 x 25 x 4 = 300 points
_CHECK_POINTS = state_lattice(np.array([0.0, 0.5, 1.0]))


def contradiction(rhs: Expr, k: Optional[float], growth: Optional[GrowthSpec]) -> Optional[str]:
    """Why samples of f disprove a supplied ``k`` or ``growth``, or None.

    f is sampled once at t in {0, 1/2, 1} on the state lattice of
    :func:`lipschitz_estimate` and its four probes, 300 points.  Each central
    difference quotient is a lower bound on the Lipschitz constant up to a
    roundoff below about 4.4e-10 max|f| (steps are at least 1e-6), so ``k`` is
    disproved when a quotient exceeds k + 1e-9 (k + max|f|).  ``growth`` is
    disproved by a sample with |f| > p_star psi(max(|u|, |v|)) + 1e-9 (1 + |f|).
    The text names the key, the sampled value and the point (t, u, v).
    """
    if k is None and growth is None:
        return None
    t, u, v = _CHECK_POINTS
    f, fu, fv = lattice_samples(rhs, _CHECK_POINTS)
    size = np.abs(f)
    if k is not None:
        quotient = np.maximum(np.abs(fu), np.abs(fv))
        i, j, l = np.unravel_index(np.argmax(quotient), quotient.shape)
        if quotient[i, j, l] > k + 1e-9 * (k + size.max()):
            return (
                f"key 'k': {k!r} is below the sampled difference quotient "
                f"{quotient[i, j, l]:.12g} of rhs at (t, u, v) = "
                f"({t[i, j, l, 0]:.12g}, {NODE_U[j, l]:.12g}, {NODE_V[j, l]:.12g})"
            )
    if growth is not None:
        bound = growth.p_star * (growth.psi.a + growth.psi.b * np.maximum(np.abs(u), np.abs(v)))
        excess = size - bound - 1e-9 * (1.0 + size)
        at = np.unravel_index(np.argmax(excess), excess.shape)
        if excess[at] > 0.0:
            return (
                f"key 'p_star': |rhs| = {size[at]:.12g} exceeds p_star * "
                f"psi(max(|u|, |v|)) = {bound[at]:.12g} at (t, u, v) = "
                f"({t[at]:.12g}, {u[at]:.12g}, {v[at]:.12g})"
            )
    return None
