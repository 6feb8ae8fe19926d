"""Scaling limits of outpost counts for the radial Coulomb gas.

Two regimes are covered. With outposts strictly outside a connected
droplet (case 1), the count vector converges to a multi-dimensional Heine
law whose parameters come from the droplet edge b0, the outpost radii t_k,
and the obstacle density ΔQ at those radii:

    ϑ_k = sqrt(ΔQ(b0) / ΔQ(t_k)),   ρ_k = b0 / t_k,
    limit law He with θ_k = ϑ_k ρ_k and q_k = ρ_k².

With outposts inside a spectral gap between two droplet components
(case 2), the limit does not settle: along each n the counts decompose
into two independent Heine vectors, the "tilde" family anchored at the
outer gap edge a1 and the "hat" family anchored at the inner edge b0,
with parameters oscillating through x_n = M0·n − ⌊M0·n⌋. Coordinate 0 is
the index-split gap-edge statistic; the hat family's extra coordinate
m+1 folds back into it, which is what the CoordinateMap encodes.

Moments, MGFs and tables of the limit laws come from the Heine module:
``case2_moments`` and ``case2_predicted_mgf`` push each family's Heine
moments or MGF through the coordinate map. The case-1 moments are the
Heine moments of ``Case1Limit.heine``. The tests check them against the
site series summed directly in the (ϑ, ρ) parameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .heine import (
    CoordinateMap,
    CountLaw,
    HeineParams,
    convolve_mapped,
    covariance_matrix,
    mean_vector,
    mgf,
    pmf_table,
    validate_params,
)
from .potentials import DropletData, RadialPotential, laplacian

__all__ = [
    "Case1Limit",
    "Case2Limit",
    "case1",
    "case2",
    "case2_moments",
    "case2_predicted_law",
    "case2_predicted_mgf",
]


def _positive_laplacians(pot: RadialPotential, radii: Sequence[float]):
    out = []
    for r in radii:
        v = float(laplacian(pot, r))
        if v <= 0.0:
            raise ValueError(f"nonpositive obstacle density at r = {r:.6g}")
        out.append(v)
    return out


# -------------------------------------------------------------------- case 1


@dataclass(frozen=True)
class Case1Limit:
    """Limit parameters for outposts beyond a connected droplet."""

    m: int
    vartheta: Tuple[float, ...]
    rho: Tuple[float, ...]
    heine: HeineParams

    def to_json_dict(self) -> dict:
        return {
            "case": "case1",
            "m": self.m,
            "vartheta": list(self.vartheta),
            "rho": list(self.rho),
            "theta": list(self.heine.thetas),
            "q": list(self.heine.qs),
        }


def case1(data: DropletData, pot: RadialPotential) -> Case1Limit:
    """Limit Heine parameters from a classified case-1 droplet."""
    if data.case_tag != "case1":
        raise ValueError("case-1 limit requires a case-1 droplet")
    b0 = data.components[0][1]
    ts = tuple(data.outposts)
    if any(t <= b0 for t in ts):
        raise ValueError("outpost radius must exceed the droplet edge")
    lap_b0 = _positive_laplacians(pot, [b0])[0]
    lap_t = _positive_laplacians(pot, ts)
    vartheta = tuple(math.sqrt(lap_b0 / lv) for lv in lap_t)
    rho = tuple(b0 / t for t in ts)
    heine = validate_params(
        [v * r for v, r in zip(vartheta, rho)], [r * r for r in rho]
    )
    return Case1Limit(m=len(ts), vartheta=vartheta, rho=rho, heine=heine)


# -------------------------------------------------------------------- case 2


@dataclass(frozen=True)
class Case2Limit:
    """n-dependent limit parameters for outposts inside a spectral gap.

    tilde coordinates run 0..m (0 is the gap-edge statistic seen from a1);
    hat coordinates run 1..m+1 in storage order (1, ..., m, m+1), with
    coordinate m+1 the gap-edge statistic seen from b0. cmap folds hat
    coordinate m+1 into combined coordinate 0.
    """

    n: int
    m: int
    mass_inner: float
    x_n: float
    tilde_rho: Tuple[float, ...]
    hat_rho: Tuple[float, ...]
    tilde_vartheta: Tuple[float, ...]
    hat_vartheta: Tuple[float, ...]
    tilde: HeineParams
    hat: HeineParams
    cmap: CoordinateMap

    def to_json_dict(self) -> dict:
        return {
            "case": "case2",
            "n": self.n,
            "m": self.m,
            "mass_inner": self.mass_inner,
            "x_n": self.x_n,
            "tilde_rho": list(self.tilde_rho),
            "hat_rho": list(self.hat_rho),
            "tilde_vartheta": list(self.tilde_vartheta),
            "hat_vartheta": list(self.hat_vartheta),
            "tilde_theta": list(self.tilde.thetas),
            "tilde_q": list(self.tilde.qs),
            "hat_theta": list(self.hat.thetas),
            "hat_q": list(self.hat.qs),
        }


def case2(data: DropletData, pot: RadialPotential, n: int) -> Case2Limit:
    """n-dependent limit parameters from a classified case-2 droplet.

    The oscillation phase x_n is the fractional part of M0·n, with M0 the
    measured inner-component mass; the reciprocal identity between the two
    gap-edge intensities holds exactly by construction and is re-checked.
    """
    if data.case_tag != "case2":
        raise ValueError("case-2 limit requires a case-2 droplet")
    if n < 2:
        raise ValueError("n must be >= 2")
    b0 = data.components[0][1]
    a1 = data.components[1][0]
    ts = tuple(data.outposts)
    if any(not b0 < t < a1 for t in ts):
        raise ValueError("outpost radius must lie strictly inside the gap")
    m0_mass = float(data.masses[0])
    if not 0.0 < m0_mass < 1.0:
        raise ValueError("inner component mass must lie in (0, 1)")
    x_n = data.index_split(n)[1]
    lap_b0, lap_a1 = _positive_laplacians(pot, [b0, a1])
    lap_t = _positive_laplacians(pot, ts)

    tilde_rho = (b0 / a1,) + tuple(t / a1 for t in ts)
    hat_rho = tuple(b0 / t for t in ts) + (b0 / a1,)
    tilde_vartheta = (math.sqrt(lap_a1 / lap_b0) * tilde_rho[0] ** (-2.0 * x_n),) + tuple(
        math.sqrt(lap_a1 / lv) * r ** (-2.0 * x_n)
        for lv, r in zip(lap_t, tilde_rho[1:])
    )
    hat_vartheta = tuple(
        math.sqrt(lap_b0 / lv) * r ** (2.0 * x_n) for lv, r in zip(lap_t, hat_rho[:-1])
    ) + (math.sqrt(lap_b0 / lap_a1) * hat_rho[-1] ** (2.0 * x_n),)
    recip = hat_vartheta[-1] * tilde_vartheta[0]
    if abs(recip - 1.0) > 1e-12:
        raise ValueError(f"gap-edge intensities fail reciprocity ({recip!r})")

    tilde = validate_params(
        [v * r for v, r in zip(tilde_vartheta, tilde_rho)],
        [r * r for r in tilde_rho],
    )
    hat = validate_params(
        [v * r for v, r in zip(hat_vartheta, hat_rho)],
        [r * r for r in hat_rho],
    )
    m = len(ts)
    cmap = CoordinateMap(
        source_a=m + 1,
        source_b=m + 1,
        target=m + 1,
        a_to=tuple(range(m + 1)),
        b_to=tuple(range(1, m + 1)) + (0,),
    )
    return Case2Limit(
        n=int(n),
        m=m,
        mass_inner=m0_mass,
        x_n=float(x_n),
        tilde_rho=tilde_rho,
        hat_rho=hat_rho,
        tilde_vartheta=tilde_vartheta,
        hat_vartheta=hat_vartheta,
        tilde=tilde,
        hat=hat,
        cmap=cmap,
    )


def case2_predicted_law(lim: Case2Limit, tail_tol: float = 1e-12) -> CountLaw:
    """Combined law of (N_0, ..., N_m): the coordinate-mapped sum of the
    independent tilde and hat Heine vectors."""
    half = tail_tol / 2.0
    tilde_law = pmf_table(lim.tilde, tail_tol=half)
    hat_law = pmf_table(lim.hat, tail_tol=half)
    return convolve_mapped(tilde_law, hat_law, lim.cmap)


def case2_predicted_mgf(lim: Case2Limit, s: Sequence[float]) -> float:
    """E[exp(Σ_k s_k N_k)] of the combined law, s indexed by 0..m: the
    product of the two families' ``heine.mgf``.

    The hat factor sees (s_1, ..., s_m, s_0): its extra coordinate m+1 is
    bound to s_0 through the fold-back map.
    """
    sv = np.asarray(s, dtype=float)
    if sv.shape != (lim.m + 1,):
        raise ValueError("s length must be m + 1 (coordinates 0..m)")
    if np.any(np.abs(sv) > math.log(max(lim.n, 2)) + 1e-12):
        raise ValueError("s out of range (require |s_k| <= log n)")
    s_hat = np.concatenate((sv[1:], sv[:1]))
    return mgf(lim.tilde, sv) * mgf(lim.hat, s_hat)


def _assignment_matrix(to: Tuple[int, ...], target: int) -> np.ndarray:
    a = np.zeros((target, len(to)))
    for i, t in enumerate(to):
        a[t, i] = 1.0
    return a


def case2_moments(lim: Case2Limit):
    """(mean, variance, covariance matrix) of the combined law.

    Each side's Heine moments (``mean_vector``, ``covariance_matrix``) are
    pushed through the coordinate map; independence makes every mixed
    tilde/hat covariance exactly zero, so the mapped matrices just add.
    """
    a = _assignment_matrix(lim.cmap.a_to, lim.cmap.target)
    b = _assignment_matrix(lim.cmap.b_to, lim.cmap.target)
    mean = a @ mean_vector(lim.tilde) + b @ mean_vector(lim.hat)
    cov = a @ covariance_matrix(lim.tilde) @ a.T + b @ covariance_matrix(lim.hat) @ b.T
    return mean, np.diag(cov).copy(), cov
