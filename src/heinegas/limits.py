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

Either limit is a tuple of independent Heine families, each with the
coordinates it adds into (``families``). The predicted law is a fold of
``convolve_mapped``, the MGF a product of ``heine.mgf`` factors and the
moments mapped sums (``predicted_law``, ``predicted_mgf``,
``limit_moments``). ``convergence_row`` is one n of ``heinegas converge``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .engine import (
    QuadratureConfig,
    exact_count_law,
    joint_mgf,
    landing_matrix,
    standard_regions,
)
from .heine import (
    CoordinateMap,
    CountLaw,
    HeineParams,
    convolve_mapped,
    covariance_matrix,
    mean_vector,
    mgf,
    pmf_table,
    tv_distance,
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
    "convergence_row",
    "limit_for",
    "limit_moments",
    "predicted_law",
    "predicted_mgf",
]


def _heine(vartheta: Sequence[float], rho: Sequence[float]) -> HeineParams:
    """The Heine law with θ_k = ϑ_k ρ_k and q_k = ρ_k²."""
    return validate_params([v * r for v, r in zip(vartheta, rho)], [r * r for r in rho])


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

    x_n = None  # the case-1 limit does not oscillate with n

    @property
    def families(self) -> Tuple[Tuple[HeineParams, Tuple[int, ...]], ...]:
        """One Heine family on coordinates (0, ..., m-1)."""
        return ((self.heine, tuple(range(self.m))),)

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
    lap_b0, *lap_t = _positive_laplacians(pot, (b0,) + ts)
    vartheta = tuple(math.sqrt(lap_b0 / lv) for lv in lap_t)
    rho = tuple(b0 / t for t in ts)
    return Case1Limit(m=len(ts), vartheta=vartheta, rho=rho, heine=_heine(vartheta, rho))


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

    @property
    def families(self) -> Tuple[Tuple[HeineParams, Tuple[int, ...]], ...]:
        """The tilde and hat families on the coordinate map's targets."""
        return ((self.tilde, self.cmap.a_to), (self.hat, self.cmap.b_to))

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
    lap_b0, *lap_t, lap_a1 = _positive_laplacians(pot, (b0,) + ts + (a1,))

    # tilde sees (b0, t_1, ..., t_m) from a1; hat sees (t_1, ..., t_m, a1) from b0
    tilde_rho = tuple(r / a1 for r in (b0,) + ts)
    hat_rho = tuple(b0 / r for r in ts + (a1,))
    tilde_vartheta = tuple(
        math.sqrt(lap_a1 / lv) * r ** (-2.0 * x_n) for lv, r in zip([lap_b0] + lap_t, tilde_rho)
    )
    hat_vartheta = tuple(
        math.sqrt(lap_b0 / lv) * r ** (2.0 * x_n) for lv, r in zip(lap_t + [lap_a1], hat_rho)
    )
    recip = hat_vartheta[-1] * tilde_vartheta[0]
    if abs(recip - 1.0) > 1e-12:
        raise ValueError(f"gap-edge intensities fail reciprocity ({recip!r})")

    m = len(ts)
    cmap = CoordinateMap(m + 1, m + 1, m + 1, tuple(range(m + 1)), tuple(range(1, m + 1)) + (0,))
    return Case2Limit(
        n=int(n),
        m=m,
        mass_inner=m0_mass,
        x_n=float(x_n),
        tilde_rho=tilde_rho,
        hat_rho=hat_rho,
        tilde_vartheta=tilde_vartheta,
        hat_vartheta=hat_vartheta,
        tilde=_heine(tilde_vartheta, tilde_rho),
        hat=_heine(hat_vartheta, hat_rho),
        cmap=cmap,
    )


# ------------------------------------------------------------ either limit

Limit = Union[Case1Limit, Case2Limit]


def limit_for(data: DropletData, pot: RadialPotential, n: int) -> Limit:
    """The limit the count vector of a classified droplet is compared with
    at n: ``case1`` beyond a connected droplet, ``case2`` in its gap."""
    if data.case_tag == "case1":
        return case1(data, pot)
    if data.case_tag == "case2":
        return case2(data, pot, n)
    raise ValueError(
        f"a droplet tagged {data.case_tag!r} has no limit law: it needs case1 "
        "or case2 outposts"
    )


def _arity(lim: Limit) -> int:
    """Coordinates of the combined count vector; each receives a family's."""
    return len({t for _, to in lim.families for t in to})


def predicted_law(lim: Limit, tail_tol: float = 1e-12) -> CountLaw:
    """Law of the combined count vector: the families' ``pmf_table``s, each
    at an even share of tail_tol, folded by ``convolve_mapped`` onto their
    target coordinates. A single family's law is its table unchanged."""
    (heine, placed), *rest = lim.families
    share = tail_tol / (1 + len(rest))
    law = pmf_table(heine, tail_tol=share)
    for heine, to in rest:
        cmap = CoordinateMap(law.m, len(to), _arity(lim), placed, to)
        law = convolve_mapped(law, pmf_table(heine, tail_tol=share), cmap)
        placed = tuple(range(law.m))
    return law


def predicted_mgf(lim: Limit, s: Sequence[float]) -> float:
    """E[exp(Σ_k s_k N_k)] of the combined law: the product over families
    of ``heine.mgf`` at the s of their target coordinates. In case 2 the
    hat family's extra coordinate m+1 reads s_0 through the fold-back map."""
    sv = np.asarray(s, dtype=float)
    if sv.shape != (_arity(lim),):
        raise ValueError("s length must equal the limit's coordinate count")
    return math.prod(mgf(heine, sv[list(to)]) for heine, to in lim.families)


def _assignment_matrix(to: Tuple[int, ...], target: int) -> np.ndarray:
    a = np.zeros((target, len(to)))
    for i, t in enumerate(to):
        a[t, i] = 1.0
    return a


def limit_moments(lim: Limit):
    """(mean, variance, covariance matrix) of the combined law.

    Each family's Heine moments (``mean_vector``, ``covariance_matrix``)
    are pushed through its coordinates; independence makes every mixed
    covariance exactly zero, so the mapped matrices just add.
    """
    target = _arity(lim)
    mean, cov = np.zeros(target), np.zeros((target, target))
    for heine, to in lim.families:
        a = _assignment_matrix(to, target)
        mean = mean + a @ mean_vector(heine)
        cov = cov + a @ covariance_matrix(heine) @ a.T
    return mean, np.diag(cov).copy(), cov


# the names these functions had when they took only a case-2 limit
case2_predicted_law = predicted_law
case2_predicted_mgf = predicted_mgf
case2_moments = limit_moments


# ---------------------------------------------------------- one n of a study


def convergence_row(
    pot: RadialPotential,
    data: DropletData,
    n: int,
    s_grid,
    qcfg: QuadratureConfig = QuadratureConfig(),
    eps: Optional[float] = None,
    smooth: bool = True,
) -> Tuple[dict, CountLaw, CountLaw, Limit]:
    """The exact count law at n against its limit: (row, exact law,
    predicted law, limit). The row holds the TV bracket, the largest
    relative MGF error over ``s_grid``, the seconds taken, what the law and
    π's quadrature reached, and the relative gap of the smooth MGF from
    the hard one at s = (1, ..., 1) when ``smooth``. ``eps`` is the region
    half-width, standard_regions' default when None."""
    t0 = time.monotonic()
    lim = limit_for(data, pot, n)
    regions, eps = standard_regions(data, n, eps=eps)
    law = exact_count_law(pot, n, regions, cfg=qcfg)
    landing = landing_matrix(pot, n, regions, qcfg)
    predicted = predicted_law(lim, tail_tol=1e-12)
    tv_lo, tv_hi = tv_distance(law, predicted)
    mgf_err = 0.0
    for s in s_grid:
        finite = joint_mgf(pot, n, s, regions, qcfg).value
        target = predicted_mgf(lim, s)
        mgf_err = max(mgf_err, abs(finite - target) / abs(target))
    diag = None
    if smooth:
        bumps, _ = standard_regions(data, n, eps=eps, smooth=True)
        s_ref = [1.0] * regions.m
        hard_val = joint_mgf(pot, n, s_ref, regions, qcfg).value
        diag = abs(joint_mgf(pot, n, s_ref, bumps, qcfg).value - hard_val) / abs(hard_val)
    row = {
        "n": n,
        "tv_lo": tv_lo,
        "tv_hi": tv_hi,
        "mgf_err_max": mgf_err,
        "seconds": time.monotonic() - t0,
        "x_n": lim.x_n,
        "eps": eps,
        "cap": list(law.cap),
        "exact_mass_deficit": law.mass_deficit,
        "kept_rows": {
            "spans": [list(span) for span in landing.spans()],
            "count": int(landing.rows.size),
        },
        "localization_bound": landing.bound,
        "quadrature": {
            "splits": landing.splits,
            "nodes": landing.nodes,
            "gap": landing.gap,
        },
        "predicted_mass_deficit": predicted.mass_deficit,
        "smooth_vs_hard_mgf_gap": diag,
        "limit": lim.to_json_dict(),
    }
    return row, law, predicted, lim
