"""Radial external potentials: evaluation, obstacle diagnostics, and builders.

A potential is a radial profile q(r) given by one evaluation path,
``terms(r, order)``, which returns (q, q′, …, q^(order)) for order 0, 1 or 2
and computes only what is asked for. ``RadialPotential.q``, ``dq`` and
``ddq`` read it for scalars or arrays. The machinery here answers the planar
questions in radial form:

- ``laplacian`` returns the planar Laplacian density ΔQ(r) = (q″ + q′/r)/4.
- ``g_tau`` is the family g_τ(r) = q(r) − 2τ ln r whose minimizers, swept
  over τ ∈ [0, 1], trace out the droplet; simultaneous minimizers at a
  branching value mark spectral gaps and outposts.
- ``find_peaks`` locates the stationary points r q′(r) = 2τ with positive
  curvature and flags those within C log n / n of the global minimum.
- ``classify`` runs the sweep and reports components, outposts, cumulative
  masses, and a case tag.
- ``build_case1`` / ``build_case2`` construct validated example potentials
  with outposts outside the droplet (case 1) or inside a spectral gap
  (case 2), engineered so the touch data (coincidence radii, stationarity,
  ΔQ at the outposts) have closed forms the validators can pin exactly.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "RadialPotential",
    "DropletData",
    "PeakPoint",
    "PeakAnalysis",
    "BumpSpec",
    "Shoulder",
    "BuildValidationError",
    "GridResolutionError",
    "ClassificationError",
    "ValidationCheck",
    "laplacian",
    "g_tau",
    "g_tau_curvature",
    "bump",
    "shoulder",
    "ginibre",
    "build_case1",
    "build_case2",
    "find_peaks",
    "classify",
    "droplet_data",
    "mass_between",
    "derivative_consistency",
    "validation_report",
]


class BuildValidationError(ValueError):
    """A built potential failed one of its construction checks."""

    def __init__(self, check_name: str, detail: str = ""):
        self.check_name = check_name
        self.detail = detail
        super().__init__(f"validator failure: {check_name}" + (f" ({detail})" if detail else ""))


class GridResolutionError(RuntimeError):
    """Peak bracketing grid too coarse: adjacent sign changes unresolved."""


class ClassificationError(RuntimeError):
    """Minimizer branch tracking lost continuity during the tau sweep."""


# ------------------------------------------------------------ smooth cutoffs


def _smoothstep(x: np.ndarray, order: int) -> Tuple[np.ndarray, ...]:
    """Monotone C-infinity step: 0 for x <= 0, 1 for x >= 1, with its
    x-derivatives up to ``order`` (0, 1 or 2).

    Built from eta(x) = exp(-1/x) as eta(x) / (eta(x) + eta(1-x)).
    """
    x = np.asarray(x, dtype=float)
    out = tuple(np.zeros(x.shape) for _ in range(order + 1))
    out[0][x >= 1.0 - 1e-8] = 1.0
    mid = (x > 1e-8) & (x < 1.0 - 1e-8)
    if mid.any():
        xm = x[mid]
        ym = 1.0 - xm
        a = np.exp(-1.0 / xm)
        b = np.exp(-1.0 / ym)
        den = a + b
        out[0][mid] = a / den
        if order >= 1:
            da = a / xm**2
            db = -b / ym**2  # d/dx of eta(1-x)
            num1 = da * b - a * db
            out[1][mid] = num1 / den**2
        if order >= 2:
            dda = a * (1.0 - 2.0 * xm) / xm**4
            ddb = b * (1.0 - 2.0 * ym) / ym**4  # d2/dx2 of eta(1-x), chain (-1)^2
            out[2][mid] = (dda * b - a * ddb) / den**2 - 2.0 * num1 * (da + db) / den**3
    return out


def _zeta_sum(
    r: np.ndarray, centers: Sequence[float], widths: Sequence[float], order: int
) -> Tuple[np.ndarray, ...]:
    """S(r) = sum_k zeta((r - t_k)/w_k) with its r-derivatives up to ``order``.

    zeta(u) = exp(1 - 1/(1-u^2)) for |u| < 1, zero outside; zeta(0) = 1,
    zeta'(0) = 0, zeta''(0) = -2, which makes every touch below quadratic.
    """
    r = np.asarray(r, dtype=float)
    out = tuple(np.zeros(r.shape) for _ in range(order + 1))
    for t, w in zip(centers, widths):
        u = (r - t) / w
        inside = np.abs(u) < 1.0 - 1e-8
        if not inside.any():
            continue
        ui = u[inside]
        v = 1.0 - ui * ui
        with np.errstate(over="ignore", under="ignore"):
            z = np.exp(1.0 - 1.0 / v)
        out[0][inside] += z
        if order >= 1:
            out[1][inside] += (-2.0 * ui / v**2) * z / w
        if order >= 2:
            out[2][inside] += z * (4.0 * ui**2 / v**4 - 2.0 / v**2 - 8.0 * ui**2 / v**3) / w**2
    return out


@dataclass(frozen=True)
class BumpSpec:
    """Radial plateau cutoff at an outpost: 1 on [t - eps/2, t + eps/2],
    0 outside [t - eps, t + eps], C-infinity in between."""

    center: float
    half_width: float

    def __post_init__(self) -> None:
        if self.half_width <= 0.0:
            raise ValueError("bump half_width must be positive")

    @property
    def support(self) -> Tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)


def bump(spec: BumpSpec, r) -> np.ndarray:
    """Evaluate the plateau cutoff h(r) of ``spec`` (values in [0, 1])."""
    rr = np.asarray(r, dtype=float)
    t, eps = spec.center, spec.half_width
    (up,) = _smoothstep((rr - (t - eps)) / (eps / 2.0), 0)
    (down,) = _smoothstep(((t + eps) - rr) / (eps / 2.0), 0)
    out = up * down
    if np.ndim(r) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Shoulder:
    """One-sided plateau cutoff: 1 on the kept side of the roll band
    [lo, hi], 0 past the far side, C-infinity across the band."""

    lo: float
    hi: float
    keep_below: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo < self.hi:
            raise ValueError("shoulder band must satisfy 0 <= lo < hi")


def shoulder(spec: Shoulder, r) -> np.ndarray:
    """Evaluate the one-sided cutoff h(r) of ``spec`` (values in [0, 1])."""
    rr = np.asarray(r, dtype=float)
    (up,) = _smoothstep((rr - spec.lo) / (spec.hi - spec.lo), 0)
    out = 1.0 - up if spec.keep_below else up
    if np.ndim(r) == 0:
        return float(out)
    return out


# ------------------------------------------------------------ potential type


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """Immutable radial potential with analytic derivatives.

    ``terms(r, order)`` is the one evaluation path. Given a float array r
    of any shape with at least one dimension and order 0, 1 or 2, it
    returns the tuple (q, q′, …, q^(order)) of float arrays shaped like r,
    and should compute no derivative above ``order``. A custom potential
    supplies that one function::

        def terms(r, order):
            out = (r * r + 0.25 * r**4,)
            if order >= 1:
                out += (2.0 * r + r**3,)
            if order >= 2:
                out += (2.0 + 3.0 * r**2,)
            return out

        pot = RadialPotential(terms, smooth_window=(0.0, 6.0))

    The methods q, dq and ddq accept scalars (returning floats) or arrays
    of any shape and evaluate at orders 0, 1 and 2. smooth_window is the
    interval on which C2 evaluation is guaranteed; r_max the declared
    range bound with confining growth beyond it. Hashes by identity so
    evaluations can be memoized per instance (see ``per_potential_cache``).
    """

    terms: Callable
    smooth_window: Tuple[float, float]
    r_max: float = 6.0
    label: str = "custom"
    params: Dict = field(default_factory=dict)

    def _evaluate(self, r, order: int):
        rr = np.asarray(r, dtype=float)
        out = self.terms(np.atleast_1d(rr), order)
        if rr.ndim == 0:
            return tuple(float(v[0]) for v in out)
        return out

    def q(self, r):
        """q(r) for a scalar (as a float) or an array of any shape."""
        return self._evaluate(r, 0)[0]

    def dq(self, r):
        """q′(r) for a scalar (as a float) or an array of any shape."""
        return self._evaluate(r, 1)[1]

    def ddq(self, r):
        """q″(r) for a scalar (as a float) or an array of any shape."""
        return self._evaluate(r, 2)[2]


def per_potential_cache(maxsize: int):
    """LRU memo of ``fn(pot, *args)`` that lives and dies with ``pot``.

    Each potential gets its own LRU of at most maxsize entries, held in a
    weak-keyed table, so a potential's cached grids and tables are freed
    when the last outside reference to it goes. Cached values must not
    refer back to the potential, or it would never be freed.
    """

    def decorate(fn):
        memos = weakref.WeakKeyDictionary()

        @functools.wraps(fn)
        def wrapper(pot, *args):
            memo = memos.get(pot)
            if memo is None:
                memo = memos[pot] = OrderedDict()
            if args in memo:
                memo.move_to_end(args)
                return memo[args]
            value = fn(pot, *args)
            memo[args] = value
            if len(memo) > maxsize:
                memo.popitem(last=False)
            return value

        return wrapper

    return decorate


def _scalarize(r, out: np.ndarray):
    if np.ndim(r) == 0:
        return float(out)
    return out


def laplacian(pot: RadialPotential, r) -> np.ndarray:
    """Planar Laplacian density ΔQ(r) = (q″(r) + q′(r)/r)/4.

    At r = 0 the removable singularity is filled with the even-profile
    limit ddq(0)/2.
    """
    rr = np.asarray(r, dtype=float)
    lo, hi = pot.smooth_window
    if np.any(rr < lo - 1e-12) or np.any(rr > hi + 1e-12) or np.any(rr < 0.0):
        raise ValueError("radius outside the smooth window")
    rr = np.atleast_1d(rr)
    out = np.empty(rr.shape)
    pos = rr > 0.0
    if pos.any():
        rp = rr[pos]
        _, d1, d2 = pot.terms(rp, 2)
        out[pos] = (d2 + d1 / rp) / 4.0
    if (~pos).any():
        out[~pos] = pot.terms(np.zeros((~pos).sum()), 2)[2] / 2.0
    if np.ndim(r) == 0:
        return float(out[0])
    return out.reshape(np.shape(r))


def g_tau(pot: RadialPotential, tau: float, r) -> np.ndarray:
    """Obstacle-family function g_τ(r) = q(r) − 2τ ln r (r > 0)."""
    rr = np.asarray(r, dtype=float)
    if np.any(rr <= 0.0):
        raise ValueError("g_tau requires r > 0")
    return _scalarize(r, np.asarray(pot.q(rr)) - 2.0 * tau * np.log(rr))


def g_tau_curvature(pot: RadialPotential, tau: float, r) -> np.ndarray:
    """g_τ″(r) = q″(r) + 2τ/r²; positive at local minimizers."""
    rr = np.asarray(r, dtype=float)
    return _scalarize(r, np.asarray(pot.ddq(rr)) + 2.0 * tau / rr**2)


# ----------------------------------------------------------------- builders


def ginibre() -> RadialPotential:
    """The quadratic benchmark q(r) = r²: unit-disk droplet, ΔQ ≡ 1."""

    def _terms(r, order):
        derivs = (lambda: r * r, lambda: 2.0 * r, lambda: np.full(r.shape, 2.0))
        return tuple(d() for d in derivs[: order + 1])

    return RadialPotential(_terms, smooth_window=(0.0, 6.0), label="ginibre")


def _check_windows(
    t: Tuple[float, ...], w: Tuple[float, ...], lo: float, hi: float,
    margin: float, inside_msg: str, touch_msg: str,
) -> None:
    for tk, wk in zip(t, w):
        if wk <= 0.0:
            raise ValueError("window half-width must be positive")
        if not lo < tk < hi:
            raise ValueError(inside_msg)
        if tk - wk <= lo + margin or tk + wk >= hi - margin:
            raise ValueError(touch_msg)
    for (ta, wa), (tb, wb) in zip(list(zip(t, w))[:-1], list(zip(t, w))[1:]):
        if ta + wa >= tb - wb:
            raise ValueError(
                "window overlap: overlapping windows "
                f"[{ta - wa:g}, {ta + wa:g}] and [{tb - wb:g}, {tb + wb:g}]"
            )


def build_case1(
    t: Sequence[float],
    w: Sequence[float],
    margin: float = 0.02,
    r_max: float = 6.0,
    validate: bool = True,
) -> RadialPotential:
    """Potential with droplet [0,1] and outposts at the radii t inside (1,3).

    q(r) = r² off (1,3); on (1,3) the profile is lowered onto the obstacle
    Q̌(r) = 1 + 2 ln r through multiplicative windows:

        q(r) = r² − A(r) · Σ_k ζ((r − t_k)/w_k),   A(r) = r² − 1 − 2 ln r.

    Since 0 ≤ Σζ ≤ 1 with equality 1 exactly at the t_k, the obstacle
    inequality Q̌ ≤ q ≤ r² holds with coincidence precisely at the
    outposts, where r q′ = 2 and ΔQ(t_k) = A(t_k)/(2 w_k²) exactly.
    """
    pairs = sorted(zip(map(float, t), map(float, w)))
    if not pairs or len(t) != len(w):
        raise ValueError("need matching nonempty t and w sequences")
    ts = tuple(p[0] for p in pairs)
    ws = tuple(p[1] for p in pairs)
    _check_windows(
        ts, ws, 1.0, 3.0, margin,
        "outpost not in (1,3)", "window touches the boundary of (1,3)",
    )

    def _terms(r, order):
        s = _zeta_sum(r, ts, ws, order)
        out = [r * r]
        if order >= 1:
            out.append(2.0 * r)
        if order >= 2:
            out.append(np.full(r.shape, 2.0))
        act = s[0] > 0.0
        if act.any():
            ra = r[act]
            sa = [sk[act] for sk in s]
            a = ra * ra - 1.0 - 2.0 * np.log(ra)
            out[0][act] -= a * sa[0]
            if order >= 1:
                a1 = 2.0 * ra - 2.0 / ra
                out[1][act] -= a1 * sa[0] + a * sa[1]
            if order >= 2:
                a2 = 2.0 + 2.0 / ra**2
                out[2][act] -= a2 * sa[0] + 2.0 * a1 * sa[1] + a * sa[2]
        return tuple(out)

    pot = RadialPotential(
        _terms, smooth_window=(0.0, r_max), r_max=r_max,
        label="case1", params={"t": ts, "w": ws, "margin": margin},
    )
    if validate:
        _validate_case1(pot)
    return pot


def build_case2(
    components: Sequence[Sequence[float]],
    m0: float,
    t: Sequence[float] = (),
    w: Sequence[float] = (),
    margin: float = 0.02,
    r_max: float = 6.0,
    validate: bool = True,
) -> RadialPotential:
    """Two-component droplet with optional outposts inside the spectral gap.

    components = ([0, b0], [a1, b1]); m0 is the mass of the inner disk.
    The density is flat on each component (ΔQ = c0 inside, c1 outside, with
    c0 = m0/b0² and c1 = (1−m0)/(b1²−a1²) so the total mass is 1). Across
    the gap the profile sits on the obstacle Q̌(r) = m0 + 2 m0 ln(r/b0)
    plus a positive barrier pulled down to zero at the outposts:

        q = Q̌ + B(r) · (1 − Σ_k ζ((r−t_k)/w_k)),

    where B blends the continuations of the two component profiles with a
    bridging plateau, vanishes to second order at b0 and a1 (hence C²
    matching is automatic), and is strictly positive inside the gap. At
    each outpost q = Q̌, r q′ = 2 m0, and ΔQ(t_k) = B(t_k)/(2 w_k²).
    """
    comps = [tuple(map(float, c)) for c in components]
    if len(comps) != 2 or any(len(c) != 2 for c in comps):
        raise ValueError("need exactly two components [0, b0] and [a1, b1]")
    (a0, b0), (a1, b1) = comps
    if a0 != 0.0:
        raise ValueError("first component must start at radius 0")
    if not 0.0 < b0 < a1 < b1 < r_max:
        raise ValueError("components must be increasing, disjoint, below r_max")
    m0 = float(m0)
    if not 0.0 < m0 < 1.0:
        raise ValueError("infeasible mass target (need 0 < M0 < 1)")
    pairs = sorted(zip(map(float, t), map(float, w)))
    ts = tuple(p[0] for p in pairs)
    ws = tuple(p[1] for p in pairs)
    if len(ts) != len(w):
        raise ValueError("need matching t and w sequences")
    _check_windows(
        ts, ws, b0, a1, margin,
        "outpost not inside the gap", "window touches component",
    )

    c0 = m0 / b0**2
    c1 = (1.0 - m0) / (b1**2 - a1**2)
    gap = a1 - b0
    k_bridge = 0.5 * (c0 + c1) * gap**2
    q_a1 = m0 + 2.0 * m0 * math.log(a1 / b0)  # obstacle value at the far edge
    d_out = m0 - c1 * a1**2

    def _terms(r, order):
        out = tuple(np.empty(r.shape) for _ in range(order + 1))

        inner = r <= b0
        outer = r >= a1
        mid = ~(inner | outer)

        ri = r[inner]
        out[0][inner] = c0 * ri**2
        ro = r[outer]
        out[0][outer] = q_a1 + c1 * (ro**2 - a1**2) + 2.0 * d_out * np.log(ro / a1)
        if order >= 1:
            out[1][inner] = 2.0 * c0 * ri
            out[1][outer] = 2.0 * c1 * ro + 2.0 * d_out / ro
        if order >= 2:
            out[2][inner] = 2.0 * c0
            out[2][outer] = 2.0 * c1 - 2.0 * d_out / ro**2

        if mid.any():
            rg = r[mid]
            u = (rg - b0) / gap
            cu = 1.0 / gap  # du/dr
            c15 = cu / 0.15  # d/dr of the arguments of the 0.15-wide steps
            cf = cu / 0.10
            cg = -cu / 0.10

            # obstacle, inward continuation excess, outward continuation excess
            qc = m0 + 2.0 * m0 * np.log(rg / b0)
            p = c0 * rg**2 - qc
            ps = c1 * (rg**2 - a1**2) - 2.0 * c1 * a1**2 * np.log(rg / a1)

            sl = _smoothstep((u - 0.30) / 0.15, order)
            wr = _smoothstep((u - 0.55) / 0.15, order)
            f = _smoothstep((u - 0.15) / 0.10, order)
            g = _smoothstep((0.85 - u) / 0.10, order)
            s = _zeta_sum(rg, ts, ws, order)

            wl = 1.0 - sl[0]
            bar = wl * p + wr[0] * ps + k_bridge * (f[0] * g[0])
            wfun = 1.0 - s[0]
            out[0][mid] = qc + bar * wfun
            if order >= 1:
                qc1 = 2.0 * m0 / rg
                p1 = 2.0 * c0 * rg - qc1
                ps1 = 2.0 * c1 * rg - 2.0 * c1 * a1**2 / rg
                wl1 = -sl[1] * c15
                wr1 = wr[1] * c15
                bm1 = f[1] * cf * g[0] + f[0] * g[1] * cg
                bar1 = wl1 * p + wl * p1 + wr1 * ps + wr[0] * ps1 + k_bridge * bm1
                out[1][mid] = qc1 + bar1 * wfun - bar * s[1]
            if order >= 2:
                qc2 = -2.0 * m0 / rg**2
                p2 = 2.0 * c0 - qc2
                ps2 = 2.0 * c1 + 2.0 * c1 * a1**2 / rg**2
                wl2 = -sl[2] * c15**2
                wr2 = wr[2] * c15**2
                bm2 = f[2] * cf**2 * g[0] + 2.0 * f[1] * cf * g[1] * cg + f[0] * g[2] * cg**2
                bar2 = (
                    wl2 * p + 2.0 * wl1 * p1 + wl * p2
                    + wr2 * ps + 2.0 * wr1 * ps1 + wr[0] * ps2
                    + k_bridge * bm2
                )
                out[2][mid] = qc2 + bar2 * wfun - 2.0 * bar1 * s[1] - bar * s[2]
        return out

    pot = RadialPotential(
        _terms, smooth_window=(0.0, r_max), r_max=r_max,
        label="case2",
        params={
            "components": ((0.0, b0), (a1, b1)), "M0": m0,
            "t": ts, "w": ws, "margin": margin, "c0": c0, "c1": c1,
        },
    )
    if validate:
        _validate_case2(pot)
    return pot


# ------------------------------------------------------------- peak analysis


@dataclass(frozen=True)
class PeakPoint:
    r: float
    g_value: float
    curvature: float
    significant: bool


@dataclass(frozen=True)
class PeakAnalysis:
    tau: float
    peaks: Tuple[PeakPoint, ...]
    B_tau: float
    delta_n: float

    @property
    def significant_peaks(self) -> Tuple[PeakPoint, ...]:
        return tuple(p for p in self.peaks if p.significant)


@per_potential_cache(maxsize=32)
def _dense_eval(pot: RadialPotential, lo: float, hi: float, pts: int):
    r = np.linspace(lo, hi, pts)
    q, dq = pot.terms(r, 1)
    return r, q, dq


def find_peaks(
    pot: RadialPotential,
    tau: float,
    interval: Tuple[float, float],
    n: int,
    C: float,
    points_per_unit: int = 4096,
) -> PeakAnalysis:
    """Stationary minimizer candidates of g_τ on the interval.

    Roots of r q′(r) = 2τ are bracketed by sign changes on a dense grid and
    refined by Brent's method to 1e-13 absolute; only roots with positive
    g_τ″ are kept. B_τ is the minimum of g_τ over the kept peaks and the
    interval endpoints, and a peak is significant when its g_τ value is
    within δ_n = C log n / n of B_τ.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not 0.0 < lo < hi:
        raise ValueError("interval must satisfy 0 < lo < hi")
    if n < 2:
        raise ValueError("n must be >= 2")
    if C <= 0.0:
        raise ValueError("C must be positive")
    pts = max(64, int(points_per_unit * (hi - lo)) + 1)
    r, _, dqv = _dense_eval(pot, lo, hi, pts)
    f = r * dqv - 2.0 * tau
    # signs are read only at nodes where f is definitely nonzero; a stretch
    # of near-zero values means r q'(r) = 2τ identically there up to
    # roundoff (a degenerate plateau), and its noise must not be mistaken
    # for crossings
    atol = 1e-11 * max(1.0, float(np.max(np.abs(f))))
    idx = np.nonzero(np.abs(f) > atol)[0]
    neg = np.signbit(f[idx])
    change = np.nonzero(neg[:-1] != neg[1:])[0]
    starts = idx[change]
    ends = idx[change + 1]
    if change.size >= 2 and int(np.min(ends[1:] - starts[:-1])) <= 2:
        raise GridResolutionError(
            "grid too coarse: adjacent sign changes unresolved; "
            "increase points_per_unit"
        )
    roots = []
    for a, b in zip(r[starts], r[ends]):
        root = brentq(
            lambda x: float(x * pot.dq(x)) - 2.0 * tau,
            a, b, xtol=1e-13, rtol=8.9e-16,
        )
        roots.append(float(root))
    peaks = []
    for root in roots:
        curv = float(g_tau_curvature(pot, tau, root))
        if curv <= 0.0:
            continue
        peaks.append((root, float(g_tau(pot, tau, root)), curv))
    candidates = [p[1] for p in peaks]
    candidates.append(float(g_tau(pot, tau, lo)))
    candidates.append(float(g_tau(pot, tau, hi)))
    b_tau = min(candidates)
    delta_n = C * math.log(n) / n
    records = tuple(
        PeakPoint(rr, gg, cc, gg < b_tau + delta_n) for rr, gg, cc in peaks
    )
    return PeakAnalysis(float(tau), records, b_tau, delta_n)


# ------------------------------------------------------------ classification


@dataclass(frozen=True)
class DropletData:
    """Droplet structure: components [a_ν, b_ν], outpost radii, cumulative
    masses M_ν of {|z| ≤ b_ν}, and the case tag."""

    components: Tuple[Tuple[float, float], ...]
    outposts: Tuple[float, ...]
    masses: Tuple[float, ...]
    case_tag: str
    branch_values: Tuple[float, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "outposts": list(self.outposts),
            "masses": list(self.masses),
            "case_tag": self.case_tag,
            "branch_values": list(self.branch_values),
        }


def mass_between(pot: RadialPotential, lo: float, hi: float, panels: int = 64) -> float:
    """Planar σ-mass of the annulus lo ≤ r ≤ hi: 2 ∫ ΔQ(r) r dr."""
    if hi <= lo:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    vals = np.asarray(laplacian(pot, x)) * x
    return float(2.0 * (wts * vals).sum())


def _global_min_radius(grid_r, grid_q, tau: float) -> float:
    g = grid_q - 2.0 * tau * np.log(grid_r)
    return float(grid_r[int(np.argmin(g))])


def classify(pot: RadialPotential, n_probe: int = 801, tol: float = 1e-9) -> DropletData:
    """Droplet components, outposts, and cumulative masses by a τ sweep.

    The global minimizer of g_τ is tracked over a τ grid of n_probe points;
    jumps mark branching values, refined by bisection to 1e-12. Component
    edges solve r q′(r) = 2τ at the branching (or extreme) τ; outposts are
    the interior stationary points whose g value ties the branch minimum
    within ``tol``. The τ = 1 endpoint is always scanned beyond the last
    component for exterior outposts.
    """
    if n_probe < 16:
        raise ValueError("n_probe too small")
    lo = 1e-6
    hi = pot.r_max
    pts = int(4096 * (hi - lo)) + 1
    grid_r, grid_q, _ = _dense_eval(pot, lo, hi, pts)
    taus = np.linspace(0.0, 1.0, n_probe)

    # chunked argmin sweep of g_tau over the dense radius grid
    r_min = np.empty(n_probe)
    log_r = np.log(grid_r)
    chunk = max(1, int(1e6 // pts))
    for start in range(0, n_probe, chunk):
        block = taus[start : start + chunk]
        g = grid_q[None, :] - 2.0 * block[:, None] * log_r[None, :]
        r_min[start : start + chunk] = grid_r[np.argmin(g, axis=1)]

    # The final row (tau = 1) can tie with exterior outposts and is handled
    # by the endpoint scan instead; exclude it from branch detection.
    jump_threshold = 0.05
    diffs = np.abs(np.diff(r_min[:-1]))
    candidates = np.nonzero(diffs > jump_threshold)[0]

    # near tau = 0 the minimizer moves like sqrt(tau), which can outrun the
    # threshold without any branching; a genuine branch jump parks the
    # mid-tau minimizer at one end of the spanned interval, continuous
    # motion leaves it in the interior
    def _is_branch_jump(i: int) -> bool:
        r_a, r_b = sorted((float(r_min[i]), float(r_min[i + 1])))
        t_mid = 0.5 * (taus[i] + taus[i + 1])
        r_mid = _global_min_radius(grid_r, grid_q, t_mid)
        span = r_b - r_a
        return min(abs(r_mid - r_a), abs(r_mid - r_b)) <= 0.25 * span

    jump_idx = [int(i) for i in candidates if _is_branch_jump(int(i))]
    # a probe row landing exactly on a branching value can tie with an
    # outpost and register two consecutive jumps; group runs of adjacent
    # jump indices into one transition
    groups = []
    for i in jump_idx:
        if groups and i == groups[-1][-1] + 1:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    if any(len(g) > 2 for g in groups):
        raise ClassificationError(
            "branch tracking lost continuity (minimizer wandered across more "
            "than two adjacent probe steps); increase n_probe"
        )

    def edge_root(tau_star: float, near: float) -> float:
        # solve r q'(r) = 2 tau_star close to the estimate `near`
        width = max(0.02, 2.0 * jump_threshold)
        a = max(lo, near - width)
        b = min(hi, near + width)
        fn = lambda x: float(x * pot.dq(x)) - 2.0 * tau_star
        fa, fb = fn(a), fn(b)
        if fa * fb > 0.0:
            # widen until bracketed; the sweep guarantees a nearby root
            for _ in range(20):
                a = max(lo, a - width)
                b = min(hi, b + width)
                fa, fb = fn(a), fn(b)
                if fa * fb <= 0.0:
                    break
            else:
                raise ClassificationError("component edge root not bracketed")
        return float(brentq(fn, a, b, xtol=1e-13, rtol=8.9e-16))

    # refine each branching value: bisection on the basin predicate, then
    # Newton on the envelope equation g_tau(r1) = g_tau(r2) (whose tau
    # derivative is 2 log(r2/r1)), which removes the dense-grid bias. Edge
    # roots that coincide mean the minimizer moved continuously (q = r^4
    # moves it like tau^(1/4) from 0), so that jump is no branch.
    branch_taus = []
    gaps = []  # (r_low_branch_end, r_high_branch_start)
    for g in groups:
        i0, i1 = g[0], g[-1]
        t_lo, t_hi = taus[i0], taus[i1 + 1]
        r_before, r_after = r_min[i0], r_min[i1 + 1]
        cut = 0.5 * (r_before + r_after)
        for _ in range(40):
            t_mid = 0.5 * (t_lo + t_hi)
            if _global_min_radius(grid_r, grid_q, t_mid) < cut:
                t_lo = t_mid
            else:
                t_hi = t_mid
        t_cur = 0.5 * (t_lo + t_hi)
        r1, r2 = float(r_before), float(r_after)
        for _ in range(4):
            r1 = edge_root(t_cur, r1)
            r2 = edge_root(t_cur, r2)
            if abs(r2 - r1) <= 1e-9 * max(r1, r2):
                break
            h = float(g_tau(pot, t_cur, r1)) - float(g_tau(pot, t_cur, r2))
            t_cur -= h / (2.0 * math.log(r2 / r1))
        else:
            branch_taus.append(t_cur)
            gaps.append((r1, r2))

    # component boundaries: [0 or a_nu, b_nu]; the tau = 1 edge is seeded
    # from the second-to-last row since the last row may have tied away
    inner_start = 0.0 if float(r_min[0]) < 1e-3 else edge_root(0.0, float(r_min[0]))
    starts = [inner_start]
    ends = []
    for tau_star, (r_b, r_a) in zip(branch_taus, gaps):
        ends.append(edge_root(tau_star, r_b))
        starts.append(edge_root(tau_star, r_a))
    ends.append(edge_root(1.0, float(r_min[-2])))
    components = list(zip(starts, ends))

    # outposts inside each gap at its branching value
    outposts = []
    shrink = 1e-3
    for tau_star, (b_prev, a_next) in zip(
        branch_taus, [(e, s) for e, s in zip(ends[:-1], starts[1:])]
    ):
        span = a_next - b_prev
        pa = find_peaks(
            pot, tau_star,
            (b_prev + max(shrink, 0.01 * span), a_next - max(shrink, 0.01 * span)),
            n=100, C=10.0,
        )
        base = min(
            float(g_tau(pot, tau_star, b_prev)), float(g_tau(pot, tau_star, a_next))
        )
        for p in pa.peaks:
            if p.g_value <= base + tol:
                outposts.append(p.r)

    # exterior outposts: endpoint scan at tau = 1 beyond the last component
    b_last = ends[-1]
    exterior = []
    if b_last + 2 * shrink < hi:
        pa = find_peaks(pot, 1.0, (b_last + shrink, hi - shrink), n=100, C=10.0)
        base = float(g_tau(pot, 1.0, b_last))
        for p in pa.peaks:
            if p.g_value <= base + tol:
                exterior.append(p.r)
    outposts = sorted(outposts + exterior)

    # cumulative masses
    masses = []
    acc = 0.0
    for a, b in components:
        acc += mass_between(pot, a, b)
        masses.append(acc)
    if abs(masses[-1] - 1.0) > 1e-8:
        raise ClassificationError(
            f"component masses sum to {masses[-1]:.12f}, not 1 within 1e-8"
        )

    n_comp = len(components)
    if n_comp == 1 and not outposts:
        tag = "none"
    elif outposts and all(t > b_last for t in outposts):
        tag = "case1"
    elif n_comp == 2 and all(
        components[0][1] < t < components[1][0] for t in outposts
    ):
        tag = "case2"
    else:
        tag = "other"

    return DropletData(
        components=tuple((float(a), float(b)) for a, b in components),
        outposts=tuple(float(t) for t in outposts),
        masses=tuple(float(m) for m in masses),
        case_tag=tag,
        branch_values=tuple(float(t) for t in branch_taus),
    )


@per_potential_cache(maxsize=16)
def droplet_data(pot: RadialPotential) -> DropletData:
    """Memoized default classification for engine consumers."""
    return classify(pot)


# ------------------------------------------------------------------ checking


# 9-point central second difference: weight of f(r) and of f(r ± k h),
# at step h = _D2_STEP; the 5-point first difference uses step _D1_STEP
_D2_STENCIL = (-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0)
_D1_STEP = 5e-5
_D2_STEP = 1e-4


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


def derivative_consistency(
    pot: RadialPotential, n_probe: int = 2000
) -> Tuple[float, float]:
    """Worst relative mismatch of the analytic q′ and q″, read from one
    order-2 ``terms`` call, against finite differences of q alone: a 5-point
    central first difference (step _D1_STEP = 5e-5) and a 9-point central
    second difference (step _D2_STEP = 1e-4). The wider, higher-order
    stencil keeps the second difference accurate near the narrow edges of
    the builders' windows."""
    h = _D1_STEP
    h2 = _D2_STEP
    reach = max(2 * h, 4 * h2)
    lo, hi = pot.smooth_window
    lo = max(lo, 1e-3) + 2 * reach
    hi = hi - 2 * reach
    r = np.linspace(lo, hi, n_probe)
    fm2 = np.asarray(pot.q(r - 2 * h))
    fm1 = np.asarray(pot.q(r - h))
    fp1 = np.asarray(pot.q(r + h))
    fp2 = np.asarray(pot.q(r + 2 * h))
    d1_fd = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    d2_fd = _D2_STENCIL[0] * np.asarray(pot.q(r))
    for k, c in enumerate(_D2_STENCIL[1:], start=1):
        d2_fd = d2_fd + c * (np.asarray(pot.q(r - k * h2)) + np.asarray(pot.q(r + k * h2)))
    d2_fd = d2_fd / (h2 * h2)
    _, d1, d2 = pot.terms(r, 2)
    err1 = np.max(np.abs(d1 - d1_fd) / np.maximum(1.0, np.abs(d1)))
    err2 = np.max(np.abs(d2 - d2_fd) / np.maximum(1.0, np.abs(d2)))
    return float(err1), float(err2)


def _growth_margin(pot: RadialPotential) -> float:
    r = np.linspace(pot.r_max, 2.0 * pot.r_max, 64)
    return float(np.min(r * np.asarray(pot.dq(r)))) - 2.0


def _validate_case1(pot: RadialPotential) -> None:
    ts = pot.params["t"]
    ws = pot.params["w"]
    grid = np.linspace(1.0 + 1e-6, 3.0 - 1e-6, 20001)
    qv = np.asarray(pot.q(grid))
    lower = 1.0 + 2.0 * np.log(grid)
    upper = grid**2
    if np.any(qv < lower - 1e-12) or np.any(qv > upper + 1e-12):
        raise BuildValidationError("obstacle_inequality")
    # the obstacle touches at r = 1 (droplet edge) and at the t_k; the gap
    # vanishes quadratically there, so isolation is checked outside 1e-3
    near_touch = qv - lower < 1e-10
    for r in grid[near_touch]:
        if min(abs(r - tk) for tk in ts) > 1e-3 and r - 1.0 > 1e-3:
            raise BuildValidationError(
                "coincidence_isolation", f"profile touches obstacle at r={r}"
            )
    for tk, wk in zip(ts, ws):
        if abs(float(pot.q(tk)) - (1.0 + 2.0 * math.log(tk))) > 1e-12:
            raise BuildValidationError("coincidence_touch", f"t={tk}")
        if abs(tk * float(pot.dq(tk)) - 2.0) > 1e-10:
            raise BuildValidationError("coincidence_stationarity", f"t={tk}")
        want = (tk**2 - 1.0 - 2.0 * math.log(tk)) / (2.0 * wk**2)
        got = float(laplacian(pot, tk))
        if abs(got - want) > 1e-10 * max(1.0, abs(want)) or got <= 0.0:
            raise BuildValidationError("laplacian_at_outpost", f"t={tk}")
    e1, e2 = derivative_consistency(pot, n_probe=600)
    if max(e1, e2) > 1e-5:
        raise BuildValidationError("derivative_consistency", f"err={max(e1, e2):.2e}")
    if _growth_margin(pot) <= 0.0:
        raise BuildValidationError("growth")


def _validate_case2(pot: RadialPotential) -> None:
    p = pot.params
    (a0, b0), (a1, b1) = p["components"]
    m0 = p["M0"]
    ts, ws = p["t"], p["w"]
    grid = np.linspace(b0 + 1e-9, a1 - 1e-9, 20001)
    qv = np.asarray(pot.q(grid))
    lower = m0 + 2.0 * m0 * np.log(grid / b0)
    if np.any(qv < lower - 1e-12):
        raise BuildValidationError("obstacle_inequality")
    # structural touches at both gap edges and the t_k vanish quadratically
    near_touch = qv - lower < 1e-10
    for r in grid[near_touch]:
        far_from_touch = (
            min((abs(r - tk) for tk in ts), default=math.inf) > 1e-3
            and r - b0 > 1e-3 and a1 - r > 1e-3
        )
        if far_from_touch:
            raise BuildValidationError(
                "coincidence_isolation", f"profile touches obstacle at r={r}"
            )
    for tk, wk in zip(ts, ws):
        want_q = m0 + 2.0 * m0 * math.log(tk / b0)
        if abs(float(pot.q(tk)) - want_q) > 1e-12:
            raise BuildValidationError("coincidence_touch", f"t={tk}")
        if abs(tk * float(pot.dq(tk)) - 2.0 * m0) > 1e-10:
            raise BuildValidationError("coincidence_stationarity", f"t={tk}")
        if float(laplacian(pot, tk)) <= 0.0:
            raise BuildValidationError("laplacian_at_outpost", f"t={tk}")
    for edge, slope in ((b0, 2.0 * m0 / b0), (a1, 2.0 * m0 / a1)):
        if abs(float(pot.dq(edge)) - slope) > 1e-10:
            raise BuildValidationError("edge_slope", f"r={edge}")
    e1, e2 = derivative_consistency(pot, n_probe=600)
    if max(e1, e2) > 1e-5:
        raise BuildValidationError("derivative_consistency", f"err={max(e1, e2):.2e}")
    if _growth_margin(pot) <= 0.0:
        raise BuildValidationError("growth")


def validation_report(pot: RadialPotential, with_classification: bool = True):
    """Full check suite as a list of ValidationCheck records.

    Includes the builder checks (when the label identifies a built case),
    derivative consistency, growth, and the classification round-trip.
    """
    checks = []

    e1, e2 = derivative_consistency(pot)
    checks.append(
        ValidationCheck(
            "derivative_consistency", max(e1, e2) <= 1e-5,
            f"max rel err dq={e1:.2e}, ddq={e2:.2e}",
        )
    )
    gm = _growth_margin(pot)
    checks.append(ValidationCheck("growth", gm > 0.0, f"min r q' - 2 = {gm:.3f}"))

    if pot.label == "case1":
        try:
            _validate_case1(pot)
            checks.append(ValidationCheck("case1_builder_suite", True, "all pinned identities hold"))
        except BuildValidationError as exc:
            checks.append(ValidationCheck(exc.check_name, False, exc.detail))
    elif pot.label == "case2":
        try:
            _validate_case2(pot)
            checks.append(ValidationCheck("case2_builder_suite", True, "all pinned identities hold"))
        except BuildValidationError as exc:
            checks.append(ValidationCheck(exc.check_name, False, exc.detail))

    data: Optional[DropletData] = None
    if with_classification:
        try:
            data = classify(pot)
            ok = abs(data.masses[-1] - 1.0) <= 1e-8
            checks.append(
                ValidationCheck("total_mass", ok, f"M_last = {data.masses[-1]:.10f}")
            )
            if pot.label == "case1":
                ts = pot.params["t"]
                ok = len(data.outposts) == len(ts) and all(
                    abs(a - b) <= 1e-6 for a, b in zip(data.outposts, ts)
                )
                ok = ok and data.case_tag == "case1"
                checks.append(
                    ValidationCheck(
                        "classification_roundtrip", ok,
                        f"tag={data.case_tag}, outposts={data.outposts}",
                    )
                )
            elif pot.label == "case2":
                p = pot.params
                (a0, b0), (a1, b1) = p["components"]
                ts = p["t"]
                ok = (
                    data.case_tag == "case2"
                    and len(data.components) == 2
                    and abs(data.components[0][1] - b0) <= 1e-6
                    and abs(data.components[1][0] - a1) <= 1e-6
                    and abs(data.components[1][1] - b1) <= 1e-6
                    and abs(data.masses[0] - p["M0"]) <= 1e-8
                    and len(data.outposts) == len(ts)
                    and all(abs(a - b) <= 1e-6 for a, b in zip(data.outposts, ts))
                )
                checks.append(
                    ValidationCheck(
                        "classification_roundtrip", ok,
                        f"tag={data.case_tag}, M0={data.masses[0]:.10f}",
                    )
                )
        except ClassificationError as exc:
            checks.append(ValidationCheck("classification", False, str(exc)))
    return checks, data
