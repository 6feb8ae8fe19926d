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
- ``tilt_roots`` solves r q′(r) = 2τ, the stationarity of g_τ, in given
  brackets by safeguarded Newton; it is the kernel ``classify`` refines
  the droplet's special radii with.
- ``classify`` reads the droplet off the convex minorant of q(e^t): its
  contact set gives the components and outposts, its chords the gaps and
  their branching values, and b q′(b)/2 the cumulative mass at each outer
  edge b; it reports these with a case tag.
- ``build_case1`` / ``build_case2`` construct validated example potentials
  with outposts outside the droplet (case 1) or inside a spectral gap
  (case 2). Both make an outpost the same way: a profile q0 without
  outposts is lowered onto the obstacle Q̌ = q0(e) + 2M ln(r/e) of the
  piece of the droplet's complement that holds the outposts (e its inner
  edge, M the mass inside e) by one transform through windows ζ about
  the outposts t_k,

      q = q0 − (q0 − Q̌) · Σ_k ζ((r − t_k)/w_k),

  so the touch data have closed forms the validators pin exactly:
  q(t_k) = Q̌(t_k), t_k q′(t_k) = 2M and ΔQ(t_k) = (q0 − Q̌)(t_k)/(2 w_k²).
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RadialPotential",
    "DropletData",
    "BumpSpec",
    "Shoulder",
    "BuildValidationError",
    "RootFindingError",
    "ClassificationError",
    "ValidationCheck",
    "laplacian",
    "g_tau",
    "bump",
    "shoulder",
    "ginibre",
    "build_case1",
    "build_case2",
    "tilt_roots",
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


class RootFindingError(RuntimeError):
    """A tilt-root bracket stayed open through every Newton-bisection pass."""


class ClassificationError(RuntimeError):
    """The droplet read off the convex minorant failed a consistency check."""


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
    return _scalarize(r, up * down)


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
    return _scalarize(r, 1.0 - up if spec.keep_below else up)


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

        pot = RadialPotential(terms)

    The methods q, dq and ddq accept scalars (returning floats) or arrays
    of any shape and evaluate at orders 0, 1 and 2. q is C² on [0, r_max],
    r_max being the declared range bound with confining growth beyond it.
    Hashes by identity so evaluations can be memoized per instance (see
    ``per_potential_cache``).
    """

    terms: Callable
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
    if np.any(rr < 0.0) or np.any(rr > pot.r_max + 1e-12):
        raise ValueError("radius outside [0, r_max]")
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



# ----------------------------------------------------------------- builders


def _jet(order: int, *derivs: Callable) -> Tuple[np.ndarray, ...]:
    """(f, f′, …, f^(order)) from thunks of f and its derivatives, calling
    only those asked for."""
    return tuple([d() for d in derivs[: order + 1]])


def _leibniz(f: Sequence, g: Sequence) -> Tuple[np.ndarray, ...]:
    """The jet of f·g from the jets of f and g, through the order of f."""
    out = (f[0] * g[0],)
    if len(f) > 1:
        out += (f[1] * g[0] + f[0] * g[1],)
    if len(f) > 2:
        out += (f[2] * g[0] + 2.0 * f[1] * g[1] + f[0] * g[2],)
    return out


def _lower_onto_obstacle(q0, r, ts, ws, excess: Callable) -> Tuple[np.ndarray, ...]:
    """The outpost transform q = q0 − E · Σ_k ζ((r − t_k)/w_k), where E = q0 − Q̌
    is the profile's excess over its obstacle. q0 is the profile's jet at r,
    lowered in place and returned; excess(act) gives E's jet, to the same
    order, at r[act], the window points (Σζ > 0)."""
    s = _zeta_sum(r, ts, ws, len(q0) - 1)
    act = s[0] > 0.0
    if act.any():
        for qk, lowered in zip(q0, _leibniz(excess(act), [sk[act] for sk in s])):
            qk[act] -= lowered
    return q0


def _ginibre_terms(r, order):
    return _jet(order, lambda: r * r, lambda: 2.0 * r, lambda: np.full(r.shape, 2.0))


def ginibre() -> RadialPotential:
    """The quadratic benchmark q(r) = r²: unit-disk droplet, ΔQ ≡ 1."""
    return RadialPotential(_ginibre_terms, label="ginibre")


def _parse_windows(t, w, lo: float, hi: float, margin: float, inside_msg: str, touch_msg: str):
    """(ts, ws): the outpost radii t and window half-widths w as floats,
    sorted by radius. Raises ValueError unless t and w pair up, every
    centre lies in (lo, hi) and its window in (lo + margin, hi − margin),
    and no two windows overlap."""
    if len(t) != len(w):
        raise ValueError("need matching t and w sequences")
    pairs = sorted(zip(map(float, t), map(float, w)))
    for tk, wk in pairs:
        if wk <= 0.0:
            raise ValueError("window half-width must be positive")
        if not lo < tk < hi:
            raise ValueError(inside_msg)
        if tk - wk <= lo + margin or tk + wk >= hi - margin:
            raise ValueError(touch_msg)
    for (ta, wa), (tb, wb) in zip(pairs[:-1], pairs[1:]):
        if ta + wa >= tb - wb:
            raise ValueError(
                "window overlap: overlapping windows "
                f"[{ta - wa:g}, {ta + wa:g}] and [{tb - wb:g}, {tb + wb:g}]"
            )
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def build_case1(
    t: Sequence[float],
    w: Sequence[float],
    margin: float = 0.02,
    r_max: float = 6.0,
) -> RadialPotential:
    """Potential with droplet [0,1] and outposts at the radii t inside (1,3).

    The outpost transform q = q0 − (q0 − Q̌) · Σ_k ζ((r − t_k)/w_k) lowers
    the Ginibre profile q0 = r² onto the obstacle Q̌ = 1 + 2 ln r of (1,3)
    (e = 1, M = 1), with q0 − Q̌ = r² − 1 − 2 ln r. So Q̌ ≤ q ≤ r², with
    coincidence exactly at the outposts, where r q′ = 2 and
    ΔQ(t_k) = (q0 − Q̌)(t_k)/(2 w_k²).
    """
    ts, ws = _parse_windows(
        t, w, 1.0, 3.0, margin, "outpost not in (1,3)", "window touches the boundary of (1,3)",
    )
    if not ts:
        raise ValueError("need nonempty t and w sequences")

    def _terms(r, order):
        def excess(act):
            ra = r[act]
            return _jet(order, lambda: ra * ra - 1.0 - 2.0 * np.log(ra),
                        lambda: 2.0 * ra - 2.0 / ra, lambda: 2.0 + 2.0 / ra**2)

        return _lower_onto_obstacle(_ginibre_terms(r, order), r, ts, ws, excess)

    pot = RadialPotential(
        _terms, r_max=r_max, label="case1", params={"t": ts, "w": ws, "margin": margin},
    )
    _validate(pot)
    return pot


# build_case2's smoothsteps across the gap, each rising from 0 to 1 as
# u = (r − b0)/(a1 − b0) runs from u0 to u0 + du: the inner profile's
# roll-off, the outer profile's roll-on, the bridge plateau's rise and fall
_CASE2_BANDS = ((0.30, 0.15), (0.55, 0.15), (0.15, 0.10), (0.85, -0.10))


def _band_step(u, cu, band, order):
    """The jet in r of the smoothstep across band (u0, du) of u, du/dr = cu."""
    u0, du = band
    step = _smoothstep((u - u0) / du, order)
    return step[:1] + tuple(v * (cu / du) ** k for k, v in enumerate(step[1:], 1))


def build_case2(
    components: Sequence[Sequence[float]],
    m0: float,
    t: Sequence[float] = (),
    w: Sequence[float] = (),
    margin: float = 0.02,
    r_max: float = 6.0,
) -> RadialPotential:
    """Two-component droplet with optional outposts inside the spectral gap.

    components = ([0, b0], [a1, b1]); m0 is the mass of the inner disk.
    The density is flat on each component (ΔQ = c0 inside, c1 outside, with
    c0 = m0/b0² and c1 = (1−m0)/(b1²−a1²) so the total mass is 1). Across
    the gap the profile q0 without outposts is the obstacle
    Q̌(r) = m0 + 2 m0 ln(r/b0) (e = b0, M = m0) plus a barrier B = q0 − Q̌.
    B blends the continuations of the two component profiles with a
    bridging plateau (``_CASE2_BANDS``), vanishes to second order at b0 and
    a1 (hence C² matching is automatic), and is positive inside the gap.
    The outpost transform q = q0 − (q0 − Q̌) · Σ_k ζ((r − t_k)/w_k) lowers q0
    onto Q̌ at the outposts, so q(t_k) = Q̌(t_k), t_k q′(t_k) = 2 m0 and
    ΔQ(t_k) = B(t_k)/(2 w_k²).
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
    ts, ws = _parse_windows(
        t, w, b0, a1, margin, "outpost not inside the gap", "window touches component",
    )

    c0 = m0 / b0**2
    c1 = (1.0 - m0) / (b1**2 - a1**2)
    gap = a1 - b0
    cu = 1.0 / gap  # du/dr
    k_bridge = 0.5 * (c0 + c1) * gap**2
    q_a1 = m0 + 2.0 * m0 * math.log(a1 / b0)  # obstacle value at the far edge
    d_out = m0 - c1 * a1**2

    def _disk(x, order):
        """The inner component's profile c0 r² and its continuation."""
        return _jet(order, lambda: c0 * x**2, lambda: 2.0 * c0 * x, lambda: 2.0 * c0)

    def _outside(x, order):
        """The outer component's profile and its continuation past b1."""
        return _jet(order, lambda: q_a1 + c1 * (x**2 - a1**2) + 2.0 * d_out * np.log(x / a1),
                    lambda: 2.0 * c1 * x + 2.0 * d_out / x, lambda: 2.0 * c1 - 2.0 * d_out / x**2)

    def _barrier(x, order):
        """The jets of the obstacle Q̌ and of the barrier B on the gap."""
        u = (x - b0) / gap
        sl, wr, f, g = (_band_step(u, cu, band, order) for band in _CASE2_BANDS)
        wl = (1.0 - sl[0],) + tuple(-v for v in sl[1:])
        # the obstacle, and the inward and outward continuations' excess over it
        qc = _jet(order, lambda: m0 + 2.0 * m0 * np.log(x / b0), lambda: 2.0 * m0 / x,
                  lambda: -2.0 * m0 / x**2)
        p = [a - b for a, b in zip(_disk(x, order), qc)]
        ps = _jet(order, lambda: c1 * (x**2 - a1**2) - 2.0 * c1 * a1**2 * np.log(x / a1),
                  lambda: 2.0 * c1 * x - 2.0 * c1 * a1**2 / x,
                  lambda: 2.0 * c1 + 2.0 * c1 * a1**2 / x**2)
        bar = [y + z for y, z in zip(_leibniz(wl, p), _leibniz(wr, ps))]
        for b, z in zip(bar, _leibniz(f, g)):
            b += k_bridge * z
        return qc, bar

    def _gap(x, order):
        """q on the gap: q0 = Q̌ + B, lowered at the windows."""
        q0, bar = _barrier(x, order)
        for a, b in zip(q0, bar):
            a += b
        return _lower_onto_obstacle(q0, x, ts, ws, lambda act: [b[act] for b in bar])

    def _terms(r, order):
        out = tuple(np.empty(r.shape) for _ in range(order + 1))
        inner = r <= b0
        outer = r >= a1
        # each piece's jet is placed, and freed, before the next is formed
        for where, piece in ((inner, _disk), (outer, _outside), (~(inner | outer), _gap)):
            if where.any():
                for qk, v in zip(out, piece(r[where], order)):
                    qk[where] = v
        return out

    pot = RadialPotential(
        _terms, r_max=r_max, label="case2",
        params={
            "components": ((0.0, b0), (a1, b1)), "M0": m0,
            "t": ts, "w": ws, "margin": margin, "c0": c0, "c1": c1,
        },
    )
    _validate(pot)
    return pot


# ---------------------------------------------------------------- tilt roots


# a tilt root is returned once its Newton step or its bracket is at most
# _ROOT_XTOL; bisection alone closes a bracket of width 6 to it in 46 passes
_ROOT_XTOL = 1e-13
_ROOT_PASSES = 100


def tilt_roots(pot: RadialPotential, tau, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Roots of f(r) = r q′(r) − 2τ, one in each bracket [lo_i, hi_i] with
    its own τ_i; f_lo and f_hi are f at the bracket ends, of opposite signs
    (or zero, making that end the root).

    Safeguarded Newton on the brackets still open, starting from each
    bracket's false-position point. A pass reads q′ and q″ from one order-2
    ``terms`` call, takes f′ = q′ + r q″, and moves the bracket end whose
    sign f shares to the iterate; a Newton step that is not finite or
    leaves the bracket becomes bisection. A root is returned once its
    Newton step or its bracket is at most 1e-13. Raises RootFindingError
    when a bracket is still open after _ROOT_PASSES passes.
    """
    tau = np.asarray(tau, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = np.array(f_lo, dtype=float)
    f_hi = np.asarray(f_hi, dtype=float)
    root = np.where(f_lo == 0.0, lo, hi)
    act = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0))
    if np.any(np.signbit(f_lo[act]) == np.signbit(f_hi[act])):
        raise ValueError("every bracket must hold a sign change of r q'(r) - 2 tau")
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    for _ in range(_ROOT_PASSES):
        if act.size == 0:
            return root
        xa = x[act]
        _, d1, d2 = pot.terms(xa, 2)
        f = xa * d1 - 2.0 * tau[act]
        left = np.signbit(f) == np.signbit(f_lo[act])
        a = np.where(left, xa, lo[act])
        b = np.where(left, hi[act], xa)
        lo[act], hi[act] = a, b
        f_lo[act] = np.where(left, f, f_lo[act])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / (d1 + xa * d2)
        nxt = xa - step
        # a step below the tolerance is final even when it rounds onto the
        # bracket end the iterate just became
        small = np.abs(step) <= _ROOT_XTOL
        bisect = ~(small | ((nxt > a) & (nxt < b)))
        nxt[bisect] = 0.5 * (a[bisect] + b[bisect])
        done = small | (b - a <= _ROOT_XTOL)
        root[act[done]] = nxt[done]
        x[act] = nxt
        act = act[~done]
    if act.size == 0:
        return root
    raise RootFindingError(
        f"{act.size} tilt-root brackets still {float(np.max(hi[act] - lo[act])):.3e} "
        f"wide after {_ROOT_PASSES} passes, above the {_ROOT_XTOL:.0e} tolerance"
    )


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

    def index_split(self, n: int) -> Tuple[int, float]:
        """(m0, x_n): the case-2 index split m0 = floor(M0 n) and the phase
        x_n = M0 n − m0, with M0 the inner component's mass.

        The floor is nudged forward by 1e-9: at exact-integer M0 n the
        classified mass can sit a few ulp low, and m0 must not drop by one
        nor x_n read 1 − O(ulp) instead of 0.
        """
        mass_n = float(self.masses[0]) * n
        m0 = math.floor(mass_n + 1e-9)
        return int(m0), max(0.0, mass_n - m0)


_GL32 = np.polynomial.legendre.leggauss(32)
_MASS_PANELS = 64


def _gl_panels(lo: np.ndarray, hi: np.ndarray, rule) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (panels × rule nodes) of ``rule`` on panels [lo, hi], and the
    panels' half-widths: the weights are half[:, None] * rule[1]."""
    nodes = rule[0]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * nodes, half


def mass_between(pot: RadialPotential, lo: float, hi: float) -> float:
    """Planar σ-mass of the annulus lo ≤ r ≤ hi: 2 ∫ ΔQ(r) r dr, by 32-point
    Gauss-Legendre on 64 equal panels."""
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, _MASS_PANELS + 1)
    x, half = _gl_panels(edges[:-1], edges[1:], _GL32)
    x, w = x.ravel(), (half[:, None] * _GL32[1]).ravel()
    return float(2.0 * (w * (np.asarray(laplacian(pot, x)) * x)).sum())


# grid q within _TIE_TOL of the minorant is contact, and a stationary point
# whose g_τ is within _TIE_TOL of its edge value ties it (is an outpost)
_TIE_TOL = 1e-9
# A contact run is a component when the minorant's slope in t = ln r rises
# across it by more than this. On a component the slope is r q′ = 2τ, so the
# rise is twice the component's mass. A touch carries no mass: its grid
# point kinks the hull only by how far it and the chord's grid ends miss the
# true chord (a few 1e-9), over the distance to the next hull vertex. On the
# builders touches rise by about 2e-8 and components by 1.0 or more.
_COMPONENT_RISE = 1e-4


def _lower_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull's vertices of the points (x_i, y_i),
    x increasing: Andrew's monotone chain, dropping collinear points."""
    hx, hy, idx = [], [], []
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        # the last vertex stays only strictly below the segment from the one
        # before it to (xi, yi)
        while len(idx) >= 2 and (
            (hx[-1] - hx[-2]) * (yi - hy[-2]) <= (hy[-1] - hy[-2]) * (xi - hx[-2])
        ):
            hx.pop()
            hy.pop()
            idx.pop()
        hx.append(xi)
        hy.append(yi)
        idx.append(i)
    return np.array(idx)


def _r_dq(pot: RadialPotential, r: np.ndarray) -> np.ndarray:
    return r * pot.terms(r, 1)[1]


def classify(pot: RadialPotential) -> DropletData:
    """Droplet components, outposts and cumulative masses, read off the
    convex minorant of f(t) = q(e^t).

    On a dense grid of [1e-6, r_max], read at order 0, the minorant is the
    lower hull of (ln r, q) with its slope capped to [0, 2]: flat left of
    argmin q, and the slope-2 ray right of argmin (q − 2 ln r). Its slope at
    r is 2τ, with τ the tilt of g_τ(r) = q(r) − 2τ ln r. The coincidence set
    is where q is within 1e-9 of the minorant:

    - a contact run across which the slope rises is a component; its edges
      solve r q′(r) = 2τ (``tilt_roots``), and the cumulative mass at an
      outer edge b is b q′(b)/2, checked against ``mass_between``;
    - between two components the minorant is a chord, the gap. Its tilt τ*
      starts at the chord's slope / 2 and is refined by Newton on the
      envelope equation g_τ(r₁) = g_τ(r₂) at the gap's edges;
    - the outposts are the other contacts. Each grid local minimum of
      q − minorant in a gap or past the droplet is refined to its stationary
      point at the piece's tilt (τ* in a gap, 1 past the droplet), and kept
      when g_τ there ties the value at the piece's inner edge within 1e-9.
    """
    lo, hi = 1e-6, pot.r_max
    r = np.linspace(lo, hi, int(4096 * (hi - lo)) + 1)
    (f,) = pot.terms(r, 0)
    t = np.log(r)
    i0 = int(np.argmin(f))
    i1 = int(np.argmin(f - 2.0 * t))
    vert = i0 + _lower_hull(t[i0 : i1 + 1], f[i0 : i1 + 1])
    # np.interp holds f[i0] left of the hull: the slope-0 piece
    minorant = np.interp(t, t[vert], f[vert])
    minorant[i1:] = f[i1] + 2.0 * (t[i1:] - t[i1])
    above = f - minorant

    contact = np.r_[False, above <= _TIE_TOL, False]
    first = np.flatnonzero(contact[1:] & ~contact[:-1])
    last = np.flatnonzero(contact[:-1] & ~contact[1:]) - 1
    slope = np.r_[0.0, np.diff(minorant) / np.diff(t), 2.0]
    comp = slope[last + 1] - slope[first] > _COMPONENT_RISE
    a, b = first[comp], last[comp]
    if b[-1] == r.size - 1:
        raise ClassificationError(f"the droplet reaches r_max = {hi:g}")

    # f' runs from below the slope of the piece before a component to above
    # the slope after it, so a component's outer edge lies in
    # [r[a], r[b + 1]] and its inner edge in [r[a - 1], r[b]]
    br_lo = np.r_[r[a], r[a[1:] - 1]]
    br_hi = np.r_[r[b + 1], r[b[1:]]]
    s_lo, s_hi = np.split(_r_dq(pot, np.r_[br_lo, br_hi]), 2)

    def edge_roots(tau_gap):
        taus = np.r_[tau_gap, 1.0, tau_gap]
        roots = tilt_roots(pot, taus, br_lo, br_hi, s_lo - 2.0 * taus, s_hi - 2.0 * taus)
        return roots[: a.size], roots[a.size :]

    # Newton on g_tau(r1) = g_tau(r2), whose tau derivative is 2 ln(r2/r1);
    # the chord's slope is within about 1e-8 of tau*, so the second pass
    # is at rounding
    tau_gap = 0.5 * (f[a[1:]] - f[b[:-1]]) / (t[a[1:]] - t[b[:-1]])
    outer, inner = edge_roots(tau_gap)
    for _ in range(4 if tau_gap.size else 0):
        r1 = outer[:-1]
        q1, q2 = np.split(pot.terms(np.r_[r1, inner], 0)[0], 2)
        gap = q1 - q2 - 2.0 * tau_gap * np.log(r1 / inner)
        tau_gap = tau_gap - gap / (2.0 * np.log(inner / r1))
        outer, inner = edge_roots(tau_gap)
    a0 = 0.0
    if r[a[0]] >= 1e-3:
        # a ring: its inner edge is the minimum of q, at tau = 0
        ends = r[[a[0] - 1, b[0]]]
        s0 = _r_dq(pot, ends)
        a0 = float(tilt_roots(pot, [0.0], ends[:1], ends[1:], s0[:1], s0[1:])[0])
    components = list(zip(np.r_[a0, inner].tolist(), outer.tolist()))

    q_out, dq_out = pot.terms(outer, 1)
    masses = 0.5 * outer * dq_out
    check = np.cumsum([mass_between(pot, ca, cb) for ca, cb in components])
    miss = np.abs(check - masses)
    if np.any(miss > 1e-8):
        k = int(np.argmax(miss))
        raise ClassificationError(
            f"mass below r = {outer[k]:.12g}: b q'(b)/2 = {masses[k]:.12f} but "
            f"mass_between gives {check[k]:.12f}, more than 1e-8 apart"
        )

    i = 1 + np.flatnonzero((above[1:-1] < above[:-2]) & (above[1:-1] <= above[2:]))
    piece = np.searchsorted(a, i, side="right") - 1
    off = (piece >= 0) & (i > b[piece])
    i, piece = i[off], piece[off]
    tau_out = np.r_[tau_gap, 1.0]
    tau = tau_out[piece]
    s_lo, s_hi = np.split(_r_dq(pot, np.r_[r[i - 1], r[i + 1]]) - 2.0 * np.r_[tau, tau], 2)
    # a minimum with no sign change in its bracket is no stationary point,
    # such as a point of the case-2 bridge plateau, 0.13 above the chord
    kept = (s_lo <= 0.0) & (s_hi >= 0.0)
    tau, piece = tau[kept], piece[kept]
    roots = tilt_roots(pot, tau, r[i - 1][kept], r[i + 1][kept], s_lo[kept], s_hi[kept])
    g_root = pot.terms(roots, 0)[0] - 2.0 * tau * np.log(roots)
    g_edge = q_out[piece] - 2.0 * tau * np.log(outer[piece])
    outposts = sorted(roots[g_root <= g_edge + _TIE_TOL].tolist())

    b_last = components[-1][1]
    n_comp = len(components)
    if n_comp == 1 and not outposts:
        tag = "none"
    elif outposts and all(o > b_last for o in outposts):
        tag = "case1"
    elif n_comp == 2 and all(
        components[0][1] < o < components[1][0] for o in outposts
    ):
        tag = "case2"
    else:
        tag = "other"

    return DropletData(
        components=tuple(components),
        outposts=tuple(outposts),
        masses=tuple(masses.tolist()),
        case_tag=tag,
        branch_values=tuple(tau_gap.tolist()),
    )


@per_potential_cache(maxsize=16)
def droplet_data(pot: RadialPotential) -> DropletData:
    """Memoized default classification for engine consumers."""
    return classify(pot)


# ------------------------------------------------------------------ checking


# the derivative check's panels are at most 1/_CHECK_PANELS of [0, r_max]
# wide, and each builder piece gets at least _PIECE_PANELS of them: the
# window and smoothstep profiles vary over the whole piece, flat to all
# orders at its edges, whatever its width
_CHECK_PANELS = 256
_PIECE_PANELS = 8


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


def _piece_edges(pot: RadialPotential) -> np.ndarray:
    """Radii where a built potential's pieces meet: the window edges
    t_k ± w_k and, for case 2, the gap edges b0, a1 and the edges of the
    four smoothstep bands across the gap. Empty for other potentials."""
    p = pot.params
    pts = [tk + side * wk for tk, wk in zip(p.get("t", ()), p.get("w", ())) for side in (-1.0, 1.0)]
    if pot.label == "case2" and "components" in p:
        (_, b0), (a1, _) = p["components"]
        bands = [0.0, 1.0] + [u for u0, du in _CASE2_BANDS for u in (u0, u0 + du)]
        pts += [b0 + u * (a1 - b0) for u in bands]
    return np.unique(np.array(pts, dtype=float))


def derivative_consistency(pot: RadialPotential) -> Tuple[float, float]:
    """Worst relative mismatch of the analytic q′ and q″ against the
    identities q(b) − q(a) = ∫_a^b q′ and q′(b) − q′(a) = ∫_a^b q″ over the
    panels [a, b] of [0, r_max], each error divided by ∫|q′| (by ∫|q″|) on
    its panel.

    The panels are cut at ``_piece_edges``, so no panel straddles a seam
    between a builder's pieces; the integrals are 32-point Gauss-Legendre
    sums from one order-2 ``terms`` call, the panel ends one order-1 call.
    No difference step enters, so neither truncation nor roundoff grows as
    a window narrows.
    """
    hi = pot.r_max
    seams = _piece_edges(pot)
    seams = np.r_[0.0, seams[(seams > 0.0) & (seams < hi)], hi]
    width = hi / _CHECK_PANELS
    ends = np.r_[
        np.concatenate([
            np.linspace(x, y, max(_PIECE_PANELS, math.ceil((y - x) / width)), endpoint=False)
            for x, y in zip(seams[:-1], seams[1:])
        ]),
        hi,
    ]
    x, half = _gl_panels(ends[:-1], ends[1:], _GL32)
    w = half[:, None] * _GL32[1]
    _, d1, d2 = pot.terms(x, 2)
    q_end, d1_end = pot.terms(ends, 1)
    tiny = np.finfo(float).tiny
    err1 = np.abs(np.diff(q_end) - (w * d1).sum(1)) / np.maximum((w * np.abs(d1)).sum(1), tiny)
    err2 = np.abs(np.diff(d1_end) - (w * d2).sum(1)) / np.maximum((w * np.abs(d2)).sum(1), tiny)
    return float(err1.max()), float(err2.max())


def _growth_margin(pot: RadialPotential) -> float:
    r = np.linspace(pot.r_max, 2.0 * pot.r_max, 64)
    return float(np.min(r * np.asarray(pot.dq(r)))) - 2.0


def _at_outposts(name: str, t: np.ndarray, ok: np.ndarray, detail: str) -> ValidationCheck:
    bad = t[~ok].tolist()
    return ValidationCheck(name, not bad, f"{detail}; fails at t={bad}" if bad else detail)


def _touch_checks(
    pot: RadialPotential, tau: float, lo: float, hi: float,
    ts: Sequence[float], ws: Sequence[float], upper: Optional[Callable] = None,
) -> Iterator[ValidationCheck]:
    """The identities of a built potential on the obstacle line
    Q̌(r) = τ + 2τ ln(r/lo) across (lo, hi), with outposts t_k of window
    half-widths w_k: Q̌ ≤ q (≤ upper, when given) to 1e-12 on a grid of
    (lo, hi) (obstacle_inequality), q − Q̌ < 1e-10 there only within 1e-3 of
    an end or a t_k, where it vanishes quadratically (coincidence_isolation),
    q(t_k) = Q̌(t_k) to 1e-12 (coincidence_touch), t_k q′(t_k) = 2τ to 1e-10
    (coincidence_stationarity), and ΔQ(t_k) > 0, equal below an upper
    profile to (upper − Q̌)(t_k)/(2 w_k²) to 1e-10 (laplacian_at_outpost).
    """

    def obstacle(r):
        return tau + 2.0 * tau * np.log(r / lo)

    r = np.linspace(lo + 1e-9, hi - 1e-9, 20001)
    (q,) = pot.terms(r, 0)
    gap = q - obstacle(r)
    ok = gap.min() >= -1e-12 and (upper is None or np.max(q - upper(r)) <= 1e-12)
    yield ValidationCheck("obstacle_inequality", bool(ok), f"min q - obstacle = {gap.min():.1e}")
    t = np.array(ts, dtype=float)
    near = r[gap < 1e-10]
    stray = near[np.all(np.abs(near[:, None] - np.r_[lo, hi, t]) > 1e-3, axis=1)]
    detail = f"stray touches at r={stray[:3]}" if stray.size else "no stray touch"
    yield ValidationCheck("coincidence_isolation", not stray.size, detail)
    if not t.size:
        return
    q_t, d1_t = pot.terms(t, 1)
    touch = np.abs(q_t - obstacle(t))
    yield _at_outposts("coincidence_touch", t, touch <= 1e-12, f"max miss {touch.max():.1e}")
    slope = np.abs(t * d1_t - 2.0 * tau)
    yield _at_outposts("coincidence_stationarity", t, slope <= 1e-10, f"max miss {slope.max():.1e}")
    lap = np.asarray(laplacian(pot, t))
    ok = lap > 0.0
    if upper is not None:
        want = (upper(t) - obstacle(t)) / (2.0 * np.asarray(ws) ** 2)
        ok &= np.abs(lap - want) <= 1e-10 * np.maximum(1.0, np.abs(want))
    yield _at_outposts("laplacian_at_outpost", t, ok, f"min laplacian {lap.min():.4g}")


# the builder params a family label's checks read
_FAMILY_PARAMS = {"case1": ("t", "w"), "case2": ("components", "M0", "t", "w")}


def _missing_params(pot: RadialPotential) -> list:
    """The params ``pot``'s family label needs and it does not carry."""
    return [k for k in _FAMILY_PARAMS.get(pot.label, ()) if k not in pot.params]


def _checks(pot: RadialPotential) -> Iterator[ValidationCheck]:
    """Every check of ``pot`` once, lazily: a built family's touch identities
    (case 1: τ = 1 on (1, 3) below r²; case 2: τ = M0 on the gap (b0, a1),
    and the edge slopes q′ = 2 M0/r at b0 and a1 to 1e-10), then derivative
    consistency to 1e-5 and confining growth past r_max. A family label
    without its builder params fails "builder_params" in their place."""
    p = pot.params
    missing = _missing_params(pot)
    if missing:
        yield ValidationCheck(
            "builder_params", False, f"label {pot.label!r} without builder params {missing}"
        )
    elif pot.label == "case1":
        yield from _touch_checks(pot, 1.0, 1.0, 3.0, p["t"], p["w"], upper=np.square)
    elif pot.label == "case2":
        (_, b0), (a1, _) = p["components"]
        yield from _touch_checks(pot, p["M0"], b0, a1, p["t"], p["w"])
        edges = np.array([b0, a1])
        miss = np.abs(pot.terms(edges, 1)[1] - 2.0 * p["M0"] / edges).max()
        yield ValidationCheck("edge_slope", bool(miss <= 1e-10), f"max miss {miss:.1e}")
    e1, e2 = derivative_consistency(pot)
    yield ValidationCheck(
        "derivative_consistency", max(e1, e2) <= 1e-5, f"max rel err dq={e1:.2e}, ddq={e2:.2e}"
    )
    gm = _growth_margin(pot)
    yield ValidationCheck("growth", gm > 0.0, f"min r q' - 2 = {gm:.3f}")


def _validate(pot: RadialPotential) -> None:
    """Raise BuildValidationError at a built potential's first failing check."""
    for check in _checks(pot):
        if not check.passed:
            raise BuildValidationError(check.name, check.detail)


def validation_report(pot: RadialPotential):
    """(checks, droplet): the checks a build runs (``_checks``), then the
    classified total mass and, for a built family with its builder params,
    the round trip of its label, outposts and (case 2) components and M0
    through ``classify`` (radii to 1e-6, M0 to 1e-8); the droplet is None,
    with the failed check "classification", when ``classify`` raises
    ClassificationError."""
    checks = list(_checks(pot))
    try:
        data = classify(pot)
    except ClassificationError as exc:
        return checks + [ValidationCheck("classification", False, str(exc))], None
    last = data.masses[-1]
    checks.append(ValidationCheck("total_mass", abs(last - 1.0) <= 1e-8, f"M_last = {last:.10f}"))
    if pot.label in _FAMILY_PARAMS and not _missing_params(pot):
        p = pot.params
        pairs = [(data.outposts, p["t"], 1e-6)]
        if "M0" in p:
            pairs += [(data.components, p["components"], 1e-6), (data.masses[:1], p["M0"], 1e-8)]
        ok = data.case_tag == pot.label and all(
            np.size(got) == np.size(want) and np.all(np.abs(np.subtract(got, want)) <= tol)
            for got, want, tol in pairs
        )
        detail = f"tag={data.case_tag}, outposts={data.outposts}, masses={data.masses}"
        checks.append(ValidationCheck("classification_roundtrip", bool(ok), detail))
    return checks, data
