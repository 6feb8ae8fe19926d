"""Exact finite-n machinery for the rotation-invariant radial ensemble.

For n particles in an external potential n·q(|z|), rotation invariance
factorizes everything over the index j = 0..n-1: modulus j carries the law
∝ r^(2j+1) exp(-n q(r)) on (0, ∞). This module computes, to quadrature
accuracy,

- ``log_norm``: the log of the weighted norm 2∫ r^(2j+1) e^(Σ s_k h_k) e^(-nq) dr,
- ``region_probabilities`` and ``exact_count_law``: the per-index landing
  probabilities π_jk of disjoint radial regions and the resulting
  multivariate Poisson-binomial count law,
- ``joint_mgf``: E[exp⟨s, N⟩] as a product over j. For hard regions each
  factor is 1 + Σ_k π_jk (e^{s_k} − 1), from the same cached landing
  matrix as the count law; for smooth statistics it is the ratio of
  weighted to unweighted norms,
- ``sample_moduli``: inverse-CDF Monte Carlo draws of all n moduli.

Quadrature is deterministic Gauss-Legendre on graded panels: panels shrink
like the local peak scale 1/sqrt(4 n ΔQ) around component edges and
outposts, and every computed quantity is re-evaluated with all panels split
in two until it is stable to cfg.rel_tol. Windowed mode instead integrates
only a neighborhood of each significant peak of the integrand exponent
(half-width max(sqrt(C log n / n), 8/sqrt(n ΔQ))), mirroring the droplet
localization; mode="both" certifies the two routes against each other.
The mode governs log norms and smooth statistics; the landing matrix π,
and with it every hard-region count law and MGF, always comes from the
full graded grid.

π, the log norms and the sampler share one log-density kernel
(``_log_weight``: (2j+1) ln x − n q(x)) and one Gauss-Legendre panel
mapper (``_gl_panels``). Peak windows are merged by one helper, and every
grid and sampler cell is split by one vectorised subdivider whose edges
are bitwise those of np.linspace.

π is built only on the indices that can reach a region. Modulus j's
density ratio to modulus j + 1 is monotone in r, so tail probabilities
P_j(r > c) rise and P_j(r < c) fall with j; ``_localize`` uses this to
drop the far indices of each region with a computed bound B ≤ 1e-15 on
their total landing probability. The count law scales its table by 1 − B
and the hard-region MGF adds B's effect to its remainder bound.

Grids, log norms, peak windows and landing matrices are memoized per
potential and are freed with it (``per_potential_cache``).

Statistics are described by a RegionSet whose entries are either hard
radial intervals or smooth plateau bumps. An entry may be index-split: it
counts one region for j >= m0 and another for j < m0, which is how the
gap-edge coordinate of the two-component ensemble is defined.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .heine import CountLaw, dp_count_law
from .potentials import (
    BumpSpec,
    GridResolutionError,
    RadialPotential,
    Shoulder,
    bump,
    droplet_data,
    find_peaks,
    laplacian,
    per_potential_cache,
    shoulder,
)

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "HardRegion",
    "SplitRegion",
    "SplitBump",
    "RegionSet",
    "MgfResult",
    "ModuliSample",
    "log_norm",
    "joint_mgf",
    "region_probabilities",
    "LandingMatrix",
    "landing_matrix",
    "exact_count_law",
    "sample_moduli",
    "standard_regions",
    "moduli_to_csv",
]


class QuadratureError(RuntimeError):
    """Quadrature non-convergence or impossible integrand structure."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-11
    window_constant: float = 10.0
    mode: str = "full"

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive (rel_tol)")
        if self.window_constant < 1.0:
            raise ValueError("window constant C must be >= 1")
        if self.mode not in ("windowed", "full", "both"):
            raise ValueError("mode must be one of windowed, full, both")


# ------------------------------------------------------------------- regions


@dataclass(frozen=True)
class HardRegion:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo < self.hi:
            raise ValueError("region must satisfy 0 <= lo < hi")


@dataclass(frozen=True)
class SplitRegion:
    """Index-split hard statistic: indices j >= m0 count hits in ``above``,
    indices j < m0 count hits in ``below``."""

    m0: int
    below: HardRegion
    above: HardRegion


@dataclass(frozen=True)
class SplitBump:
    """Index-split smooth statistic (same convention as SplitRegion).

    Each side is a BumpSpec or a one-sided Shoulder; the standard gap-edge
    statistic keeps everything inside the gap's inner edge for j >= m0 and
    everything beyond its outer edge for j < m0, so shoulders are the
    smooth analogue of the half-line hard regions."""

    m0: int
    below: Union[BumpSpec, Shoulder]
    above: Union[BumpSpec, Shoulder]


_HARD_KINDS = (HardRegion, SplitRegion)
_SMOOTH_KINDS = (BumpSpec, SplitBump)


@dataclass(frozen=True)
class RegionSet:
    """Homogeneous tuple of count statistics, hard or smooth."""

    entries: Tuple[Union[HardRegion, SplitRegion, BumpSpec, SplitBump], ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("hard", "smooth"):
            raise ValueError("kind must be hard or smooth")
        want = _HARD_KINDS if self.kind == "hard" else _SMOOTH_KINDS
        if any(not isinstance(e, want) for e in self.entries):
            raise ValueError(f"all entries must be {self.kind} statistics")
        atoms = self._atomic_intervals()
        for i in range(len(atoms)):
            for k in range(i + 1, len(atoms)):
                a, b = atoms[i], atoms[k]
                if a[0] < b[1] and b[0] < a[1]:
                    raise ValueError("region intervals must be pairwise disjoint")

    @classmethod
    def hard(cls, entries) -> "RegionSet":
        return cls(tuple(entries), "hard")

    @classmethod
    def smooth(cls, entries) -> "RegionSet":
        return cls(tuple(entries), "smooth")

    @property
    def m(self) -> int:
        return len(self.entries)

    @staticmethod
    def _smooth_atom(spec):
        # a shoulder occupies its whole nonzero extent so nothing else may
        # double-count the plateau side
        if isinstance(spec, Shoulder):
            return (0.0, spec.hi) if spec.keep_below else (spec.lo, math.inf)
        return spec.support

    def _atoms_of(self, entry):
        if isinstance(entry, HardRegion):
            return [(entry.lo, entry.hi)]
        if isinstance(entry, SplitRegion):
            return [(entry.below.lo, entry.below.hi), (entry.above.lo, entry.above.hi)]
        if isinstance(entry, BumpSpec):
            return [entry.support]
        return [self._smooth_atom(entry.below), self._smooth_atom(entry.above)]

    def _atomic_intervals(self):
        out = []
        for e in self.entries:
            out.extend(self._atoms_of(e))
        return out

    def edge_radii(self) -> Tuple[float, ...]:
        """All radii where an entry starts, ends, or changes regime."""
        edges = set()
        for e in self.entries:
            if isinstance(e, (HardRegion, SplitRegion)):
                for lo, hi in self._atoms_of(e):
                    edges.update((lo, hi))
            else:
                specs = [e] if isinstance(e, BumpSpec) else [e.below, e.above]
                for sp in specs:
                    if isinstance(sp, Shoulder):
                        mid = 0.5 * (sp.lo + sp.hi)
                        edges.update((sp.lo, mid, sp.hi))
                    else:
                        t, eps = sp.center, sp.half_width
                        edges.update((t - eps, t - eps / 2.0, t + eps / 2.0, t + eps))
        return tuple(sorted(edges))

    def resolve(self, k: int, j: int):
        """The active atomic statistic of coordinate k at index j."""
        e = self.entries[k]
        if isinstance(e, (SplitRegion, SplitBump)):
            return e.above if j >= e.m0 else e.below
        return e

    def group_key(self, j: int) -> Tuple[bool, ...]:
        return tuple(
            j >= e.m0 if isinstance(e, (SplitRegion, SplitBump)) else True
            for e in self.entries
        )

    def exponent(self, j: int, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Σ_k s_k h_k(x) for index j (h = indicator or bump)."""
        out = np.zeros(x.shape)
        for k in range(self.m):
            sk = float(s[k])
            if sk == 0.0:
                continue
            atom = self.resolve(k, j)
            if isinstance(atom, HardRegion):
                out += sk * ((x > atom.lo) & (x < atom.hi))
            elif isinstance(atom, Shoulder):
                out += sk * shoulder(atom, x)
            else:
                out += sk * bump(atom, x)
        return out


def standard_regions(
    data,
    n: Optional[int] = None,
    eps: Optional[float] = None,
    smooth: bool = False,
) -> Tuple[RegionSet, float]:
    """Default statistic set for a classified droplet.

    Case 1: one region per outpost. Case 2: coordinate 0 is the index-split
    gap-edge statistic with m0 = floor(M0 n): indices j >= m0 count as
    "stayed inner" when found anywhere inside a cutoff past the gap's
    inner edge b0, and indices j < m0 count as "escaped outward" when
    found anywhere beyond a cutoff short of the outer edge a1. The edge
    clusters spread like n^{-1/2}, so the cutoffs sit deep in the gap
    (past the midpoint toward the nearest outpost, or mirrored around the
    bare-gap midpoint) rather than hugging the edges. Outposts get annuli
    (hard) or plateau bumps (smooth) of half-width eps, defaulting to one
    fifth of the smallest gap between adjacent special radii. Returns
    (regions, eps).
    """
    special = [data.components[0][1]]
    if data.case_tag == "case2":
        special += list(data.outposts) + [data.components[1][0]]
    else:
        special += list(data.outposts)
    special = sorted(special)
    if eps is None:
        gaps = [b - a for a, b in zip(special[:-1], special[1:])]
        eps = (min(gaps) if gaps else special[0]) / 5.0
    if eps <= 0.0:
        raise ValueError("nonpositive region half-width")

    def entry(center: float):
        if smooth:
            return BumpSpec(center, eps)
        return HardRegion(center - eps, center + eps)

    entries = []
    if data.case_tag == "case2":
        if n is None:
            raise ValueError("case-2 regions need n to place the index split")
        # forward nudge: at exact-integer M0 n the classified mass can sit
        # a few ulp low and must not drop m0 by one
        m0 = int(math.floor(data.masses[0] * n + 1e-9))
        b0 = data.components[0][1]
        a1 = data.components[1][0]
        if data.outposts:
            span_b = data.outposts[0] - b0
            span_a = a1 - data.outposts[-1]
            cut_b = b0 + 0.55 * span_b
            cut_a = a1 - 0.55 * span_a
        else:
            span_b = span_a = a1 - b0
            cut_b = b0 + 0.45 * span_b
            cut_a = a1 - 0.45 * span_a
        outer = data.components[-1][1] + 6.0
        if smooth:
            sep = cut_a - cut_b
            delta_b = min(0.2 * span_b, 0.4 * sep)
            delta_a = min(0.2 * span_a, 0.4 * sep)
            entries.append(
                SplitBump(
                    m0,
                    below=Shoulder(cut_a - delta_a, cut_a + delta_a, False),
                    above=Shoulder(cut_b - delta_b, cut_b + delta_b, True),
                )
            )
        else:
            entries.append(
                SplitRegion(
                    m0,
                    below=HardRegion(cut_a, outer),
                    above=HardRegion(0.0, cut_b),
                )
            )
        entries.extend(entry(t) for t in data.outposts)
    else:
        entries.extend(entry(t) for t in data.outposts)
    return RegionSet(tuple(entries), "smooth" if smooth else "hard"), float(eps)


# ---------------------------------------------------------------- node grids


_GL32 = np.polynomial.legendre.leggauss(32)
_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
_GL2 = np.polynomial.legendre.leggauss(2)


def _gl_panels(lo: np.ndarray, hi: np.ndarray, rule) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (panels × rule nodes) of ``rule`` on panels [lo, hi]."""
    nodes, weights = rule
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * nodes, half[:, None] * weights


def _subdivide(lo: np.ndarray, hi: np.ndarray, parts) -> Tuple[np.ndarray, np.ndarray]:
    """Split panel i of [lo, hi] into parts[i] (or parts) equal pieces.

    Piece edges are i·step + a with the last pinned to b, the arithmetic of
    np.linspace(a, b, parts + 1), so they equal it bitwise.
    """
    parts = np.broadcast_to(parts, lo.shape)
    ends = np.cumsum(parts)
    i = np.arange(parts.sum()) - np.repeat(ends - parts, parts)
    start = np.repeat(lo, parts)
    step = np.repeat((hi - lo) / parts, parts)
    new_hi = (i + 1) * step + start
    new_hi[ends - 1] = hi
    return i * step + start, new_hi


def _merge_windows(peaks, r_max: float):
    """Union of the windows [r0 - h, r0 + h] ∩ [1e-9, r_max], as sorted
    disjoint (a, b) pairs."""
    windows = []
    for r0, h in sorted(peaks):
        a, b = max(1e-9, r0 - h), min(r_max, r0 + h)
        if windows and a <= windows[-1][1]:
            windows[-1] = (windows[-1][0], max(windows[-1][1], b))
        else:
            windows.append((a, b))
    return windows


def _graded_offsets(center: float, sigma: float, lo: float, hi: float):
    offs = sigma * np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    pts = np.concatenate((center - offs[::-1], center + offs[1:]))
    return pts[(pts > lo) & (pts < hi)]


@per_potential_cache(maxsize=64)
def _special_structure(pot: RadialPotential, n: int):
    """Special radii and their peak scales, plus the bulk panel width."""
    data = droplet_data(pot)
    special = []
    for a, b in data.components:
        if a > 0.0:
            special.append(a)
        special.append(b)
    special.extend(data.outposts)
    lap_min = math.inf
    for a, b in data.components:
        lo = a + 0.02 * (b - a) if a > 0.0 else a + 1e-6
        probe = np.linspace(lo, b - 1e-9, 64)
        lap_min = min(lap_min, float(np.min(laplacian(pot, probe))))
    lap_min = max(lap_min, 1e-3)
    sigmas = []
    for r0 in special:
        lap = max(float(laplacian(pot, r0)), lap_min)
        sigmas.append(1.0 / math.sqrt(4.0 * n * lap))
    h_bulk = min(0.12, 6.0 / math.sqrt(4.0 * n * lap_min))
    return tuple(special), tuple(sigmas), h_bulk


def _fill_edges(breaks: np.ndarray, h_fill: float) -> np.ndarray:
    lo, hi = breaks[:-1], breaks[1:]
    keep = hi - lo > 1e-14
    lo, hi = lo[keep], hi[keep]
    parts = np.maximum(1, np.ceil((hi - lo) / h_fill).astype(int))
    return np.concatenate((breaks[:1], _subdivide(lo, hi, parts)[1]))


@per_potential_cache(maxsize=128)
def _full_grid(pot: RadialPotential, n: int, extra_edges: Tuple[float, ...], splits: int):
    special, sigmas, h_bulk = _special_structure(pot, n)
    lo, hi = 1e-9, pot.r_max
    pts = {lo, hi}
    pts.update(e for e in extra_edges if lo < e < hi)
    for r0, sg in zip(special, sigmas):
        pts.update(_graded_offsets(r0, sg, lo, hi))
    breaks = _fill_edges(np.array(sorted(pts)), h_bulk)
    panels = _subdivide(breaks[:-1], breaks[1:], splits)
    if panels[0].size * 32 >= 400_000:
        raise QuadratureError("node budget exceeded; relax rel_tol")
    x, w = _gl_panels(*panels, _GL32)
    return x.ravel(), w.ravel()


@per_potential_cache(maxsize=64)
def _windowed_grid(
    pot: RadialPotential,
    n: int,
    peaks_key: Tuple[Tuple[float, float], ...],  # (radius, half_width)
    extra_edges: Tuple[float, ...],
    splits: int,
):
    los, his = [], []
    for a, b in _merge_windows(peaks_key, pot.r_max):
        pts = {a, b}
        pts.update(e for e in extra_edges if a < e < b)
        for r0, h in peaks_key:
            if a < r0 < b:
                pts.update(_graded_offsets(r0, h / 32.0, a, b))
        breaks = _fill_edges(np.array(sorted(pts)), max((b - a) / 8.0, 1e-6))
        los.append(breaks[:-1])
        his.append(breaks[1:])
    panels = _subdivide(np.concatenate(los), np.concatenate(his), splits)
    x, w = _gl_panels(*panels, _GL32)
    return x.ravel(), w.ravel()


# ---------------------------------------------------------- core logsumexp


def _log_weight(pot: RadialPotential, n: int, j, x: np.ndarray) -> np.ndarray:
    """(2j+1) ln x − n q(x), the log-density of modulus j; j and x broadcast."""
    return (2 * j + 1) * np.log(x) - n * np.asarray(pot.q(x))


def _phi_matrix(
    pot: RadialPotential,
    n: int,
    j_arr: np.ndarray,
    x: np.ndarray,
    s: Optional[np.ndarray],
    stats: Optional[RegionSet],
) -> np.ndarray:
    """phi[i, :] = (2 j_i + 1) ln x - n q(x) + Σ_k s_k h_k(x) (index-aware)."""
    phi = _log_weight(pot, n, j_arr[:, None], x)
    if stats is not None and s is not None and np.any(s != 0.0):
        groups = {}
        for row, j in enumerate(j_arr):
            groups.setdefault(stats.group_key(int(j)), []).append(row)
        for key, rows in groups.items():
            extra = stats.exponent(int(j_arr[rows[0]]), s, x)
            phi[rows, :] += extra[None, :]
    return phi


def _log_rows(phi: np.ndarray, w: np.ndarray, mask=None) -> np.ndarray:
    """log ∫ per row: log Σ w e^phi over (optionally masked) columns."""
    if mask is not None:
        phi = phi[:, mask]
        w = w[mask]
    if phi.shape[1] == 0:
        return np.full(phi.shape[0], -np.inf)
    m = phi.max(axis=1)
    out = np.where(np.isfinite(m), m, -np.inf).astype(float)
    safe = np.isfinite(m)
    if safe.any():
        acc = (w[None, :] * np.exp(phi[safe] - m[safe, None])).sum(axis=1)
        out[safe] = m[safe] + np.log(acc)
    return out


# panel-splitting passes before a quadrature is declared non-convergent
_MAX_SUBDIVISIONS = 12


def _converged_rows(make_rows, cfg: QuadratureConfig):
    """Run make_rows(splits) with panel splitting until stable to rel_tol."""
    prev = None
    splits = 1
    for _ in range(_MAX_SUBDIVISIONS):
        rows = make_rows(splits)
        if prev is not None:
            gap = np.max(np.abs(np.where(np.isfinite(rows) | np.isfinite(prev), rows - prev, 0.0)))
        if prev is not None and gap <= cfg.rel_tol:
            return rows
        prev = rows
        splits *= 2
    raise QuadratureError("quadrature failed to converge; raise rel_tol")


def _tau(j: int, n: int) -> float:
    return (j + 0.5) / n


@per_potential_cache(maxsize=8192)
def _windows_for_index(
    pot: RadialPotential, n: int, j: int, cfg: QuadratureConfig
) -> Tuple[Tuple[float, float], ...]:
    # a tilt grazing the minimum of r q'(r) on a window roll band puts two
    # crossings closer than the scan grid; rescan finer before giving up
    ppu = 4096
    while True:
        try:
            pa = find_peaks(
                pot,
                _tau(j, n),
                (1e-6, pot.r_max),
                n,
                cfg.window_constant,
                points_per_unit=ppu,
            )
            break
        except GridResolutionError as exc:
            if ppu >= 262144:
                raise GridResolutionError(f"{exc} (at index j={j})") from exc
            ppu *= 2
    sig = pa.significant_peaks
    if not sig:
        raise QuadratureError(f"no peak found for index j={j}")
    eps_n = math.sqrt(cfg.window_constant * math.log(n) / n)
    out = []
    for p in sig:
        lap = p.curvature / 4.0  # g_tau'' = 4 ΔQ at a stationary point
        out.append((p.r, max(eps_n, 8.0 / math.sqrt(n * lap))))
    return tuple(out)


def _s_key(s) -> Tuple[float, ...]:
    if s is None:
        return ()
    return tuple(float(v) for v in np.atleast_1d(np.asarray(s, dtype=float)))


def _log_norm_rows(pot, n, j_arr, s, stats, cfg, grid) -> np.ndarray:
    """log 2∫ per index j_arr[i] on the nodes grid(edges, splits), with
    panel splitting until stable to cfg.rel_tol."""
    edges = stats.edge_radii() if stats is not None else ()

    def make(splits):
        x, w = grid(edges, splits)
        return _log_rows(_phi_matrix(pot, n, j_arr, x, s, stats), w)

    return math.log(2.0) + _converged_rows(make, cfg)


@per_potential_cache(maxsize=512)
def _log_norm_rows_full(
    pot: RadialPotential,
    n: int,
    j_key: Tuple[int, ...],
    s_key: Tuple[float, ...],
    stats: Optional[RegionSet],
    cfg: QuadratureConfig,
) -> Tuple[float, ...]:
    j_arr = np.asarray(j_key, dtype=float)
    s = np.asarray(s_key, dtype=float) if s_key else None
    grid = functools.partial(_full_grid, pot, n)
    return tuple(_log_norm_rows(pot, n, j_arr, s, stats, cfg, grid))


def _log_norm_windowed(
    pot: RadialPotential,
    n: int,
    j: int,
    s,
    stats: Optional[RegionSet],
    cfg: QuadratureConfig,
) -> float:
    s_vec = np.asarray(_s_key(s), dtype=float) if s is not None else None
    peaks_key = _windows_for_index(pot, n, j, cfg)
    grid = functools.partial(_windowed_grid, pot, n, peaks_key)
    j_arr = np.asarray([j], dtype=float)
    return float(_log_norm_rows(pot, n, j_arr, s_vec, stats, cfg, grid)[0])


def log_norm(
    pot: RadialPotential,
    n: int,
    j: int,
    s=None,
    stats: Optional[RegionSet] = None,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """log of 2 ∫_0^∞ r^(2j+1) e^(Σ_k s_k h_k(r)) e^(-n q(r)) dr.

    mode="full" integrates the whole range on the graded grid, "windowed"
    only the significant-peak windows of the exponent, "both" computes the
    two and raises QuadratureError if they disagree beyond 1e-8.
    """
    if not 0 <= j <= n - 1:
        raise ValueError("index j must satisfy 0 <= j <= n-1")
    if stats is not None and s is not None and len(_s_key(s)) != stats.m:
        raise ValueError("s length must match the statistic count")
    if stats is None and s is not None and len(_s_key(s)) != 0:
        raise ValueError("s given without statistics")
    s_key = _s_key(s)
    if cfg.mode in ("full", "both"):
        full_val = _log_norm_rows_full(pot, n, (int(j),), s_key, stats, cfg)[0]
    if cfg.mode in ("windowed", "both"):
        win_val = _log_norm_windowed(pot, n, int(j), s, stats, cfg)
    if cfg.mode == "full":
        return full_val
    if cfg.mode == "windowed":
        return win_val
    if abs(win_val - full_val) > 1e-8 * max(1.0, abs(full_val)):
        raise QuadratureError(
            f"windowed and full quadrature disagree at j={j}: "
            f"{win_val:.12f} vs {full_val:.12f}"
        )
    return full_val


# ------------------------------------------------------------------- the MGF


@dataclass(frozen=True)
class MgfResult:
    value: float
    log_value: float
    remainder_bound: float
    terms: int

    def __float__(self) -> float:
        return self.value


def _restrict_indices(restrict, n: int, stats: Optional[RegionSet], cfg) -> np.ndarray:
    if restrict is None:
        return np.arange(n)
    L = int(math.ceil(cfg.window_constant * math.log(n)))
    if restrict == "tail":
        return np.arange(max(0, n - L), n)
    if restrict == "split":
        m0s = [
            e.m0 for e in (stats.entries if stats is not None else ())
            if isinstance(e, (SplitRegion, SplitBump))
        ]
        if not m0s:
            raise ValueError("split restriction needs an index-split statistic")
        keep = np.zeros(n, dtype=bool)
        for m0 in m0s:
            keep[max(0, m0 - L) : min(n, m0 + L + 1)] = True
        return np.nonzero(keep)[0]
    raise ValueError("restrict must be None, 'tail', or 'split'")


def joint_mgf(
    pot: RadialPotential,
    n: int,
    s,
    stats: RegionSet,
    cfg: QuadratureConfig = QuadratureConfig(),
    restrict: Optional[str] = None,
) -> MgfResult:
    """E[exp(Σ_k s_k N_k)] as a product over the indices j.

    Hard regions give the Poisson-binomial product ∏_j (1 + Σ_k π_jk
    (e^{s_k} − 1)) over the landing matrix π that exact_count_law uses;
    like the count law, π comes from the full graded grid whatever
    cfg.mode is, and only on the indices the localization keeps; the
    others' certified log contribution B·M / (1 − B·M), with B the
    localization bound and M = max_k |e^{s_k} − 1|, joins remainder_bound.
    Smooth statistics give ∏_j exp(log_norm(j, s) − log_norm(j, 0)) by
    weighted quadrature, on the grid cfg.mode selects ("both" checks the
    windowed against the full grid).

    Requires finite |s_k| ≤ log n. With restrict="tail" (or "split") only
    the indices j ≥ n − ⌈C log n⌉ (or the ⌈C log n⌉-windows around each
    index split) keep their s-dependence; the dropped log contribution is
    evaluated anyway and reported as remainder_bound.
    """
    s_vec = np.asarray(s, dtype=float)
    if s_vec.shape != (stats.m,):
        raise ValueError("s length must match the statistic count")
    if not np.all(np.isfinite(s_vec)):
        raise ValueError("s must be finite")
    if np.any(np.abs(s_vec) > math.log(max(n, 2)) + 1e-12):
        raise ValueError("s out of range (require |s_k| <= log n)")
    if not np.any(s_vec != 0.0):
        return MgfResult(1.0, 0.0, 0.0, n)

    localization = 0.0
    if stats.kind == "hard":
        lm = _landing_matrix(pot, n, stats, cfg)
        delta = np.zeros(n)
        delta[lm.rows] = np.log1p(lm.pi @ np.expm1(s_vec))
        # a dropped index's factor is within M·Σ_k π_jk of 1, and those
        # sums total at most the bound B: |Σ log| <= B·M / (1 − B·M)
        spread = lm.bound * float(np.max(np.abs(np.expm1(s_vec))))
        localization = spread / (1.0 - spread)
    else:
        delta = _smooth_log_factors(pot, n, s_vec, stats, cfg)
    keep = _restrict_indices(restrict, n, stats, cfg)
    mask = np.zeros(n, dtype=bool)
    mask[keep] = True
    log_value = float(delta[mask].sum())
    dropped = float(delta[~mask].sum())
    return MgfResult(
        value=math.exp(log_value),
        log_value=log_value,
        remainder_bound=abs(dropped) + localization,
        terms=int(mask.sum()),
    )


def _smooth_log_factors(
    pot: RadialPotential,
    n: int,
    s_vec: np.ndarray,
    stats: RegionSet,
    cfg: QuadratureConfig,
) -> np.ndarray:
    """log_norm(j, s) − log_norm(j, 0) for every j, on cfg.mode's grid."""
    all_j = tuple(range(n))
    if cfg.mode in ("full", "both"):
        base = np.asarray(_log_norm_rows_full(pot, n, all_j, (), None, cfg))
        wtd = np.asarray(
            _log_norm_rows_full(pot, n, all_j, tuple(s_vec), stats, cfg)
        )
    if cfg.mode in ("windowed", "both"):
        base_w = np.asarray(
            [_log_norm_windowed(pot, n, j, None, None, cfg) for j in range(n)]
        )
        wtd_w = np.asarray(
            [_log_norm_windowed(pot, n, j, s_vec, stats, cfg) for j in range(n)]
        )
        if cfg.mode == "windowed":
            base, wtd = base_w, wtd_w
        else:
            gap = max(
                float(np.max(np.abs(base_w - base))),
                float(np.max(np.abs(wtd_w - wtd))),
            )
            if gap > 1e-8 * max(1.0, float(np.max(np.abs(base)))):
                raise QuadratureError(
                    f"windowed and full quadrature disagree (gap {gap:.3e})"
                )
    return wtd - base


# -------------------------------------------------------------- count laws


# Total landing probability the landing matrix may leave out, summed over the
# indices it drops; each dropped index's share is certified by _localize.
_LOCALIZATION_BUDGET = 1e-15
# candidate rows per search side and pass in _localize
_SEARCH_ROWS = 32


def _region_prob_matrix(
    pot: RadialPotential,
    n: int,
    regions: RegionSet,
    cfg: QuadratureConfig,
    j_arr: np.ndarray,
) -> np.ndarray:
    """pi[i, k] = P(modulus j_i lands in region k), by aligned-panel ratios.

    Convergence is monitored on the probabilities themselves (linear scale)
    alongside the log norms, so regions carrying exponentially small mass
    do not stall the refinement with log-tail noise.
    """
    edges = regions.edge_radii()
    n_rows = len(j_arr)

    def make(splits):
        x, w = _full_grid(pot, n, edges, splits)
        phi = _log_weight(pot, n, j_arr[:, None], x)
        full = _log_rows(phi, w)
        pi = np.zeros((n_rows, regions.m))
        for k in range(regions.m):
            entry = regions.entries[k]
            if isinstance(entry, HardRegion):
                mask = (x > entry.lo) & (x < entry.hi)
                pi[:, k] = np.exp(_log_rows(phi, w, mask) - full)
            else:
                lo_m = (x > entry.below.lo) & (x < entry.below.hi)
                hi_m = (x > entry.above.lo) & (x < entry.above.hi)
                below = np.exp(_log_rows(phi, w, lo_m) - full)
                above = np.exp(_log_rows(phi, w, hi_m) - full)
                pi[:, k] = np.where(j_arr >= entry.m0, above, below)
        return np.concatenate((full, pi.ravel()))

    flat = _converged_rows(make, cfg)
    pi = flat[n_rows:].reshape(n_rows, regions.m)
    return np.clip(pi, 0.0, 1.0)


@dataclass(frozen=True)
class LandingMatrix:
    """π on the kept indices: pi[i, k] = P(modulus rows[i] lands in region
    k). Every other index lands in some region with total probability (summed
    over those indices) at most ``bound``."""

    rows: np.ndarray
    pi: np.ndarray
    bound: float

    def spans(self) -> Tuple[Tuple[int, int], ...]:
        """The kept indices as inclusive runs (first, last)."""
        if self.rows.size == 0:
            return ()
        cut = np.flatnonzero(np.diff(self.rows) > 1)
        firsts = np.concatenate((self.rows[:1], self.rows[cut + 1]))
        lasts = np.concatenate((self.rows[cut], self.rows[-1:]))
        return tuple((int(a), int(b)) for a, b in zip(firsts, lasts))


def _active_intervals(regions: RegionSet, n: int):
    """(lo, hi, a, b) per atomic interval (lo, hi) counted by the indices
    a..b; a split entry's ``below`` is active on [0, m0 − 1] and its
    ``above`` on [m0, n − 1]. Intervals with no active index are left out."""
    out = []
    for e in regions.entries:
        if isinstance(e, HardRegion):
            out.append((e.lo, e.hi, 0, n - 1))
        else:
            m0 = min(max(e.m0, 0), n)
            out.append((e.below.lo, e.below.hi, 0, m0 - 1))
            out.append((e.above.lo, e.above.hi, m0, n - 1))
    return [iv for iv in out if iv[2] <= iv[3]]


class _TailSearch:
    """One side of an interval active on [a, b]: the farthest index
    ``good`` from ``origin`` whose product |j − origin|·P_j(tail) stays
    within the share, where the tail is r > cut (``upper``, origin a) or
    r < cut (origin b). ``bad`` is the nearest index known to fail."""

    def __init__(self, upper: bool, cut: float, a: int, b: int) -> None:
        self.upper, self.cut = upper, cut
        self.origin = self.good = a if upper else b
        self.bad = b + 1 if upper else a - 1
        self.product = 0.0

    def candidates(self) -> np.ndarray:
        """Indices strictly between good and bad, ordered from good."""
        step = 1 if self.bad > self.good else -1
        if abs(self.bad - self.good) - 1 <= _SEARCH_ROWS:
            return np.arange(self.good + step, self.bad, step)
        pts = np.rint(np.linspace(self.good, self.bad, _SEARCH_ROWS + 2)[1:-1])
        return np.unique(pts.astype(int))[::step]

    def update(self, cand: np.ndarray, prod: np.ndarray, share: float) -> None:
        # the products are monotone, so the passing candidates lead
        fail = np.flatnonzero(prod > share)
        first = int(fail[0]) if fail.size else cand.size
        if first > 0:
            self.good, self.product = int(cand[first - 1]), float(prod[first - 1])
        if first < cand.size:
            self.bad = int(cand[first])


def _localize(pot: RadialPotential, n: int, regions: RegionSet) -> Tuple[np.ndarray, float]:
    """Kept indices and the bound B on the landing mass of all others.

    Modulus j has density ∝ r^(2j+1) e^(−n q(r)); the ratio of consecutive
    densities ∝ r² increases in r, so P_j(r > c) is nondecreasing and
    P_j(r < c) nonincreasing in j. Below index j_lo an interval (lo, hi)
    active on [a, b] is therefore reached with total probability at most
    (j_lo − a)·P_{j_lo}(r > lo), and above j_hi with at most
    (b − j_hi)·P_{j_hi}(r < hi). Each side takes the farthest end whose
    product stays within an equal share of _LOCALIZATION_BUDGET (the side
    is skipped when lo = 0 or hi ≥ r_max). The products are monotone in j,
    so a batched search evaluating up to _SEARCH_ROWS candidate rows per
    side and pass, on π's own base grid, finds the ends. The kept indices
    are the union of the [j_lo, j_hi], and B sums the products.
    """
    plan = [
        (
            a,
            b,
            _TailSearch(True, lo, a, b) if lo > 0.0 else None,
            _TailSearch(False, hi, a, b) if hi < pot.r_max else None,
        )
        for lo, hi, a, b in _active_intervals(regions, n)
    ]
    searches = [t for _, _, *pair in plan for t in pair if t is not None]
    share = _LOCALIZATION_BUDGET / max(len(searches), 1)
    x, w = _full_grid(pot, n, regions.edge_radii(), 1)
    while True:
        open_ = [t for t in searches if abs(t.bad - t.good) > 1]
        if not open_:
            break
        cands = [t.candidates() for t in open_]
        js = np.unique(np.concatenate(cands))
        phi = _log_weight(pot, n, js[:, None], x)
        dens = w * np.exp(phi - phi.max(axis=1, keepdims=True))
        total = dens.sum(axis=1)
        for t, cand in zip(open_, cands):
            at = np.searchsorted(js, cand)
            cut = int(np.searchsorted(x, t.cut))
            tail = dens[at, cut:] if t.upper else dens[at, :cut]
            prob = tail.sum(axis=1) / total[at]
            t.update(cand, np.abs(cand - t.origin) * prob, share)
    kept = np.zeros(n, dtype=bool)
    for a, b, up, down in plan:
        kept[up.good if up else a : (down.good if down else b) + 1] = True
    return np.flatnonzero(kept), float(sum(t.product for t in searches))


@per_potential_cache(maxsize=16)
def _landing_matrix(
    pot: RadialPotential, n: int, regions: RegionSet, cfg: QuadratureConfig
) -> LandingMatrix:
    """The read-only landing matrix on the kept indices (``_localize``),
    shared by exact_count_law and the hard-region joint_mgf."""
    rows, bound = _localize(pot, n, regions)
    if rows.size:
        pi = _region_prob_matrix(pot, n, regions, cfg, rows)
    else:
        pi = np.zeros((0, regions.m))
    rows.flags.writeable = False
    pi.flags.writeable = False
    return LandingMatrix(rows, pi, bound)


def landing_matrix(
    pot: RadialPotential,
    n: int,
    regions: RegionSet,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> LandingMatrix:
    """The localized landing matrix that exact_count_law and the hard-region
    joint_mgf read: π on the kept indices plus the bound on all others."""
    if regions.kind != "hard":
        raise ValueError("hard-indicator regions required")
    return _landing_matrix(pot, n, regions, cfg)


def region_probabilities(
    pot: RadialPotential,
    n: int,
    j: int,
    regions: RegionSet,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Landing probabilities (π_{j,1}, ..., π_{j,m}) of modulus j."""
    if regions.kind != "hard":
        raise ValueError("hard-indicator regions required")
    if not 0 <= j <= n - 1:
        raise ValueError("index j must satisfy 0 <= j <= n-1")
    if regions.m == 0:
        return np.zeros(0)
    return _region_prob_matrix(pot, n, regions, cfg, np.asarray([j]))[0]


def exact_count_law(
    pot: RadialPotential,
    n: int,
    regions: RegionSet,
    cap=None,
    cfg: QuadratureConfig = QuadratureConfig(),
    tail_tol: float = 1e-12,
) -> CountLaw:
    """Exact joint law of the region occupation counts (N_1, ..., N_m).

    Independence over j makes this a multivariate Poisson-binomial; the DP
    clips each coordinate at its cap (auto-chosen from the marginal
    quantiles when cap is None) and folds the clipped mass into the
    deficit. Only the indices kept by the landing matrix's localization
    enter the DP; the table is scaled by 1 − B, a lower bound on the
    probability that every dropped index misses all regions, so cells stay
    pointwise lower bounds and B joins the deficit.
    """
    if regions.kind != "hard":
        raise ValueError("hard-indicator regions required")
    m = regions.m
    if m == 0:
        return CountLaw(table=np.ones(()))
    if cap is not None and np.ndim(cap) == 0:
        cap = (int(cap),) * m
    lm = _landing_matrix(pot, n, regions, cfg)
    return dp_count_law(lm.pi, tail_tol, cap, scale=1.0 - lm.bound)


# ------------------------------------------------------------------ sampling


@dataclass(frozen=True)
class ModuliSample:
    """radii[..., j] is modulus j; law_truncation bounds the total-variation
    gap to the untruncated law from sampling only the peak windows."""

    n: int
    radii: np.ndarray
    seed: int
    law_truncation: float


def _cells_for_index(pot, n, j, cfg, target_frac=1e-3):
    """(cell_lo, cell_hi, cell_mass, phi_max) with each cell below the
    target mass fraction; cells tile the peak windows only."""
    peaks = _windows_for_index(pot, n, j, cfg)
    windows = np.array(_merge_windows([(r0, 1.25 * h) for r0, h in peaks], pot.r_max))
    lo, hi = _subdivide(windows[:, 0], windows[:, 1], 64)

    def masses_of(a, b):
        x, w = _gl_panels(a, b, _GL16)
        phi = _log_weight(pot, n, j, x)
        phi_max = float(phi.max())
        return (w * np.exp(phi - phi_max)).sum(axis=1), phi_max

    cell_mass, phi_max = masses_of(lo, hi)
    for _ in range(24):
        total = cell_mass.sum()
        too_big = cell_mass > target_frac * total
        if not too_big.any():
            break
        parts = np.where(
            too_big,
            np.minimum(
                64, np.ceil(cell_mass / (target_frac * total)).astype(int) + 1
            ),
            1,
        )
        lo, hi = _subdivide(lo, hi, parts)
        cell_mass, phi_max = masses_of(lo, hi)
    return lo, hi, cell_mass, phi_max


_CDF_TOL = 1e-10  # inverse-CDF residual gate, as a share of the window mass
_NEWTON_STEPS = 8
_BISECTIONS = 60


def _invert_cdf(pot, n, j, cell_lo, cell_hi, cell_mass, phi_max, targets):
    """Solve F(x) = target (in window-mass units) per draw, vectorized.

    Each pass evaluates the residual F(x) − target only at the draws still
    above the gate; a draw that passes leaves with that point, or with its
    Newton polish when the polished residual, checked over the step, is
    smaller. The others take a Newton step, or the bracket midpoint when
    the step leaves the bracket, and after 8 steps are bisected. A draw
    still above the gate after 60 bisections raises QuadratureError.
    """
    cdf = np.cumsum(cell_mass)
    total = cdf[-1]
    tol = _CDF_TOL * total
    u = targets * total
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(cell_mass) - 1)
    lo = cell_lo[idx]
    blo, bhi = lo.copy(), cell_hi[idx].copy()
    want = u - np.where(idx > 0, cdf[idx - 1], 0.0)  # mass to accumulate inside the cell
    x = lo + (bhi - lo) * (want / np.maximum(cell_mass[idx], 1e-300))

    def seg_mass(a, b, rule):
        nodes, w = _gl_panels(a, b, rule)
        return (w * np.exp(_log_weight(pot, n, j, nodes) - phi_max)).sum(axis=1)

    def dens(x):
        return np.maximum(np.exp(_log_weight(pot, n, j, x) - phi_max), 1e-300)

    act = np.arange(x.size)  # draws still above the gate
    last = _NEWTON_STEPS + _BISECTIONS
    for k in range(last + 1):
        xa = x[act]
        resid = seg_mass(lo[act], xa, _GL8) - want[act]
        done = np.abs(resid) <= tol
        if done.any():
            d, xd, rd = act[done], xa[done], resid[done]
            xp = np.clip(xd - rd / dens(xd), blo[d], bhi[d])
            rp = rd + seg_mass(xd, xp, _GL2)
            x[d] = np.where(np.abs(rp) < np.abs(rd), xp, xd)
            act, xa, resid = act[~done], xa[~done], resid[~done]
        if act.size == 0:
            return x
        if k == last:
            break
        high = resid > 0
        bhi[act] = np.where(high, xa, bhi[act])
        blo[act] = np.where(high, blo[act], xa)
        x_next = 0.5 * (blo[act] + bhi[act])
        if k < _NEWTON_STEPS:
            x_new = xa - resid / dens(xa)
            inside = (x_new > blo[act]) & (x_new < bhi[act])
            x_next = np.where(inside, x_new, x_next)
        x[act] = x_next
    raise QuadratureError(
        f"inverse CDF of modulus j={j}: {act.size} draws stop at residual "
        f"{float(np.abs(resid).max() / total):.2e} of the window mass, above "
        f"the {_CDF_TOL:.0e} gate"
    )


def sample_moduli(
    pot: RadialPotential,
    n: int,
    seed: int,
    cfg: QuadratureConfig = QuadratureConfig(),
    reps: int = 1,
) -> ModuliSample:
    """Draw the n independent moduli, modulus j ∝ r^(2j+1) e^(-n q(r)).

    Inverse CDF per index: the peak windows are tabulated into cells of at
    most 1e-3 of the window mass, and a draw picks its cell by binary
    search. Within the cell, bracketed Newton runs on the active set: each
    pass evaluates only the draws whose cumulative-probability residual is
    still above 1e-10 of the window mass, and a draw leaves with a point
    whose residual was checked. Draws Newton cannot finish in 8 steps are
    bisected; one still above the gate after that raises QuadratureError.
    Randomness is one substream per index j, so results are reproducible
    and independent of reps batching; the law truncation from ignoring
    mass outside the windows is recorded. Requires n >= 2: the windows
    scale with sqrt(log n / n), which leaves none at n = 1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    radii = np.empty((reps, n))
    worst_trunc = 0.0
    base_rows = np.asarray(
        _log_norm_rows_full(pot, n, tuple(range(n)), (), None, cfg)
    )
    for j in range(n):
        cell_lo, cell_hi, cell_mass, phi_max = _cells_for_index(pot, n, j, cfg)
        log_win = math.log(2.0) + phi_max + math.log(float(cell_mass.sum()))
        worst_trunc = max(worst_trunc, -math.expm1(min(0.0, log_win - base_rows[j])))
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,)))
        )
        u = rng.random(reps)
        radii[:, j] = _invert_cdf(
            pot, n, j, cell_lo, cell_hi, cell_mass, phi_max, u
        )
    out = radii[0] if reps == 1 else radii
    return ModuliSample(n=n, radii=out, seed=int(seed), law_truncation=float(worst_trunc))


def moduli_to_csv(sample: ModuliSample, path: str) -> None:
    """Write the draws as RFC-4180 CSV with columns j, r."""
    radii = np.atleast_2d(sample.radii)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["j", "r"])
        for row in radii:
            for j, r in enumerate(row):
                writer.writerow([j, f"{r:.17g}"])
