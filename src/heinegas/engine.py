"""Exact finite-n machinery for the rotation-invariant radial ensemble.

For n particles in an external potential n·q(|z|), rotation invariance
factorizes everything over the index j = 0..n-1: modulus j carries the law
∝ r^(2j+1) exp(-n q(r)) on (0, ∞). This module computes, to quadrature
accuracy,

- ``log_norm``: the log of the norm 2∫ r^(2j+1) e^(-nq) dr, read as a row
  total of the landing kernel below,
- ``region_probabilities`` and ``exact_count_law``: the per-index landing
  probabilities π_jk of disjoint radial regions and the resulting
  multivariate Poisson-binomial count law,
- ``joint_mgf``: E[exp⟨s, N⟩] as a product over j of factors
  1 + Σ_k Ψ_jk, Ψ_jk = E[e^{s_k h_k(r_j)} − 1]. For hard regions
  Ψ_jk = π_jk (e^{s_k} − 1) from the same cached landing matrix as the
  count law; for smooth statistics Ψ_jk is the share of π's density
  weighted by e^{s_k h_k} − 1,
- ``sample_moduli``: inverse-CDF Monte Carlo draws of all n moduli.

Quadrature is deterministic Gauss-Legendre on graded panels: panels shrink
like the local peak scale 1/sqrt(4 n ΔQ) around component edges and
outposts, and every computed quantity is re-evaluated with all panels split
in two until it is stable to cfg.rel_tol. The grid spans [1e-9, r_max]
for every index, the sampler's included: its cells are the panels at the
splits where the log norms of all indices converged, cut into eighths, so
the sampled law is the grid law with no window cut.

π, the log norms and the sampler share one log-density kernel
(``_log_weight``: (2j+1) ln x − n q(x)), one row-blocked density
(``_density_blocks``: w·e^(phi − row max), formed for at most
_BLOCK_ELEMENTS rows × nodes at a time, with ln x and n q(x) formed once
per grid) and one Gauss-Legendre panel mapper (``potentials._gl_panels``,
shared with ``mass_between`` and the derivative check). No caller
holds more than one block of the density, so memory does not grow with
the number of rows, and the block size changes no output bit. Every grid
panel and sampler cell is split by one vectorised subdivider whose edges
are bitwise those of np.linspace. π, the smooth MGF factors and the
localization search reduce each block to interval sums
(``_interval_shares``): a region's share is the (optionally weighted) sum
over its contiguous run of nodes divided by the row's total, and the log
norms are those row totals. The sampler's cell masses are the sums over
each cell's 32 nodes, formed on each row's live band only: the cells from
the first through the last that hold a node within 746 of the row's
maximum, below which e^(phi − max) is exactly 0.0. The bands move right
with j, so each row's maximum is sought from its predecessor's first live
cell on, and the table is bitwise the whole-row one. At n = 4096 (README
case 1, 2512 cells) that takes the table from 3.1 to 1.1 s past the log
norm pass. The inverse CDF sums each residual segment as one weighted row
sum (einsum, whose rows do not depend on how many draws share the call).

π and Ψ are built only on the indices that can reach a region. Modulus
j's density ratio to modulus j + 1 is monotone in r, so tail
probabilities P_j(r > c) rise and P_j(r < c) fall with j; ``_localize``
uses this to drop the far indices of each region with a computed bound
B ≤ 1e-15 on their total landing probability. The count law scales its
table by 1 − B and the MGF, hard or smooth, adds B's effect to its
remainder bound.

Grids, log norms, the sampler's cell tables and landing matrices are
memoized per potential and are freed with it (``per_potential_cache``).

Statistics are described by a RegionSet whose entries are atoms, either
hard radial intervals or smooth plateau bumps and one-sided shoulders. An
entry may be an index-split SplitRegion: it counts one atom for j >= m0
and another for j < m0, which is how the gap-edge coordinate of the
two-component ensemble is defined. A RegionSet lists every atom once as
(coordinate k, atom, side), side None for a plain entry and "below" or
"above" for a split's; the kind check, the disjointness check, the grid's
edge radii and the indices each atom is counted at all read that list,
and ``_extent`` and ``_breaks`` give an atom's counted interval and its
edge radii.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .heine import CountLaw, dp_count_law
from .potentials import (
    _GL32,
    BumpSpec,
    RadialPotential,
    Shoulder,
    _gl_panels,
    bump,
    droplet_data,
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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(
                f"tolerances must be positive and finite (rel_tol {self.rel_tol!r})"
            )


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
    """Index-split statistic: indices j >= m0 count ``above``, indices
    j < m0 count ``below``.

    The two sides are atoms of one kind: HardRegions, or smooth BumpSpecs
    and one-sided Shoulders. The standard gap-edge statistic keeps
    everything inside the gap's inner edge for j >= m0 and everything
    beyond its outer edge for j < m0; shoulders are the smooth analogue of
    those half-line hard regions."""

    m0: int
    below: Union[HardRegion, BumpSpec, Shoulder]
    above: Union[HardRegion, BumpSpec, Shoulder]


# the name the smooth split had while it was a class of its own
SplitBump = SplitRegion


@dataclass(frozen=True)
class RegionSet:
    """Homogeneous tuple of count statistics, hard or smooth.

    ``atoms`` lists (k, atom, side) once per atom of entry k: side is None
    for a plain entry, and "below" or "above" for the sides of a split."""

    entries: Tuple[Union[HardRegion, BumpSpec, Shoulder, SplitRegion], ...]
    kind: str
    atoms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("hard", "smooth"):
            raise ValueError("kind must be hard or smooth")
        atoms = []
        for k, e in enumerate(self.entries):
            if isinstance(e, SplitRegion):
                atoms += [(k, e.below, "below"), (k, e.above, "above")]
            else:
                atoms.append((k, e, None))
        want = (HardRegion,) if self.kind == "hard" else (BumpSpec, Shoulder)
        if any(not isinstance(atom, want) for _, atom, _ in atoms):
            raise ValueError(f"all entries must be {self.kind} statistics")
        # sorted by start, two intervals overlap only if some neighbours do
        spans = sorted(_extent(atom) for _, atom, _ in atoms)
        if any(b[0] < a[1] for a, b in zip(spans, spans[1:])):
            raise ValueError("region intervals must be pairwise disjoint")
        object.__setattr__(self, "atoms", tuple(atoms))

    @classmethod
    def hard(cls, entries) -> "RegionSet":
        return cls(tuple(entries), "hard")

    @classmethod
    def smooth(cls, entries) -> "RegionSet":
        return cls(tuple(entries), "smooth")

    @property
    def m(self) -> int:
        return len(self.entries)

    def edge_radii(self) -> Tuple[float, ...]:
        """All radii where an entry starts, ends, or changes regime."""
        return tuple(sorted({r for _, atom, _ in self.atoms for r in _breaks(atom)}))

    def resolve(self, k: int, j: int):
        """The active atomic statistic of coordinate k at index j."""
        e = self.entries[k]
        if isinstance(e, SplitRegion):
            return e.above if j >= e.m0 else e.below
        return e

    def statistic(self, k: int, j: int, x: np.ndarray) -> np.ndarray:
        """h_k(x) for index j: the indicator of a hard atom, or the value in
        [0, 1] of a bump or shoulder."""
        atom = self.resolve(k, j)
        if isinstance(atom, HardRegion):
            return (x > atom.lo) & (x < atom.hi)
        if isinstance(atom, Shoulder):
            return shoulder(atom, x)
        return bump(atom, x)


def _extent(atom) -> Tuple[float, float]:
    """The interval (lo, hi) where an atom counts. A shoulder occupies its
    whole nonzero extent, a half-line, so nothing else may double-count its
    plateau side."""
    if isinstance(atom, HardRegion):
        return atom.lo, atom.hi
    if isinstance(atom, Shoulder):
        return (0.0, atom.hi) if atom.keep_below else (atom.lo, math.inf)
    return atom.support


def _breaks(atom) -> Tuple[float, ...]:
    """The radii where an atom starts, ends, or changes regime."""
    if isinstance(atom, HardRegion):
        return atom.lo, atom.hi
    if isinstance(atom, Shoulder):
        return atom.lo, 0.5 * (atom.lo + atom.hi), atom.hi
    t, eps = atom.center, atom.half_width
    return t - eps, t - eps / 2.0, t + eps / 2.0, t + eps


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
    special = [data.components[0][1], *data.outposts]
    entries = []
    if data.case_tag == "case2":
        if n is None:
            raise ValueError("case-2 regions need n to place the index split")
        m0 = data.index_split(n)[0]
        b0 = data.components[0][1]
        a1 = data.components[1][0]
        special.append(a1)
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
            below = Shoulder(cut_a - delta_a, cut_a + delta_a, False)
            above = Shoulder(cut_b - delta_b, cut_b + delta_b, True)
        else:
            below, above = HardRegion(cut_a, outer), HardRegion(0.0, cut_b)
        entries.append(SplitRegion(m0, below, above))
    if eps is None:
        special.sort()
        gaps = [b - a for a, b in zip(special[:-1], special[1:])]
        eps = (min(gaps) if gaps else special[0]) / 5.0
    if eps <= 0.0:
        raise ValueError("nonpositive region half-width")
    for t in data.outposts:
        entries.append(BumpSpec(t, eps) if smooth else HardRegion(t - eps, t + eps))
    return RegionSet(tuple(entries), "smooth" if smooth else "hard"), float(eps)


# ---------------------------------------------------------------- node grids


_GL8 = np.polynomial.legendre.leggauss(8)
_GL2 = np.polynomial.legendre.leggauss(2)


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


# Gauss-Legendre nodes one full grid may hold
_NODE_BUDGET = 400_000


def _grid_panels(
    pot: RadialPotential, n: int, extra_edges: Tuple[float, ...], splits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Panels (lo, hi) of the full graded grid on [1e-9, r_max], each base
    panel split into ``splits`` equal parts."""
    special, sigmas, h_bulk = _special_structure(pot, n)
    lo, hi = 1e-9, pot.r_max
    pts = {lo, hi}
    pts.update(e for e in extra_edges if lo < e < hi)
    for r0, sg in zip(special, sigmas):
        pts.update(_graded_offsets(r0, sg, lo, hi))
    breaks = _fill_edges(np.array(sorted(pts)), h_bulk)
    return _subdivide(breaks[:-1], breaks[1:], splits)


@per_potential_cache(maxsize=128)
def _full_grid(pot: RadialPotential, n: int, extra_edges: Tuple[float, ...], splits: int):
    panels = _grid_panels(pot, n, extra_edges, splits)
    nodes = panels[0].size * 32
    if nodes >= _NODE_BUDGET:
        raise QuadratureError(
            f"node budget exceeded at n={n}: {nodes:,} nodes on [1e-9, {pot.r_max:g}] "
            f"at {splits} splits per panel, above the limit of {_NODE_BUDGET:,}"
        )
    x, half = _gl_panels(*panels, _GL32)
    return x.ravel(), (half[:, None] * _GL32[1]).ravel()


# ---------------------------------------------------------- core logsumexp


def _log_weight(pot: RadialPotential, n: int, j, x: np.ndarray) -> np.ndarray:
    """(2j+1) ln x − n q(x), the log-density of modulus j; j and x broadcast."""
    out = (2 * j + 1) * np.log(x)
    out -= n * np.asarray(pot.q(x))
    return out


# elements of one (rows × nodes) density block: 512 KB of float64, an L2's worth
_BLOCK_ELEMENTS = 1 << 16
# phi − row max below which e^(phi − row max) is exactly 0.0 (from about −745.13)
_EXP_FLOOR = -746.0


def _density_blocks(
    pot: RadialPotential,
    n: int,
    j_arr: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    cell: int = 0,
):
    """Yield (row slice, phi's maximum per row, node slice, w·e^(phi − row
    max) on those nodes) for consecutive blocks of the rows j_arr × nodes
    x, each of at most _BLOCK_ELEMENTS elements (one row when a row holds
    more). The node slice is all of x unless ``cell`` is given.

    ln x and n q(x) are formed once per call; each block repeats
    ``_log_weight``'s operations in its order, so every value is bitwise the
    one the whole rows × nodes array would hold, whatever the block size.

    Given ``cell`` (x in runs of ``cell`` nodes, j_arr increasing), a block
    is formed only on its live band: the whole runs from the first through
    the last that hold a node above row max + _EXP_FLOOR for any of its
    rows; every other node's value is exactly 0.0. The ratio of consecutive
    densities is monotone in x, so a row's first live run is never before
    its predecessor's: each block's phi and row maxima are formed from the
    previous block's first live run on, which holds every row's maximum.
    """
    log_x = np.log(x)
    nq = n * np.asarray(pot.q(x))
    step = max(1, _BLOCK_ELEMENTS // x.size)
    cols = slice(0, x.size)
    for first in range(0, len(j_arr), step):
        part = slice(first, min(len(j_arr), first + step))
        dens = (2 * j_arr[part, None] + 1) * log_x[cols.start :]
        dens -= nq[cols.start :]
        top = dens.max(axis=1, keepdims=True)
        dens -= top
        if cell:
            live = np.flatnonzero((dens > _EXP_FLOOR).any(axis=0))
            a, b = live[0] // cell * cell, (live[-1] // cell + 1) * cell
            dens = dens[:, a:b]
            cols = slice(cols.start + a, cols.start + b)
        np.exp(dens, out=dens)
        dens *= w[cols]
        yield part, top[:, 0], cols, dens


def _interval_shares(
    pot: RadialPotential,
    n: int,
    j_arr: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    intervals,
    weight=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(log Σ w e^phi per row, share of that mass in each (lo, hi) per row).

    The density comes one block of rows at a time (``_density_blocks``). The
    nodes are sorted and every interval edge is a panel break, so an
    interval's nodes are one contiguous run and its share is the run's sum
    over the row's total, with no difference of large logs. Given
    ``weight``, the run of interval i is summed with the weights
    weight(i, x) at its nodes x instead (a plain share is weight 1); each
    interval's weights are evaluated once, not once per block.
    """
    runs = [slice(*np.searchsorted(x, iv)) for iv in intervals]
    weights = [None if weight is None else weight(i, x[run]) for i, run in enumerate(runs)]
    log_total = np.empty(len(j_arr))
    shares = np.empty((len(j_arr), len(intervals)))
    for part, top, _, dens in _density_blocks(pot, n, j_arr, x, w):
        total = dens.sum(axis=1)
        log_total[part] = top + np.log(total)
        for i, (run, wt) in enumerate(zip(runs, weights)):
            block = dens[:, run] if wt is None else dens[:, run] * wt
            shares[part, i] = block.sum(axis=1) / total
    return log_total, shares


# panel-splitting passes before a quadrature is declared non-convergent
_MAX_SUBDIVISIONS = 12


def _converged_rows(make_rows, cfg: QuadratureConfig):
    """Run make_rows(splits) with panel splitting until stable to rel_tol;
    returns the rows, the splits per panel they were made with and the
    final refinement gap (the largest change of the last split)."""
    prev = None
    gap = math.inf
    splits = 1
    for _ in range(_MAX_SUBDIVISIONS):
        rows = make_rows(splits)
        if prev is not None:
            gap = np.max(np.abs(np.where(np.isfinite(rows) | np.isfinite(prev), rows - prev, 0.0)))
        if prev is not None and gap <= cfg.rel_tol:
            return rows, splits, float(gap)
        prev = rows
        splits *= 2
    raise QuadratureError(
        f"quadrature failed to converge: the last refinement (to {splits // 2} "
        f"splits per panel) moved the result by {gap:.3e}, above rel_tol "
        f"{cfg.rel_tol:.3e}"
    )


@per_potential_cache(maxsize=512)
def _log_norm_rows_full(
    pot: RadialPotential, n: int, j_key: Tuple[int, ...], cfg: QuadratureConfig
) -> Tuple[Tuple[float, ...], int]:
    """(log 2∫ r^(2j+1) e^(−n q) dr per index in j_key, splits per panel):
    the row totals of the landing kernel on the full grid, with panel
    splitting until stable to cfg.rel_tol, and the splits that reached it."""
    j_arr = np.asarray(j_key, dtype=float)

    def make(splits):
        x, w = _full_grid(pot, n, (), splits)
        return _interval_shares(pot, n, j_arr, x, w, ())[0]

    rows, splits, _ = _converged_rows(make, cfg)
    return tuple(math.log(2.0) + rows), splits


def log_norm(
    pot: RadialPotential, n: int, j: int, cfg: QuadratureConfig = QuadratureConfig()
) -> float:
    """log of 2 ∫_0^∞ r^(2j+1) e^(-n q(r)) dr on the full graded grid: the
    row total of the landing kernel (``_interval_shares``) that π and the
    MGF factors are shares of."""
    if not 0 <= j <= n - 1:
        raise ValueError("index j must satisfy 0 <= j <= n-1")
    return _log_norm_rows_full(pot, n, (int(j),), cfg)[0][0]


# ------------------------------------------------------------------- the MGF


@dataclass(frozen=True)
class MgfResult:
    value: float
    log_value: float
    remainder_bound: float

    def __float__(self) -> float:
        return self.value


def joint_mgf(
    pot: RadialPotential,
    n: int,
    s,
    stats: RegionSet,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> MgfResult:
    """E[exp(Σ_k s_k N_k)] as the product ∏_j (1 + Σ_k Ψ_jk) over the
    indices j, with Ψ_jk = E[e^{s_k h_k(r_j)} − 1].

    For hard regions Ψ_jk = π_jk (e^{s_k} − 1), the Poisson-binomial
    factor over the landing matrix π that exact_count_law uses. For smooth
    statistics Ψ_jk is the share of π's density on coordinate k's atom
    weighted by e^{s_k h_k} − 1. Either way the product runs over the
    indices the localization keeps. The atoms are disjoint and 0 ≤ h_k ≤ 1,
    so a dropped index's factor is within M·P_j(some atom) of 1, with
    M = max_k |e^{s_k} − 1|; those probabilities total at most the
    localization bound B, and remainder_bound is B·M / (1 − B·M).

    Requires finite |s_k| ≤ log n.
    """
    s_vec = np.asarray(s, dtype=float)
    if s_vec.shape != (stats.m,):
        raise ValueError("s length must match the statistic count")
    if not np.all(np.isfinite(s_vec)):
        raise ValueError("s must be finite")
    if np.any(np.abs(s_vec) > math.log(max(n, 2)) + 1e-12):
        raise ValueError("s out of range (require |s_k| <= log n)")
    if not np.any(s_vec != 0.0):
        return MgfResult(1.0, 0.0, 0.0)

    if stats.kind == "hard":
        lm = _landing_matrix(pot, n, stats, cfg)
        psi_sum, bound = lm.pi @ np.expm1(s_vec), lm.bound
    else:
        rows, bound = _localize(pot, n, stats)
        psi_sum = _region_prob_matrix(pot, n, stats, cfg, rows, s_vec)[0].sum(axis=1)
    log_value = float(np.log1p(psi_sum).sum())
    spread = bound * float(np.max(np.abs(np.expm1(s_vec))))
    return MgfResult(math.exp(log_value), log_value, spread / (1.0 - spread))


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
    s: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, float]:
    """(pi, splits, gap): pi[i, k] = P(modulus j_i lands in region k), the
    share of row i's mass on the nodes of the interval entry k counts at
    index j_i. Given
    s, the share is weighted by e^{s_k h_k} − 1 on those nodes, which gives
    Ψ[i, k] = E[e^{s_k h_k(r)} − 1] for modulus j_i.

    Convergence is monitored on the shares themselves (linear scale)
    alongside the log norms, so regions carrying exponentially small mass
    do not stall the refinement with log-tail noise. ``splits`` and ``gap``
    are those of the converged refinement (``_converged_rows``), and
    (0, 0.0) when there are no rows, which need no grid.
    """
    n_rows = len(j_arr)
    if n_rows == 0:
        return np.zeros((0, regions.m)), 0, 0.0
    edges = regions.edge_radii()
    active = _active_intervals(regions, n)
    intervals = [(lo, hi) for _, lo, hi, _, _ in active]
    weight = None
    if s is not None:
        def weight(i, x):
            k, _, _, a, _ = active[i]
            return np.expm1(s[k] * regions.statistic(k, a, x))

    def make(splits):
        x, w = _full_grid(pot, n, edges, splits)
        log_total, shares = _interval_shares(pot, n, j_arr, x, w, intervals, weight)
        pi = np.zeros((n_rows, regions.m))
        for (k, _, _, a, b), share in zip(active, shares.T):
            on = (j_arr >= a) & (j_arr <= b)
            pi[on, k] = share[on]
        return np.concatenate((log_total, pi.ravel()))

    flat, splits, gap = _converged_rows(make, cfg)
    pi = flat[n_rows:].reshape(n_rows, regions.m)
    return (np.clip(pi, 0.0, 1.0) if s is None else pi), splits, gap


@dataclass(frozen=True)
class LandingMatrix:
    """π on the kept indices: pi[i, k] = P(modulus rows[i] lands in region
    k). Every other index lands in some region with total probability (summed
    over those indices) at most ``bound``. π converged on the full grid with
    ``splits`` splits per panel and ``nodes`` Gauss-Legendre nodes, where its
    last refinement moved it (and the row log totals) by ``gap``."""

    rows: np.ndarray
    pi: np.ndarray
    bound: float
    splits: int
    nodes: int
    gap: float

    def spans(self) -> Tuple[Tuple[int, int], ...]:
        """The kept indices as inclusive runs (first, last)."""
        if self.rows.size == 0:
            return ()
        cut = np.flatnonzero(np.diff(self.rows) > 1)
        firsts = np.concatenate((self.rows[:1], self.rows[cut + 1]))
        lasts = np.concatenate((self.rows[cut], self.rows[-1:]))
        return tuple((int(a), int(b)) for a, b in zip(firsts, lasts))


def _active_intervals(regions: RegionSet, n: int):
    """(k, lo, hi, a, b) per atom of entry k with extent (lo, hi), counted
    at the indices a..b; a split entry's ``below`` atom is active on
    [0, m0 − 1] and its ``above`` atom on [m0, n − 1]. Atoms with no active
    index are left out."""
    out = []
    for k, atom, side in regions.atoms:
        m0 = min(max(regions.entries[k].m0, 0), n) if side else 0
        a, b = (0, m0 - 1) if side == "below" else (m0, n - 1)
        if a <= b:
            out.append((k, *_extent(atom), a, b))
    return out


class _TailSearch:
    """One side of an interval active on [a, b]: the farthest index
    ``good`` from ``origin`` whose product |j − origin|·P_j(tail) stays
    within the share, where ``tail`` is the interval r > cut (``upper``,
    origin a) or r < cut (origin b). ``bad`` is the nearest index known to
    fail."""

    def __init__(self, upper: bool, cut: float, a: int, b: int) -> None:
        self.tail = (cut, math.inf) if upper else (0.0, cut)
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
    are the union of the [j_lo, j_hi], and B sums the products. Smooth
    entries are localized on their atoms the same way; a shoulder's atom is
    a half-line, like a split hard region's.
    """
    plan = [
        (
            a,
            b,
            _TailSearch(True, lo, a, b) if lo > 0.0 else None,
            _TailSearch(False, hi, a, b) if hi < pot.r_max else None,
        )
        for _, lo, hi, a, b in _active_intervals(regions, n)
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
        probs = _interval_shares(pot, n, js, x, w, [t.tail for t in open_])[1]
        for i, (t, cand) in enumerate(zip(open_, cands)):
            prob = probs[np.searchsorted(js, cand), i]
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
    pi, splits, gap = _region_prob_matrix(pot, n, regions, cfg, rows)
    nodes = _full_grid(pot, n, regions.edge_radii(), splits)[0].size if splits else 0
    rows.flags.writeable = False
    pi.flags.writeable = False
    return LandingMatrix(rows, pi, bound, splits, nodes, gap)


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
    return _region_prob_matrix(pot, n, regions, cfg, np.asarray([j]))[0][0]


# tail mass the DP's auto caps may clip from the count law
_LAW_TAIL_TOL = 1e-12


def exact_count_law(
    pot: RadialPotential,
    n: int,
    regions: RegionSet,
    cap=None,
    cfg: QuadratureConfig = QuadratureConfig(),
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
    return dp_count_law(lm.pi, _LAW_TAIL_TOL, cap, scale=1.0 - lm.bound)


# ------------------------------------------------------------------ sampling


@dataclass(frozen=True)
class ModuliSample:
    """radii[..., j] is modulus j. law_truncation is 0.0: each modulus is
    drawn from its law on the full-range grid that the log norms and π
    read, so no window cuts mass from the sampled law."""

    n: int
    radii: np.ndarray
    seed: int
    law_truncation: float


# equal cells each panel of the converged full grid is cut into
_CELL_PARTS = 8
# elements the sampler's n × cells mass table may hold: 256 MB of float64
_TABLE_ELEMENTS = 1 << 25


def _check_table_size(n: int, cells: int) -> None:
    if n * cells > _TABLE_ELEMENTS:
        raise QuadratureError(
            f"sampler table too large at n={n}: {cells:,} cells per index need "
            f"{n * cells:,} elements, above the limit of {_TABLE_ELEMENTS:,}"
        )


@dataclass(frozen=True)
class _CellTable:
    """Cell i is [edges[i], edges[i + 1]] for every index; ``mass[j]``
    holds the cells' masses of w·e^(phi_j − phi_max[j]) for index j."""

    edges: np.ndarray
    mass: np.ndarray
    phi_max: np.ndarray


@per_potential_cache(maxsize=4)
def _cell_table(pot: RadialPotential, n: int, cfg: QuadratureConfig) -> _CellTable:
    """The sampler's cells: the panels of the full grid at the splits where
    the log norms of all n indices converged, each cut into _CELL_PARTS
    equal cells, with the 32-point Gauss-Legendre masses that π sums, read
    off the density one block of rows at a time (``_density_blocks``).
    Each block is formed on its live band of cells only; the cells outside
    it hold exactly the 0.0 that the whole row's density would give them.
    Raises QuadratureError when the table would exceed _TABLE_ELEMENTS,
    checked before the log norm pass at one split (cells only grow with
    the splits) and again at the converged splits."""
    _check_table_size(n, _grid_panels(pot, n, (), 1)[0].size * _CELL_PARTS)
    splits = _log_norm_rows_full(pot, n, tuple(range(n)), cfg)[1]
    lo, hi = _subdivide(*_grid_panels(pot, n, (), splits), _CELL_PARTS)
    _check_table_size(n, lo.size)
    # the cells tile the grid: each one starts where the one before ends
    edges = np.append(lo, hi[-1])
    x, half = _gl_panels(lo, hi, _GL32)
    x, w = x.ravel(), (half[:, None] * _GL32[1]).ravel()
    k = _GL32[0].size
    mass = np.zeros((n, lo.size))
    phi_max = np.empty(n)
    for part, top, cols, dens in _density_blocks(pot, n, np.arange(n, dtype=float), x, w, k):
        phi_max[part] = top
        mass[part, cols.start // k : cols.stop // k] = dens.reshape(top.size, -1, k).sum(axis=2)
    for arr in (edges, mass, phi_max):
        arr.flags.writeable = False
    return _CellTable(edges, mass, phi_max)


_CDF_TOL = 1e-10  # inverse-CDF residual gate, as a share of the row's mass
_NEWTON_STEPS = 8
_BISECTIONS = 60


def _invert_cdf(pot, n, j, table: _CellTable, targets):
    """Solve F(x) = target (a share of modulus j's mass) per draw, vectorized.

    A draw picks its cell by binary search on the cumulative cell masses
    and starts where the quadratic CDF through the cell's mass and its two
    end densities reaches the target. Each pass evaluates the residual
    F(x) − target only at the draws still above the gate; a draw that
    passes leaves with that point, or with its Newton polish when the
    polished residual, checked over the step, is smaller. The others take
    a Newton step, or the bracket midpoint when the step leaves the
    bracket, and after 8 steps are bisected. A draw still above the gate
    after 60 bisections raises QuadratureError.
    """
    cell_mass, phi_max = table.mass[j], table.phi_max[j]
    cdf = np.cumsum(cell_mass)
    total = cdf[-1]
    tol = _CDF_TOL * total
    u = targets * total
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(cell_mass) - 1)
    lo = table.edges[idx]
    blo, bhi = lo.copy(), table.edges[idx + 1]
    want = u - np.where(idx > 0, cdf[idx - 1], 0.0)  # mass to accumulate inside the cell

    # einsum, not BLAS @: a row's @ result can depend on the rows in the
    # call, and a draw's radius must not depend on reps
    def seg_mass(a, b, rule):
        nodes, half = _gl_panels(a, b, rule)
        e = np.exp(_log_weight(pot, n, j, nodes) - phi_max)
        return np.einsum("ij,j->i", e, rule[1]) * half

    def dens(x):
        return np.maximum(np.exp(_log_weight(pot, n, j, x) - phi_max), 1e-300)

    # the density linear between the end densities fa, fb, scaled to the
    # cell's mass, accumulates the share rho at the root t of
    # (fb − fa) t²/2 + fa t = rho (fa + fb)/2, taken in its stable form
    # (hypot keeps tiny densities from underflowing; dens > 0 keeps root > 0)
    rho = np.clip(want / np.maximum(cell_mass[idx], 1e-300), 0.0, 1.0)
    fa, fb = dens(lo), dens(bhi)
    root = fa + np.hypot(fa * np.sqrt(1.0 - rho), fb * np.sqrt(rho))
    x = lo + (bhi - lo) * (rho * (fa + fb) / root)

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
        f"{float(np.abs(resid).max() / total):.2e} of the row mass, above "
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

    Inverse CDF per index on the full-range grid that the log norms and π
    converge on: its panels at the converged splits, cut into 8 cells
    each, carry 32-point Gauss-Legendre cell masses, tabulated once per
    (potential, n, cfg). A draw picks its cell by binary search and starts
    from the quadratic CDF through the cell's mass and end densities.
    Within the cell, bracketed Newton runs on the active set: each pass
    evaluates only the draws whose cumulative-probability residual is
    still above 1e-10 of the row's mass, and a draw leaves with a point
    whose residual was checked. Draws Newton cannot finish in 8 steps are
    bisected; one still above the gate after that raises QuadratureError.
    Randomness is one substream per index j, so results are reproducible
    and independent of reps batching. The sampled law is the grid law of
    every other engine quantity, with no window cut, so law_truncation is
    0.0. Requires n >= 2 and reps × n within _TABLE_ELEMENTS. An index's
    draws are inverted a chunk at a time, so its draws × 8-node arrays hold
    at most _BLOCK_ELEMENTS elements; the draws are independent, so the
    chunking changes no radius.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if reps * n > _TABLE_ELEMENTS:
        raise ValueError(
            f"reps={reps} draws of n={n} moduli need {reps * n:,} radii, above "
            f"the limit of {_TABLE_ELEMENTS:,}"
        )
    radii = np.empty((reps, n))
    table = _cell_table(pot, n, cfg)
    chunk = max(1, _BLOCK_ELEMENTS // _GL8[0].size)
    for j in range(n):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,)))
        )
        u = rng.random(reps)
        for first in range(0, reps, chunk):
            part = slice(first, first + chunk)
            radii[part, j] = _invert_cdf(pot, n, j, table, u[part])
    out = radii[0] if reps == 1 else radii
    return ModuliSample(n=n, radii=out, seed=int(seed), law_truncation=0.0)


def moduli_to_csv(sample: ModuliSample, path: str) -> None:
    """Write the draws as RFC-4180 CSV with columns j, r."""
    radii = np.atleast_2d(sample.radii)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["j", "r"])
        for row in radii:
            for j, r in enumerate(row):
                writer.writerow([j, f"{r:.17g}"])
