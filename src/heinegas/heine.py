"""Multi-dimensional Heine counting law: exact pmf, moments, sampling, convolution.

The law is the joint distribution of occupation counts

    X_k = #{ j >= 0 : Y_j = k },    k = 1, ..., m,

for independent site variables Y_j in {0, 1, ..., m} with

    P(Y_j = k) = theta_k q_k^j / (1 + sum_l theta_l q_l^j)   for k >= 1,
    P(Y_j = 0) = 1 / (1 + sum_l theta_l q_l^j).

Because every q_k < 1 the counts are finite almost surely, and every routine
below truncates the infinite site product with an explicit geometric tail
bound, so all reported probabilities carry a certified error budget.

Conventions used throughout:

- ``CountLaw.table`` is a dense float64 array over the box
  [0, cap_1] x ... x [0, cap_m]; its cells are pointwise *lower* bounds of
  the true pmf, and cells below ``_CELL_FLOOR`` are stored as 0. The
  omitted mass (site truncation, per-coordinate cap overflow, dropped
  subnormal cells) is accounted for in ``mass_deficit``, so that
  sum(table) + mass_deficit == 1 up to one floating rounding.
  ``entries``, ``iter_entries`` and the JSON form are derived from the
  nonzero cells in lexicographic (C) order.
- coordinates are 0-based in code (coordinate k of the formulas above is
  index k-1 of ``thetas``/``qs`` and of count vectors).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "HeineParams",
    "SiteDistribution",
    "CountLaw",
    "CoordinateMap",
    "HeineSample",
    "validate_params",
    "site_probabilities",
    "truncation_site_count",
    "poisson_binomial_dp",
    "marginal_cap",
    "dp_count_law",
    "pmf_table",
    "pmf_point",
    "mgf",
    "mean_vector",
    "variance_vector",
    "covariance",
    "covariance_matrix",
    "sample",
    "convolve_mapped",
    "tv_distance",
]

# cells below this are dropped into the deficit to avoid denormal pollution
_CELL_FLOOR = 1e-300


# ---------------------------------------------------------------- parameters


@dataclass(frozen=True)
class HeineParams:
    """Validated parameter vectors (theta_k > 0, q_k in (0,1), equal length)."""

    thetas: Tuple[float, ...]
    qs: Tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.thetas)


def validate_params(thetas: Sequence[float], qs: Sequence[float]) -> HeineParams:
    """Validate and freeze parameter vectors; raises ValueError, never clamps."""
    th = tuple(float(t) for t in thetas)
    q = tuple(float(v) for v in qs)
    if len(th) == 0 or len(q) == 0:
        raise ValueError("parameter vectors must be nonempty")
    if len(th) != len(q):
        raise ValueError("theta and q length mismatch")
    for t in th:
        if not math.isfinite(t):
            raise ValueError("non-finite theta")
        if t <= 0.0:
            raise ValueError("theta out of range (must be > 0)")
    for v in q:
        if not math.isfinite(v):
            raise ValueError("non-finite q")
        if not 0.0 < v < 1.0:
            raise ValueError("q out of range (must lie strictly inside (0, 1))")
    return HeineParams(th, q)


@dataclass(frozen=True)
class SiteDistribution:
    """Categorical law of one site variable Y_j; probs = (p_{j,0}, ..., p_{j,m})."""

    j: int
    probs: Tuple[float, ...]


def site_probabilities(params: HeineParams, j: int) -> SiteDistribution:
    """Exact categorical distribution of Y_j."""
    if j < 0:
        raise ValueError("site index must be nonnegative")
    x = [t * v**j for t, v in zip(params.thetas, params.qs)]
    denom = 1.0 + math.fsum(x)
    probs = (1.0 / denom,) + tuple(xi / denom for xi in x)
    return SiteDistribution(j, probs)


def _site_success_matrix(params: HeineParams, n_sites: int) -> np.ndarray:
    """Rows j = 0..n_sites-1 of conditional success probabilities (p_{j,1..m})."""
    if n_sites <= 0:
        return np.zeros((0, params.m))
    j = np.arange(n_sites)[:, None]
    x = np.asarray(params.thetas) * np.asarray(params.qs) ** j
    return x / (1.0 + x.sum(axis=1, keepdims=True))


def truncation_site_count(params: HeineParams, tail_tol: float) -> int:
    """Smallest J with sum_k theta_k q_k^{J+1}/(1-q_k) <= tail_tol.

    This bounds P(Y_j != 0 for some j > J). Returns -1 when even the empty
    site range satisfies the bound. The budget is split evenly over
    coordinates, which can overshoot by at most a factor m.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    per = tail_tol / params.m
    best = -1
    for t, q in zip(params.thetas, params.qs):
        e = 0
        # q^e <= per (1-q)/theta, solved in logs then tightened
        rhs = per * (1.0 - q) / t
        if rhs < 1.0:
            e = max(0, math.ceil(math.log(rhs) / math.log(q)))
        while t * q**e / (1.0 - q) > per:
            e += 1
        best = max(best, e - 1)
    return best


def _tail_bound(params: HeineParams, j_from: int) -> float:
    """Upper bound on sum_{j >= j_from} sum_k theta_k q_k^j."""
    return math.fsum(
        t * q**j_from / (1.0 - q) for t, q in zip(params.thetas, params.qs)
    )


def _log_zero_run(params: HeineParams, j_from: int) -> float:
    """log prod_{j >= j_from} p_{j,0} = -sum log(1 + S_j), S_j = sum_k theta_k q_k^j."""
    acc = 0.0
    j = j_from
    qs = np.asarray(params.qs)
    th = np.asarray(params.thetas)
    s = float((th * qs**j).sum()) if j >= 0 else math.inf
    while s > 1e-20:
        acc -= math.log1p(s)
        j += 1
        s = float((th * qs**j).sum())
    # closing bound for the remaining sites
    acc -= _tail_bound(params, j)
    return acc


# ----------------------------------------------------------------- count law


class CountLaw:
    """Finite truncation of a law on count vectors with certified deficit.

    ``table`` is a dense float64 array with cap[k] + 1 cells along axis k;
    table[alpha] is a pointwise lower bound of P(X = alpha), and cells below
    ``_CELL_FLOOR`` are stored as 0. ``mass_deficit`` bounds everything
    omitted; when it is not given it is the unstored mass 1 - sum(table).
    Instead of ``table`` the constructor accepts ``cap`` and an
    ``{alpha: p}`` dict of entries.
    """

    __slots__ = ("table", "mass_deficit")

    def __init__(
        self, m=None, entries=None, mass_deficit=None, cap=None, *, table=None
    ) -> None:
        if table is None:
            if entries is None or cap is None:
                raise ValueError("a count law needs a table, or entries and cap")
            table = _dense(list(entries), list(entries.values()), cap)
        table = np.asarray(table, dtype=float)
        table = np.where(table >= _CELL_FLOOR, table, 0.0)
        table.flags.writeable = False
        self.table = table
        if m not in (None, self.m) or (cap is not None and tuple(cap) != self.cap):
            raise ValueError("m and cap must match the table shape")
        mass = self.total_mass
        self.mass_deficit = float(
            max(0.0, 1.0 - mass) if mass_deficit is None else mass_deficit
        )
        if self.mass_deficit < -1e-12:
            raise ValueError("negative mass deficit")
        total = mass + self.mass_deficit
        if not 1.0 - 1e-12 <= total <= 1.0 + 1e-12:
            raise ValueError(f"mass + deficit = {total} is not 1 within 1e-12")

    @property
    def m(self) -> int:
        return self.table.ndim

    @property
    def cap(self) -> Tuple[int, ...]:
        return tuple(s - 1 for s in self.table.shape)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.table.ravel().tolist())

    def _support(self) -> Tuple[list, list]:
        """Count vectors and probabilities of the stored cells, in C order."""
        stored = self.table != 0.0
        return np.argwhere(stored).tolist(), self.table[stored].tolist()

    @property
    def entries(self) -> Dict[Tuple[int, ...], float]:
        """The stored cells as a fresh {alpha: p} dict."""
        return dict(self.iter_entries())

    def iter_entries(self) -> Iterator[Tuple[Tuple[int, ...], float]]:
        """Stored cells in lexicographic order of the count vector."""
        alphas, ps = self._support()
        return zip(map(tuple, alphas), ps)

    def pmf(self, alpha: Sequence[int]) -> float:
        a = tuple(int(v) for v in alpha)
        if len(a) != self.m or not all(0 <= v <= c for v, c in zip(a, self.cap)):
            return 0.0
        return float(self.table[a])

    # -- moments of the stored (lower-bound) table ---------------------------
    def _counts(self) -> list:
        """Per coordinate, the count values shaped to broadcast on the table."""
        return [
            np.arange(c + 1.0).reshape((-1,) + (1,) * (self.m - 1 - k))
            for k, c in enumerate(self.cap)
        ]

    def mean(self) -> np.ndarray:
        return np.array([(self.table * x).sum() for x in self._counts()], dtype=float)

    def second_moment_matrix(self) -> np.ndarray:
        xs = self._counts()
        out = [[(self.table * x * y).sum() for y in xs] for x in xs]
        return np.array(out, dtype=float).reshape(self.m, self.m)

    def covariance_matrix(self) -> np.ndarray:
        mu = self.mean()
        return self.second_moment_matrix() - np.outer(mu, mu)

    def variance(self) -> np.ndarray:
        return np.diag(self.covariance_matrix()).copy()

    def mgf(self, s: Sequence[float]) -> float:
        sv = np.asarray(s, dtype=float)
        if sv.shape != (self.m,):
            raise ValueError("s length must equal m")
        exponent = sum((sk * x for sk, x in zip(sv, self._counts())), np.zeros(()))
        return float((self.table * np.exp(exponent)).sum())

    def marginal(self, k: int) -> np.ndarray:
        """Lower-bound marginal pmf of coordinate k as an array of length cap[k]+1."""
        return self.table.sum(axis=tuple(i for i in range(self.m) if i != k))

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        alphas, ps = self._support()
        return {
            "m": self.m,
            "entries": [{"alpha": a, "p": p} for a, p in zip(alphas, ps)],
            "mass_deficit": self.mass_deficit,
            "cap": list(self.cap),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountLaw":
        items = data["entries"]
        table = _dense(
            [item["alpha"] for item in items],
            [float(item["p"]) for item in items],
            [int(c) for c in data["cap"]],
        )
        return cls(
            m=int(data["m"]), mass_deficit=float(data["mass_deficit"]), table=table
        )

    @classmethod
    def from_json(cls, text: str) -> "CountLaw":
        return cls.from_json_dict(json.loads(text))


def _dense(alphas: list, ps: list, cap: Sequence[int]) -> np.ndarray:
    """Table of shape cap + 1 holding ps[i] at count vector alphas[i]; raises
    ValueError for a count vector of the wrong length or outside the caps."""
    table = np.zeros(tuple(int(c) + 1 for c in cap))
    idx = np.asarray(alphas, dtype=np.intp).reshape(len(ps), table.ndim)
    np.put(table, np.ravel_multi_index(tuple(idx.T), table.shape), ps)
    return table


# --------------------------------------------------- multivariate Bernoulli DP


def poisson_binomial_dp(
    rows: Iterable[Sequence[float]], caps: Sequence[int]
) -> Tuple[np.ndarray, float]:
    """Joint law of category counts over independent categorical sites.

    Each row holds the per-site success probabilities (p_1, ..., p_m); the
    remaining mass is category 0 and counts toward nothing. Counts are
    clipped at ``caps``; clipped mass accumulates in the returned overflow
    scalar, which is exact because counts never decrease.
    """
    caps = tuple(int(c) for c in caps)
    m = len(caps)
    table = np.zeros(tuple(c + 1 for c in caps))
    table[(0,) * m] = 1.0
    overflow = 0.0
    for row in rows:
        r = np.asarray(row, dtype=float)
        p0 = 1.0 - float(r.sum())
        new = table * max(p0, 0.0)
        for k in range(m):
            pk = float(r[k])
            if pk <= 0.0:
                continue
            # views with coordinate k first: shift up by one, spill the top
            src, dst = np.moveaxis(table, k, 0), np.moveaxis(new, k, 0)
            dst[1:] += src[:-1] * pk
            overflow += float(src[-1].sum()) * pk
        table = new
    return table, overflow


def marginal_cap(success_probs: Sequence[float], tail_target: float) -> int:
    """Smallest cap c with P(Bernoulli-sum > c) <= tail_target, by 1-D DP."""
    p = np.asarray(success_probs, dtype=float)
    b = np.zeros(len(p) + 1)
    b[0] = 1.0
    for pj in p:
        nb = b * (1.0 - pj)
        nb[1:] += b[:-1] * pj
        b = nb
    suffix = np.cumsum(b[::-1])[::-1]
    # suffix[c+1] = P(X > c); find the first admissible cap
    for c in range(len(b)):
        above = suffix[c + 1] if c + 1 < len(b) else 0.0
        if above <= tail_target:
            return c
    return len(p)


def dp_count_law(
    rows: np.ndarray,
    tail_tol: float,
    caps: Optional[Sequence[int]] = None,
    scale: float = 1.0,
    max_cells: int = 4_000_000,
) -> CountLaw:
    """Count law of independent categorical sites from their success rows.

    ``rows`` is a (sites, m) array of per-site success probabilities. When
    ``caps`` is None each coordinate is capped at its marginal quantile
    with tail 0.45 tail_tol / m. The DP table is multiplied by ``scale`` (a
    factor common to every cell, such as the probability that omitted sites
    stay empty); the deficit is the mass the law does not store. Raises
    ValueError when the capped table would exceed ``max_cells`` cells.
    """
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[1]
    if caps is None:
        per = 0.45 * tail_tol / m
        caps = tuple(marginal_cap(rows[:, k], per) for k in range(m))
    else:
        caps = tuple(int(c) for c in caps)
    cells = math.prod(c + 1 for c in caps)
    if cells > max_cells:
        raise ValueError(
            f"table would hold {cells} cells (budget {max_cells}); "
            "raise tail_tol or pass smaller caps"
        )
    table, _overflow = poisson_binomial_dp(rows, caps)
    return CountLaw(table=table * scale)


# ------------------------------------------------------------------ pmf table


def pmf_table(
    params: HeineParams,
    tail_tol: float = 1e-12,
    max_entries: int = 4_000_000,
    caps: Optional[Sequence[int]] = None,
) -> CountLaw:
    """Joint pmf by dynamic programming over sites, with certified deficit.

    Sites 0..J_max are folded in exactly; the remaining sites contribute the
    factor prod_{j>J_max} p_{j,0} applied to every entry, so entries are
    pointwise lower bounds and mass_deficit <= tail_tol. Raises ValueError
    when the capped table would exceed ``max_entries`` cells.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    # split the budget: 45% site truncation, 45% cap overflow, rest fp margin
    j_max = truncation_site_count(params, 0.45 * tail_tol)
    rows = _site_success_matrix(params, j_max + 1)
    c_tail = math.exp(_log_zero_run(params, j_max + 1))
    return dp_count_law(rows, tail_tol, caps, scale=c_tail, max_cells=max_entries)


# ------------------------------------------------------------------ pmf point


def pmf_point(
    params: HeineParams,
    alpha: Sequence[int],
    term_budget: int = 500_000,
) -> float:
    """Point mass P(X = alpha) from the defining sum over disjoint site sets.

    The numerator sum over all families of disjoint site sets with
    |J_k| = alpha_k is evaluated exactly by the shift recursion

        T(a) (1 - prod_k q_k^{a_k}) = sum_k (prod_k q_k^{a_k})/q_k T(a - e_k),

    with T(0) = 1, over the lattice below alpha. Only the normalizing
    product over sites is truncated: its sites are summed until their
    weight falls below 1e-20 and the rest are bounded by a geometric tail.
    Raises ValueError when prod(alpha_k + 1) exceeds ``term_budget``.
    """
    a = tuple(int(v) for v in alpha)
    if len(a) != params.m or any(v < 0 for v in a):
        raise ValueError("alpha must be a nonnegative multi-index of length m")
    cells = math.prod(v + 1 for v in a)
    if cells > term_budget:
        raise ValueError(
            f"enumeration lattice holds {cells} nodes (budget {term_budget}); "
            "fall back to pmf_table"
        )
    log_z = -_log_zero_run(params, 0)

    lnq = np.log(np.asarray(params.qs))
    shape = tuple(v + 1 for v in a)
    t_tab = np.zeros(shape)
    t_tab[(0,) * params.m] = 1.0
    for idx in np.ndindex(*shape):
        if all(v == 0 for v in idx):
            continue
        lw = float(np.asarray(idx) @ lnq)
        w = math.exp(lw)
        denom = -math.expm1(lw)  # 1 - prod q^idx, accurately
        acc = 0.0
        for k, v in enumerate(idx):
            if v == 0:
                continue
            prev = idx[:k] + (v - 1,) + idx[k + 1 :]
            acc += (w / params.qs[k]) * float(t_tab[prev])
        t_tab[idx] = acc / denom
    log_theta = math.fsum(v * math.log(t) for v, t in zip(a, params.thetas))
    t_val = float(t_tab[a])
    if t_val <= 0.0:
        return 0.0
    return math.exp(log_theta + math.log(t_val) - log_z)


# ------------------------------------------------------------------------ mgf


def mgf(params: HeineParams, s: Sequence[float]) -> float:
    """Moment generating function E[exp(<s, X>)], computed in log space.

    Truncates the site product once the remaining log-tail is below 1e-14.
    Rejects s_k > 700 (the exponential would overflow); arbitrarily negative
    s is fine.
    """
    sv = np.asarray(s, dtype=float)
    if sv.shape != (params.m,):
        raise ValueError("s length must equal m")
    if not np.all(np.isfinite(sv)):
        raise ValueError("s must be finite")
    if np.any(sv > 700.0):
        raise ValueError("s out of range (overflow guard: require s_k <= 700)")
    th = np.asarray(params.thetas)
    q = np.asarray(params.qs)
    es = np.exp(sv)
    coeff = np.abs(es - 1.0) * th / (1.0 - q)
    log_acc = 0.0
    qpow = np.ones_like(q)
    j = 0
    while True:
        x = th * qpow
        log_acc += math.log1p(float((es * x).sum())) - math.log1p(float(x.sum()))
        qpow = qpow * q
        j += 1
        if float((coeff * qpow).sum()) < 1e-14:
            break
        if j > 10_000_000:
            raise RuntimeError("mgf site loop failed to converge")
    return math.exp(log_acc)


# -------------------------------------------------------------------- moments


def _moment_site_matrix(params: HeineParams, tol: float = 1e-14) -> np.ndarray:
    j_max = truncation_site_count(params, tol)
    return _site_success_matrix(params, j_max + 1)


def mean_vector(params: HeineParams) -> np.ndarray:
    """E[X_k] = sum_j p_{j,k}, summed until the tail is below 1e-14."""
    return _moment_site_matrix(params).sum(axis=0)


def variance_vector(params: HeineParams) -> np.ndarray:
    """Var[X_k] = sum_j p_{j,k}(1 - p_{j,k})."""
    p = _moment_site_matrix(params)
    return (p * (1.0 - p)).sum(axis=0)


def covariance(params: HeineParams, p: int, q: int) -> float:
    """Cov(X_p, X_q) = -sum_j p_{j,p} p_{j,q} for p != q; strictly negative."""
    if p == q:
        raise ValueError("covariance requires two distinct coordinates")
    mat = _moment_site_matrix(params)
    return -float((mat[:, p] * mat[:, q]).sum())


def covariance_matrix(params: HeineParams) -> np.ndarray:
    """Full covariance matrix (diagonal = variances, off-diagonal negative)."""
    p = _moment_site_matrix(params)
    cov = -(p.T @ p)
    np.fill_diagonal(cov, (p * (1.0 - p)).sum(axis=0))
    return cov


# ------------------------------------------------------------------- sampling


@dataclass(frozen=True)
class HeineSample:
    """counts[i] is the i-th sampled count vector; metadata records the
    simulated site range and the total-variation error of the truncation."""

    counts: np.ndarray
    site_count: int
    tv_error_bound: float
    seed: int


def sample(
    params: HeineParams, count: int, seed: int, tail_tol: float = 1e-12
) -> HeineSample:
    """Draw ``count`` independent count vectors.

    Sites beyond the pmf_table truncation J_max are frozen at category 0,
    which couples the sampler to the tabulated law within tail_tol total
    variation (the bound is recorded in the result). Randomness comes from
    one substream per site, SeedSequence(seed, spawn_key=(j,)), so output is
    bitwise reproducible for a fixed seed regardless of batching.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    j_max = truncation_site_count(params, tail_tol / 2.0)
    rows = _site_success_matrix(params, j_max + 1)
    counts = np.zeros((count, params.m), dtype=np.int64)
    for j in range(j_max + 1):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,)))
        )
        u = rng.random(count)
        p0 = 1.0 - rows[j].sum()
        edges = p0 + np.concatenate(([0.0], np.cumsum(rows[j])))[:-1]
        # category = number of edges below u: 0 means Y_j = 0
        cat = np.searchsorted(edges, u, side="right")
        for k in range(params.m):
            counts[:, k] += cat == k + 1
    return HeineSample(
        counts=counts,
        site_count=j_max + 1,
        tv_error_bound=_tail_bound(params, j_max + 1),
        seed=int(seed),
    )


# --------------------------------------------------------- mapped convolution


@dataclass(frozen=True)
class CoordinateMap:
    """How two count vectors add into a combined one.

    a_to[i] (resp. b_to[i]) is the target coordinate receiving coordinate i
    of the first (resp. second) law. The coordinates of one law go to
    distinct targets, and every target must receive at least one source
    coordinate.
    """

    source_a: int
    source_b: int
    target: int
    a_to: Tuple[int, ...]
    b_to: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a_to) != self.source_a or len(self.b_to) != self.source_b:
            raise ValueError("assignment lengths must match source arities")
        if len(set(self.a_to)) < self.source_a or len(set(self.b_to)) < self.source_b:
            raise ValueError("the coordinates of one law must go to distinct targets")
        hit = set(self.a_to) | set(self.b_to)
        if any(not 0 <= t < self.target for t in hit):
            raise ValueError("assignment targets out of range")
        if hit != set(range(self.target)):
            raise ValueError("every target coordinate must receive a source")


def identity_map(m: int) -> CoordinateMap:
    ids = tuple(range(m))
    return CoordinateMap(m, m, m, ids, ids)


def _mapped(law: CountLaw, to: Tuple[int, ...], target: int) -> np.ndarray:
    """The law's table with coordinate i on axis to[i]; other axes have size 1."""
    table = law.table.reshape(law.table.shape + (1,) * (target - law.m))
    return np.moveaxis(table, range(law.m), to)


def convolve_mapped(a: CountLaw, b: CountLaw, cmap: CoordinateMap) -> CountLaw:
    """Law of the coordinate-mapped sum of independent vectors a and b.

    Output deficit is at most deficit(a) + deficit(b); means add (after
    mapping) exactly up to floating rounding.
    """
    if a.m != cmap.source_a or b.m != cmap.source_b:
        raise ValueError("law arities do not match the coordinate map")
    da = _mapped(a, cmap.a_to, cmap.target)
    db = _mapped(b, cmap.b_to, cmap.target)
    # drive the shift-add with the smaller support
    if np.count_nonzero(b.table) > np.count_nonzero(a.table):
        da, db = db, da
    out = np.zeros(tuple(sa + sb - 1 for sa, sb in zip(da.shape, db.shape)))
    stored = db != 0.0
    for idx, p in zip(np.argwhere(stored).tolist(), db[stored].tolist()):
        out[tuple(slice(o, o + s) for o, s in zip(idx, da.shape))] += da * p
    return CountLaw(table=out)


# ------------------------------------------------------------------- distance


def _padded(table: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    out = np.zeros(shape)
    out[tuple(slice(0, s) for s in table.shape)] = table
    return out


def tv_distance(a: CountLaw, b: CountLaw) -> Tuple[float, float]:
    """Interval bracketing the total-variation distance between two laws.

    The point estimate is half the l1 distance between the tables, padded
    with zeros to a common shape; the unseen mass (at most each law's
    deficit, located anywhere) widens it by (deficit_a + deficit_b)/2 on
    both sides.
    """
    if a.m != b.m:
        raise ValueError("laws must share the coordinate count")
    shape = tuple(max(x, y) for x, y in zip(a.table.shape, b.table.shape))
    diff = _padded(a.table, shape) - _padded(b.table, shape)
    t0 = 0.5 * math.fsum(np.abs(diff).ravel().tolist())
    w = 0.5 * (a.mass_deficit + b.mass_deficit)
    return (max(0.0, t0 - w), min(1.0, t0 + w))
