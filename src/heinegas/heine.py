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
  omitted mass (per-coordinate cap overflow, the closing bounds of
  infinite products, rounding, dropped subnormal cells) is accounted for
  in ``mass_deficit``, so that
  sum(table) + mass_deficit == 1 up to one floating rounding.
  ``entries``, ``iter_entries`` and the JSON form are derived from the
  nonzero cells in lexicographic (C) order.
- coordinates are 0-based in code (coordinate k of the formulas above is
  index k-1 of ``thetas``/``qs`` and of count vectors).
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import dataclass
from itertools import chain, compress, islice, product
from operator import itemgetter
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

# the shift recursion runs in long double; the rounding bound of its cells
# is stated in units of this type's roundoff (2^-64 on x86-64, where
# long double is the 80-bit format; float64's 2^-53 where it is not)
_LD = np.longdouble
_U_LD = float(np.finfo(_LD).eps) / 2.0
_U = 2.0**-53


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
    """Exact categorical distribution of Y_j, read off ``_site_law``."""
    if j < 0:
        raise ValueError("site index must be nonnegative")
    success, log_p0 = _site_law(params, j)
    return SiteDistribution(j, (math.exp(log_p0),) + tuple(success.tolist()))


def _log_site_weights(params: HeineParams, j) -> np.ndarray:
    """log(theta_k q_k^j) for site indices j, along a new last axis.

    Formed in logs: with theta_k near the float64 maximum, q_k^j underflows
    to 0 while theta_k q_k^j is still far above the smallest float."""
    j = np.asarray(j, dtype=float)[..., None]
    return np.log(params.thetas) + j * np.log(params.qs)


def _site_law(params: HeineParams, j) -> Tuple[np.ndarray, np.ndarray]:
    """(p_{j,1..m} along a new last axis, log p_{j,0}) for site indices j.

    Each site's weights are scaled by the largest of them (or 1) before
    they are summed, so sites whose weights sum past the float64 maximum
    stay finite, and p_{j,0} is formed in logs."""
    lx = _log_site_weights(params, j)
    top = np.maximum(lx.max(axis=-1, keepdims=True), 0.0)
    x = np.exp(lx - top)
    den = np.exp(-top) + x.sum(axis=-1, keepdims=True)
    return x / den, -(top + np.log(den))[..., 0]


def _site_success_matrix(params: HeineParams, n_sites: int) -> np.ndarray:
    """Rows j = 0..n_sites-1 of conditional success probabilities (p_{j,1..m})."""
    if n_sites <= 0:
        return np.zeros((0, params.m))
    return _site_law(params, np.arange(n_sites))[0]


def truncation_site_count(params: HeineParams, tail_tol: float) -> int:
    """Smallest J with sum_k theta_k q_k^{J+1}/(1-q_k) <= tail_tol.

    This bounds P(Y_j != 0 for some j > J). Returns -1 when even the empty
    site range satisfies the bound. The budget is split evenly over
    coordinates, which can overshoot by at most a factor m. The bound is
    compared in logs, so theta near the float64 maximum is counted right.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    log_per = math.log(tail_tol / params.m)
    best = -1
    for t, q in zip(params.thetas, params.qs):
        # log of theta q^e / (1 - q) <= log per, solved for e then tightened
        log_head = math.log(t) - math.log1p(-q)
        e = max(0, math.ceil((log_per - log_head) / math.log(q)))
        while log_head + e * math.log(q) > log_per:
            e += 1
        best = max(best, e - 1)
    return best


def _tail_bound(params: HeineParams, j_from: int) -> float:
    """Upper bound on sum_{j >= j_from} sum_k theta_k q_k^j."""
    terms = np.exp(_log_site_weights(params, j_from)) / (1.0 - np.asarray(params.qs))
    return math.fsum(terms.tolist())


def _log_zero_run(params: HeineParams) -> Tuple[np.longdouble, float]:
    """log prod_{j >= 0} p_{j,0} = -log Z, Z = prod_j (1 + S_j), S_j = sum_k theta_k q_k^j,
    and the closing bound it used.

    Sites are summed while S_j > 1e-20; the rest are bounded by their
    geometric tail (log1p(s) <= s), so the value is a lower bound of the
    true one. The terms log1p(S_j) are formed in long double, split into
    exact float pairs and summed by math.fsum; the result carries about
    (m + 5) long-double roundings relative to log Z.
    """
    th = np.asarray(params.thetas, dtype=_LD)
    qs = np.asarray(params.qs, dtype=_LD)
    # S_j <= 1e-20 once every theta_k q_k^j <= 1e-20 / m; S_j decreases in j
    floor = math.log(1e-20 / params.m)
    last = max(
        max(0, math.ceil((floor - math.log(t)) / math.log(q)))
        for t, q in zip(params.thetas, params.qs)
    )
    s = (th * qs ** np.arange(last + 2, dtype=_LD)[:, None]).sum(axis=1)
    sites = int(np.count_nonzero(s > 1e-20))
    terms = np.log1p(s[:sites])
    hi = terms.astype(float)
    parts = list(chain(hi.tolist(), (terms - hi).astype(float).tolist()))
    tail = _tail_bound(params, sites)
    head = math.fsum(parts + [tail])
    return -(_LD(head) + _LD(math.fsum(parts + [tail, -head]))), tail


# ----------------------------------------------------------------- count law


_FSUM_BLOCK = 65536


def _exact_sum(a: np.ndarray) -> float:
    """math.fsum of every element of ``a``, listed a block at a time: a list
    of every element would take four times the array."""
    flat = a.ravel()
    blocks = (flat[i : i + _FSUM_BLOCK].tolist() for i in range(0, flat.size, _FSUM_BLOCK))
    return math.fsum(chain.from_iterable(blocks))


class CountLaw:
    """Finite truncation of a law on count vectors with certified deficit.

    ``table`` is a dense float64 array with cap[k] + 1 cells along axis k;
    table[alpha] is a pointwise lower bound of P(X = alpha), and cells below
    ``_CELL_FLOOR`` are stored as 0. ``mass_deficit`` bounds everything
    omitted; when it is not given it is the unstored mass 1 - sum(table).
    Instead of ``table`` the constructor accepts ``m``, ``cap`` and an
    ``{alpha: p}`` dict of entries; it raises ValueError, naming the field,
    unless m is a nonnegative int and cap a list or tuple of m nonnegative
    ints.
    """

    __slots__ = ("table", "mass_deficit")

    def __init__(
        self, m=None, entries=None, mass_deficit=None, cap=None, *, table=None
    ) -> None:
        if table is None:
            if m is None or entries is None or cap is None:
                raise ValueError("a count law needs a table, or m, entries and cap")
            shape = _law_shape(m, cap)
            table = _dense(_ravel(list(entries), len(entries), shape), list(entries.values()), shape)
        elif not (m is None and entries is None and cap is None):
            raise ValueError("a count law takes a table, or m, entries and cap, not both")
        table = np.asarray(table, dtype=float)
        table = np.where(table >= _CELL_FLOOR, table, 0.0)
        table.flags.writeable = False
        self.table = table
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
        return _exact_sum(self.table)

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
    def to_json(self) -> str:
        """The law as JSON text, stored cells in lexicographic order.

        The text is json.dumps of {"m", "entries": [{"alpha", "p"}, ...],
        "mass_deficit", "cap"}, formed one block of _JSON_BLOCK_CELLS cells
        at a time without an object per cell: the count vectors walk the
        cells in C order as itertools.product of each axis's index strings,
        and p is float.__repr__, as json.dumps writes it. The block texts
        are joined once, at the end.
        """
        axes = [[f"{', ' if k else ''}{i}" for i in range(c + 1)] for k, c in enumerate(self.cap)]
        alphas = product(*axes)
        flat = self.table.ravel()
        # no separator before the first stored cell's block
        parts, sep = [f'{{"m": {self.m}, "entries": ['], ""
        for start in range(0, flat.size, _JSON_BLOCK_CELLS):
            block = flat[start : start + _JSON_BLOCK_CELLS]
            stored = block != 0.0
            cells = zip(
                compress(islice(alphas, block.size), stored.tolist()), block[stored].tolist()
            )
            text = ", ".join([f'{{"alpha": [{"".join(a)}], "p": {p!r}}}' for a, p in cells])
            if text:
                parts += (sep, text)
                sep = ", "
        parts.append(
            f'], "mass_deficit": {json.dumps(self.mass_deficit)}, '
            f'"cap": {json.dumps(list(self.cap))}}}'
        )
        return "".join(parts)

    def to_json_dict(self) -> dict:
        """The parsed ``to_json`` text."""
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountLaw":
        """The law a parsed JSON document describes. Raises ValueError for a
        missing field, an m that is not a nonnegative integer, a cap that is
        not a list of m nonnegative integers, a p or mass_deficit that is
        not a number, or a count vector that is not m integers within the
        caps or is listed twice."""
        return cls(**_law_fields(data))

    @classmethod
    def from_json(cls, text: str) -> "CountLaw":
        """The law a JSON text describes, as ``from_json_dict`` of its parse.

        Text in ``to_json``'s layout is parsed a block of entries at a
        time (``_blocked_fields``), so no more than one block of entries is
        ever held as Python objects. Any other text, and any text that
        block parse fails on, is parsed whole by json.loads; so every
        rejection comes from the whole-document path."""
        # A parsed document holds no cycles. With the cyclic collector
        # paused, its per-cell objects are freed by reference counting
        # before any collection has walked them.
        collecting = gc.isenabled()
        gc.disable()
        try:
            try:
                fields = _blocked_fields(text)
            except (ValueError, OverflowError):
                fields = None
            return cls(**(fields or _law_fields(json.loads(text))))
        finally:
            if collecting:
                gc.enable()


# the JSON writer formats, and the reader checks, at most this many cells
# at a time; the reader parses entries text this many characters at a time
_JSON_BLOCK_CELLS = 1 << 15
_JSON_BLOCK_CHARS = 1 << 18

_ENTRY_FIELDS = "every count law entry needs an 'alpha' list and a 'p'"

# the head and tail of to_json's layout, around its entries
_LAW_HEAD = re.compile(r'\{"m": [0-9]+, "entries": \[')
_LAW_TAIL = re.compile(r'\], "mass_deficit": [^,\[\]{}"]*, "cap": \[[0-9, ]*\]\}')


def _blocked_fields(text: str) -> Optional[dict]:
    """CountLaw keyword arguments from a JSON text in ``to_json``'s layout,
    or None for other text.

    The shell (head and tail, with the entries cut out) is parsed by
    json.loads. The entries are cut at the '}, {' after every
    _JSON_BLOCK_CHARS characters, and each block is parsed by json.loads as
    a list. A cut inside a string leaves that string open, so its block
    fails to parse; a parse that succeeds on every block is the parse of
    the whole text."""
    if not isinstance(text, str):
        return None
    head = _LAW_HEAD.match(text)
    tail = text.rfind('], "mass_deficit": ')
    if head is None or tail < head.end() or not _LAW_TAIL.fullmatch(text, tail):
        return None
    shell = json.loads(text[: head.end()] + text[tail:])
    return _law_fields(shell, _entry_blocks(text, head.end(), tail))


def _entry_blocks(text: str, start: int, stop: int) -> Iterator[list]:
    """The entries of text[start:stop] parsed one block at a time."""
    while start < stop:
        cut = text.find("}, {", min(start + _JSON_BLOCK_CHARS, stop), stop)
        end = stop if cut < 0 else cut + 1
        yield json.loads("[" + text[start:end] + "]")
        start = end + 2


def _law_shape(m, cap) -> Tuple[int, ...]:
    """The table shape, cap + 1, of a law with m coordinates; raises
    ValueError, naming the field, unless m is a nonnegative int and cap a
    list or tuple of m nonnegative ints (a bool is neither)."""
    if type(m) is not int or m < 0:
        raise ValueError("count law field 'm' must be a nonnegative integer")
    if (
        not isinstance(cap, (list, tuple))
        or len(cap) != m
        or any(type(c) is not int or c < 0 for c in cap)
    ):
        raise ValueError(f"count law field 'cap' must be a list of m = {m} nonnegative integers")
    return tuple(c + 1 for c in cap)


def _law_fields(data, blocks: Optional[Iterable[list]] = None) -> dict:
    """CountLaw keyword arguments (mass_deficit, table) from a parsed law
    document; raises ValueError for a malformed one.

    The entries are checked and placed a block at a time by
    ``_entry_block``: those of ``blocks`` (lists of parsed entries) when
    given, else _JSON_BLOCK_CELLS of data["entries"] at a time."""
    if not isinstance(data, dict):
        raise ValueError("a count law document must be a JSON object")
    for key in ("m", "entries", "mass_deficit", "cap"):
        if key not in data:
            raise ValueError(f"count law document lacks '{key}'")
    shape = _law_shape(data["m"], data["cap"])
    mass_deficit = data["mass_deficit"]
    if type(mass_deficit) not in (int, float):
        raise ValueError("p and mass_deficit must be numbers")
    if blocks is None:
        entries = data["entries"]
        if type(entries) is not list:
            raise ValueError(_ENTRY_FIELDS)
        step = _JSON_BLOCK_CELLS
        blocks = (entries[i : i + step] for i in range(0, len(entries), step))
    flats, ps = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for block in blocks:
        flat, p = _entry_block(block, shape)
        flats.append(flat)
        ps.append(p)
    table = _dense(np.concatenate(flats), np.concatenate(ps), shape)
    return {"mass_deficit": float(mass_deficit), "table": table}


def _entry_block(entries: list, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """(flat C-order indices in a table of ``shape``, p values) of a list
    of parsed entries; raises ValueError for an entry without an 'alpha'
    list and a 'p', a count vector that is not len(shape) integers within
    the table, or a p that is not a number."""
    m = len(shape)
    try:
        alphas = list(map(itemgetter("alpha"), entries))
        ps = list(map(itemgetter("p"), entries))
        lengths = set(map(len, alphas))
    except (KeyError, TypeError):
        raise ValueError(_ENTRY_FIELDS) from None
    if not lengths <= {m}:
        raise ValueError(f"count vectors must have length m = {m}")
    if not set(map(type, chain.from_iterable(alphas))) <= {int}:
        raise ValueError("count vectors must hold integers")
    if not set(map(type, ps)) <= {int, float}:
        raise ValueError("p and mass_deficit must be numbers")
    flat = np.fromiter(chain.from_iterable(alphas), np.intp, count=m * len(ps))
    return _ravel(flat, len(ps), shape), np.array(ps, dtype=float)


def _ravel(alphas, count: int, shape: Tuple[int, ...]) -> np.ndarray:
    """Flat C-order indices in a table of ``shape`` of ``count`` count
    vectors, given as (count, m) ints or flat; raises ValueError for one of
    another length or outside the table."""
    idx = np.asarray(alphas, dtype=np.intp).reshape(count, len(shape))
    if not shape:
        return np.zeros(count, dtype=np.intp)
    return np.ravel_multi_index(tuple(idx.T), shape)


def _dense(flat: np.ndarray, ps, shape: Tuple[int, ...]) -> np.ndarray:
    """Table of ``shape`` holding ps[i] at flat C-order index flat[i];
    raises ValueError for an index listed twice."""
    table = np.zeros(shape)
    ordered = np.sort(flat)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("a count vector is listed twice")
    np.put(table, flat, ps)
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


def _capped_tail_dp(success_probs: np.ndarray, top: int) -> Tuple[np.ndarray, float]:
    """(b, over) for S a sum of independent Bernoulli(p_j): b[c] = P(S = c)
    for c = 0..top and over = P(S > top), by a 1-D DP clipped at top.

    The mass that leaves the top is carried in ``over``, which is exact
    because counts never decrease; the cost is sites x (top + 1)."""
    b = np.zeros(top + 1)
    b[0] = 1.0
    over = 0.0
    for pj in success_probs.tolist():
        over += float(b[-1]) * pj
        nb = b * (1.0 - pj)
        nb[1:] += b[:-1] * pj
        b = nb
    return b, over


def marginal_cap(success_probs: Sequence[float], tail_target: float) -> int:
    """Smallest cap c with P(Bernoulli-sum > c) <= tail_target, by 1-D DP.

    The DP is clipped at a top past which Bernstein's inequality leaves at
    most tail_target (the top doubles in case rounding leaves more), so it
    costs sites x top instead of sites^2.
    """
    p = np.asarray(success_probs, dtype=float)
    top = p.size
    if 0.0 < tail_target < 1.0:
        # P(S - mu >= d) <= exp(-d^2 / (2 (var + d / 3))) = tail_target
        log_inv = -math.log(tail_target)
        var = float((p * (1.0 - p)).sum())
        dev = log_inv / 3.0 + math.sqrt((log_inv / 3.0) ** 2 + 2.0 * var * log_inv)
        top = min(p.size, math.ceil(float(p.sum()) + dev))
    b, over = _capped_tail_dp(p, top)
    while over > tail_target and top < p.size:
        top = min(p.size, 2 * top)
        b, over = _capped_tail_dp(p, top)
    # tails[c] = P(S > c) for c = 0..top
    tails = np.cumsum(np.concatenate(([over], b[:0:-1])))[::-1]
    return int(np.argmax(tails <= tail_target))


# cells one count-law table may hold
_MAX_CELLS = 4_000_000


def _budgeted_caps(
    rows: np.ndarray, tail_tol: float, caps: Optional[Sequence[int]]
) -> Tuple[int, ...]:
    """The caps of a count law over the (sites, m) success ``rows``: the
    given ones as ints, or else each coordinate's marginal quantile with
    tail 0.45 tail_tol / m. Raises ValueError when given caps are not m
    nonnegative integers, or when the capped table would hold more than
    _MAX_CELLS cells."""
    m = rows.shape[1]
    if caps is None:
        per = 0.45 * tail_tol / m
        caps = tuple(marginal_cap(rows[:, k], per) for k in range(m))
    else:
        caps = tuple(int(c) for c in caps)
        if len(caps) != m or any(c < 0 for c in caps):
            raise ValueError(f"caps must be {m} nonnegative integers, got {caps}")
    cells = math.prod(c + 1 for c in caps)
    if cells > _MAX_CELLS:
        raise ValueError(
            f"table would hold {cells} cells (budget {_MAX_CELLS}); "
            "raise tail_tol or pass smaller caps"
        )
    return caps


def dp_count_law(
    rows: np.ndarray,
    tail_tol: float,
    caps: Optional[Sequence[int]] = None,
    scale: float = 1.0,
) -> CountLaw:
    """Count law of independent categorical sites from their success rows.

    ``rows`` is a (sites, m) array of per-site success probabilities. When
    ``caps`` is None each coordinate is capped at its marginal quantile
    with tail 0.45 tail_tol / m. The DP table is multiplied by ``scale`` (a
    factor common to every cell, such as the probability that omitted sites
    stay empty); the deficit is the mass the law does not store. Raises
    ValueError when given caps are not m nonnegative integers, or when the
    capped table would exceed 4,000,000 cells.
    """
    rows = np.asarray(rows, dtype=float)
    caps = _budgeted_caps(rows, tail_tol, caps)
    table, _overflow = poisson_binomial_dp(rows, caps)
    return CountLaw(table=table * scale)


# ------------------------------------------------------------------ pmf table


def _shift_recursion(
    params: HeineParams, caps: Sequence[int]
) -> Tuple[np.ndarray, float, float]:
    """Heine pmf on the box [0, caps] from the shift recursion, as lower bounds.

    With U(a) = theta^a T(a), the recursion

        U(a) (1 - w(a)) = sum_k theta_k (w(a) / q_k) U(a - e_k),  w(a) = prod_k q_k^{a_k},

    fills the box level by level in |a| from U(0) = 1, and P(a) = U(a) / Z.
    Each level is carried in long double, scaled by a power of two to its
    maximum; the exponents add up exactly, and the one inexact scale is
    log Z from ``_log_zero_run``. Every cell is then moved down by the
    level's first-order rounding bound and rounded down to float64, so it
    is a lower bound of P(a).

    Returns (cells, rounding, z_tail): the float64 table, a bound on the
    mass the rounding took off the cells, and the closing bound of Z's
    site product.
    """
    m = params.m
    shape = tuple(int(c) + 1 for c in caps)
    strides = [math.prod(shape[k + 1 :]) for k in range(m)]
    # levels as a small unsigned array: an index array of m x cells is not
    # made; the digits of each level's cells come from their flat indices
    level = np.zeros(shape, dtype=np.min_scalar_type(sum(shape) - m))
    for k, s in enumerate(shape):
        level += np.arange(s, dtype=level.dtype).reshape((-1,) + (1,) * (m - 1 - k))
    level = level.ravel()
    qpow = [np.power(_LD(q), np.arange(s, dtype=_LD)) for q, s in zip(params.qs, shape)]
    lnq = [np.arange(s, dtype=_LD) * np.log(_LD(q)) for q, s in zip(params.qs, shape)]
    coeff = [_LD(t) / _LD(q) for t, q in zip(params.thetas, params.qs)]
    log_p0, z_tail = _log_zero_run(params)
    log_z, ln2 = -float(log_p0), np.log(_LD(2))
    # first-order relative rounding in long-double units: (5m + 6) per level
    # (w, 1 - w, their ratio, the m products and their sum); (m + 5) log Z,
    # 3 |E ln 2|, the exponent's sum and 5 for exp, the shift and the
    # products. The factor 2 covers second-order terms.
    step = (5 * m + 6) * _U_LD

    out = np.zeros(level.size)
    # position of each cell within its level, to find a cell's sources
    # among the previous level's values
    pos = np.zeros(level.size, dtype=np.min_scalar_type(level.size))
    idx, cur, exponent, rounding = np.zeros(1, dtype=np.intp), np.ones(1, dtype=_LD), 0, 0.0
    for lvl in range(int(level[-1]) + 1):
        if lvl:
            prev = cur
            idx = np.flatnonzero(level == lvl)
            pos[idx] = np.arange(idx.size, dtype=pos.dtype)
            digits, rem = [], idx
            for stride in strides:
                d, rem = np.divmod(rem, stride)
                digits.append(d)
            w, x = qpow[0][digits[0]], lnq[0][digits[0]]
            for k in range(1, m):
                w = w * qpow[k][digits[k]]
                x = x + lnq[k][digits[k]]
            cur = np.zeros(idx.size, dtype=_LD)
            for k in range(m):
                has = digits[k] > 0
                cur[has] += coeff[k] * prev[pos[idx[has] - strides[k]]]
            cur *= w / -np.expm1(x)
            _, e = np.frexp(cur.max())
            cur *= _LD(2.0) ** -int(e)
            exponent += int(e)
        scale = exponent * ln2 + log_p0
        bound = 2.0 * _U_LD * (
            (m + 5) * log_z + 3.0 * abs(exponent) * math.log(2.0) + abs(float(scale)) + 5.0
        ) + 2.0 * lvl * step
        cells = _lower(cur, scale, bound)
        out[idx] = cells
        rounding += (2.0 * _U + 2.0 * bound) * float(cells.sum())
    return out.reshape(shape), rounding, z_tail


def _lower(mantissa, scale, bound: float) -> np.ndarray:
    """float64 lower bounds of mantissa * exp(scale) known to relative ``bound``:
    the long-double product is moved down by the bound, then rounded down."""
    v = mantissa * (np.exp(scale) * (1 - _LD(bound)))
    y = np.asarray(v, dtype=float)
    return np.where(y > v, np.nextafter(y, 0.0), y)


def pmf_table(
    params: HeineParams,
    tail_tol: float = 1e-12,
    caps: Optional[Sequence[int]] = None,
) -> CountLaw:
    """Joint pmf on a capped box from the shift recursion, with certified deficit.

    Unless ``caps`` are given, coordinate k is capped at its marginal
    quantile with tail 0.45 tail_tol / m, read off the sites 0..J past
    which a success has probability at most 0.45 tail_tol (that share
    stays in the cap overflow bound). The cells come from
    ``_shift_recursion`` and are pointwise lower bounds, so the deficit
    1 - sum(table) bounds
    everything omitted: the mass beyond the caps, the closing bound of Z's
    site product and the rounding taken off the cells. Raises ValueError
    when given caps are not m nonnegative integers, when the capped table
    would exceed 4,000,000 cells, or when the deficit exceeds
    ``tail_tol``; the message gives the three parts.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    j_max = truncation_site_count(params, 0.45 * tail_tol)
    rows = _site_success_matrix(params, j_max + 1)
    caps = _budgeted_caps(rows, tail_tol, caps)
    table, rounding, z_tail = _shift_recursion(params, caps)
    law = CountLaw(table=table)
    if law.mass_deficit > tail_tol:
        overflow = _tail_bound(params, j_max + 1) + math.fsum(
            _capped_tail_dp(rows[:, k], min(c, j_max + 1))[1] for k, c in enumerate(caps)
        )
        raise ValueError(
            f"pmf table deficit {law.mass_deficit:.3e} exceeds tail_tol {tail_tol:.3e}: "
            f"cap overflow <= {overflow:.3e}, Z tail bound {z_tail:.3e}, "
            f"rounding <= {rounding:.3e}"
        )
    return law


# ------------------------------------------------------------------ pmf point


# lattice cells one pmf_point call may fill
_POINT_BUDGET = 500_000


def pmf_point(params: HeineParams, alpha: Sequence[int]) -> float:
    """Point mass P(X = alpha), a lower bound, read off the shift recursion.

    ``_shift_recursion`` fills the lattice below alpha (the cells it needs)
    and the cell at alpha is returned. Raises ValueError when
    prod(alpha_k + 1) exceeds 500,000.
    """
    a = tuple(int(v) for v in alpha)
    if len(a) != params.m or any(v < 0 for v in a):
        raise ValueError("alpha must be a nonnegative multi-index of length m")
    cells = math.prod(v + 1 for v in a)
    if cells > _POINT_BUDGET:
        raise ValueError(
            f"enumeration lattice holds {cells} nodes (budget {_POINT_BUDGET}); "
            "fall back to pmf_table"
        )
    return float(_shift_recursion(params, a)[0][a])


# ------------------------------------------------------------------------ mgf


def mgf(params: HeineParams, s: Sequence[float]) -> float:
    """Moment generating function E[exp(<s, X>)], computed in log space.

    The sites are independent categoricals, so log E[exp(<s, X>)] is
    sum_j log1p(sum_k p_{j,k} (e^{s_k} - 1)) over the rows of
    ``_site_success_matrix``: the formula ``engine.joint_mgf`` applies to
    its landing matrix. Sites j <= J enter, with J from
    ``truncation_site_count`` at 1e-14 / max_k |e^{s_k} - 1|, so the
    log-tail left out is below 1e-14. Rejects s_k > 700 (the exponential
    would overflow); arbitrarily negative s is fine.
    """
    sv = np.asarray(s, dtype=float)
    if sv.shape != (params.m,):
        raise ValueError("s length must equal m")
    if not np.all(np.isfinite(sv)):
        raise ValueError("s must be finite")
    if np.any(sv > 700.0):
        raise ValueError("s out of range (overflow guard: require s_k <= 700)")
    tilt = np.expm1(sv)
    spread = float(np.max(np.abs(tilt)))
    if spread == 0.0:
        return 1.0
    j_max = truncation_site_count(params, min(1e-14 / spread, 0.5))
    rows = _site_success_matrix(params, j_max + 1)
    return math.exp(float(np.log1p(rows @ tilt).sum()))


# -------------------------------------------------------------------- moments


_MOMENT_TAIL_TOL = 1e-14


def _moment_site_matrix(params: HeineParams) -> np.ndarray:
    j_max = truncation_site_count(params, _MOMENT_TAIL_TOL)
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


_SAMPLE_TAIL_TOL = 5e-13


def sample(params: HeineParams, count: int, seed: int) -> HeineSample:
    """Draw ``count`` independent count vectors.

    Sites beyond J_max, past which a success has probability at most
    5e-13, are frozen at category 0, which couples the sampler to the law
    within that total variation (the bound is recorded in the result).
    Randomness comes from one substream per site,
    SeedSequence(seed, spawn_key=(j,)), so output is bitwise reproducible
    for a fixed seed regardless of batching.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    j_max = truncation_site_count(params, _SAMPLE_TAIL_TOL)
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
    t0 = 0.5 * _exact_sum(np.abs(diff))
    w = 0.5 * (a.mass_deficit + b.mass_deficit)
    return (max(0.0, t0 - w), min(1.0, t0 + w))
