"""Output checks, computed apart from heinegas.

Every check recomputes its reference from closed forms (site series,
regularized incomplete gamma functions, the case-1 builder's Laplacian) or
tests a property the method must have. None imports heinegas, so none can
pass because it shares code with what it checks. Each returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

# ------------------------------------------------------------ site series


def site_weights(thetas, qs, tail=1e-17) -> np.ndarray:
    """x[j, k] = θ_k q_k^j for j up to the site where the remaining
    Σ_k θ_k q_k^j / (1 - q_k) falls below ``tail``."""
    th = np.asarray(thetas, dtype=float)
    q = np.asarray(qs, dtype=float)
    sites = max(
        1, max(math.ceil(math.log(tail * (1.0 - v) / t) / math.log(v)) + 1 for t, v in zip(th, q))
    )
    return th * q ** np.arange(sites)[:, None]


def site_matrix(thetas, qs) -> np.ndarray:
    """p[j, k] = θ_k q_k^j / (1 + Σ_l θ_l q_l^j), the site probabilities."""
    x = site_weights(thetas, qs)
    return x / (1.0 + x.sum(axis=1, keepdims=True))


def site_moments(thetas, qs):
    """(mean, covariance) of the Heine law from its independent sites."""
    p = site_matrix(thetas, qs)
    cov = -(p.T @ p)
    np.fill_diagonal(cov, (p * (1.0 - p)).sum(axis=0))
    return p.sum(axis=0), cov


def site_log_mgf(thetas, qs, s) -> float:
    """log E[exp<s, X>] as the site product Π_j (1 + Σ θ q^j e^s) / (1 + Σ θ q^j)."""
    x = site_weights(thetas, qs)
    return math.fsum(np.log1p(x @ np.exp(np.asarray(s, dtype=float))) - np.log1p(x.sum(axis=1)))


def site_table(thetas, qs, cap: int):
    """Heine pmf by a DP over sites, counts clipped at ``cap``.

    Returns (dict alpha -> p, deficit); the deficit bounds the clipped
    mass plus the sites left out.
    """
    p = site_matrix(thetas, qs)
    m = p.shape[1]
    table = np.zeros((cap + 1,) * m)
    table[(0,) * m] = 1.0
    for row in p:
        new = table * (1.0 - row.sum())
        for k in range(m):
            src = tuple(slice(0, cap) if i == k else slice(None) for i in range(m))
            dst = tuple(slice(1, cap + 1) if i == k else slice(None) for i in range(m))
            new[dst] += table[src] * row[k]
        table = new
    entries = {tuple(int(a) for a in idx): float(table[idx]) for idx in np.ndindex(table.shape)}
    return entries, 1.0 - math.fsum(entries.values()) + 1e-17


# ------------------------------------------------------------------- tables


def table_arrays(entries):
    """(alphas, ps) from a dict alpha -> p or a JSON list of {alpha, p}."""
    if isinstance(entries, dict):
        items = list(entries.items())
    else:
        items = [(tuple(e["alpha"]), e["p"]) for e in entries]
    alphas = np.asarray([a for a, _ in items], dtype=float)
    ps = np.asarray([p for _, p in items], dtype=float)
    return alphas, ps


def table_moments(alphas, ps):
    mean = ps @ alphas
    second = alphas.T @ (alphas * ps[:, None])
    return mean, second - np.outer(mean, mean)


def table_mgf(alphas, ps, s) -> float:
    return math.fsum(ps * np.exp(alphas @ np.asarray(s, dtype=float)))


def tv_bounds(a: dict, a_deficit: float, b: dict, b_deficit: float):
    """(lower, upper) total-variation bracket of two truncated tables."""
    t0 = 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))
    w = 0.5 * (a_deficit + b_deficit)
    return max(0.0, t0 - w), min(1.0, t0 + w)


def _entries(doc) -> dict:
    return {tuple(e["alpha"]): e["p"] for e in doc["entries"]}


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


# ---------------------------------------------------------- converge-case2


def check_converge(report: dict, laws: dict, s_grid, tv_max: float, mgf_max: float) -> list:
    """Checks of a case-2 ``converge`` report and its ``law_n*.json`` files.

    ``laws`` maps n to the loaded law file. Each row's reported MGF error
    is recomputed from the exact table and the site product of the row's
    tilde/hat parameters; the predicted table's moments must equal the
    site series pushed through the fold-back map.
    """
    fails = []
    rows = report["rows"]
    for row in rows:
        n = row["n"]
        lim = row["limit"]
        doc = laws[n]
        recip = lim["tilde_vartheta"][0] * lim["hat_vartheta"][-1]
        if abs(recip - 1.0) > 1e-12:
            fails.append(f"n={n}: gap-edge reciprocity is {recip!r}")
        exact, predicted = doc["exact"], doc["predicted"]
        for name, law in (("exact", exact), ("predicted", predicted)):
            total = math.fsum(e["p"] for e in law["entries"]) + law["mass_deficit"]
            if abs(total - 1.0) > 1e-12:
                fails.append(f"n={n}: {name} mass + deficit = {total!r}")

        ea, ep = table_arrays(exact["entries"])
        worst = 0.0
        for s in s_grid:
            s = np.asarray(s, dtype=float)
            s_hat = np.concatenate((s[1:], s[:1]))
            target = math.exp(
                site_log_mgf(lim["tilde_theta"], lim["tilde_q"], s)
                + site_log_mgf(lim["hat_theta"], lim["hat_q"], s_hat)
            )
            worst = max(worst, abs(table_mgf(ea, ep, s) - target) / target)
        if abs(worst - row["mgf_err_max"]) > 1e-9:
            fails.append(
                f"n={n}: MGF error from the exact table is {worst!r}, "
                f"reported {row['mgf_err_max']!r}"
            )

        m = lim["m"]
        t_mean, t_cov = site_moments(lim["tilde_theta"], lim["tilde_q"])
        h_mean, h_cov = site_moments(lim["hat_theta"], lim["hat_q"])
        fold = np.zeros((m + 1, m + 1))  # hat coordinate i -> combined i+1, last -> 0
        fold[np.arange(1, m + 1), np.arange(m)] = 1.0
        fold[0, m] = 1.0
        mean = t_mean + fold @ h_mean
        cov = t_cov + fold @ h_cov @ fold.T
        got_mean, got_cov = table_moments(*table_arrays(predicted["entries"]))
        if not (_close(got_mean, mean, 1e-8) and _close(got_cov, cov, 1e-8)):
            fails.append(f"n={n}: predicted-law moments differ from the site series")

        tv = tv_bounds(
            _entries(exact), exact["mass_deficit"], _entries(predicted), predicted["mass_deficit"]
        )
        if not _close(tv, (row["tv_lo"], row["tv_hi"]), 1e-12):
            fails.append(f"n={n}: TV bracket {tv} differs from reported")

    tv_hi = [row["tv_hi"] for row in rows]
    if any(b >= a for a, b in zip(tv_hi[:-1], tv_hi[1:])):
        fails.append(f"tv_hi does not fall with n: {tv_hi}")
    if rows[-1]["tv_hi"] > tv_max:
        fails.append(f"tv_hi at n={rows[-1]['n']} is {rows[-1]['tv_hi']} > {tv_max}")
    if rows[-1]["mgf_err_max"] > mgf_max:
        fails.append(f"mgf_err_max at n={rows[-1]['n']} is {rows[-1]['mgf_err_max']} > {mgf_max}")
    return fails


# ------------------------------------------------------------ sample-case1


def check_ginibre_inverse(radii, n: int, seed: int, law_truncation: float) -> list:
    """Ginibre modulus j has CDF gammainc(j+1, n r²); it must give back the
    uniform of index j's stream SeedSequence(seed, spawn_key=(j,)) within
    the sampler's residual (1e-10) plus its law truncation. 1e-12 more
    covers the rounding of gammainc itself."""
    radii = np.atleast_2d(radii)
    worst = 0.0
    for j in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,))))
        u = rng.random(radii.shape[0])
        worst = max(worst, float(np.max(np.abs(gammainc(j + 1, n * radii[:, j] ** 2) - u))))
    bound = 1e-10 + law_truncation + 1e-12
    if not worst <= bound:
        return [f"Ginibre CDF misses the drawn uniforms by {worst:.3e} > {bound:.3e}"]
    return []


def check_sampled_counts(radii, regions, law_entries: dict) -> list:
    """Region counts of sampled configurations against the exact law.

    ``regions`` is a list of (lo, hi) annuli. Cells with p >= 1e-3 get a
    z-score against their binomial standard error (at most 5); each mean
    count against its standard error (at most 4).
    """
    radii = np.atleast_2d(radii)
    reps = radii.shape[0]
    counts = np.stack([((radii > lo) & (radii < hi)).sum(axis=1) for lo, hi in regions], axis=1)
    fails = []
    cells = 0
    worst = 0.0
    for alpha, p in law_entries.items():
        if p < 1e-3:
            continue
        freq = float(np.mean(np.all(counts == np.asarray(alpha), axis=1)))
        worst = max(worst, abs(freq - p) / math.sqrt(p * (1.0 - p) / reps))
        cells += 1
    if cells < 3 or worst > 5.0:
        fails.append(f"{cells} cells with p >= 1e-3, worst cell z {worst:.2f} (limit 5)")
    mean, cov = table_moments(*table_arrays(law_entries))
    z = np.abs(counts.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / reps)
    if np.any(z > 4.0):
        fails.append(f"mean count z-scores {z} (limit 4)")
    return fails


# -------------------------------------------------------------- count-laws


def check_ginibre_means(law_entries: dict, n: int, annuli) -> list:
    """Marginal means of a Ginibre count law against the closed form
    Σ_j [gammainc(j+1, n hi²) − gammainc(j+1, n lo²)], relative 1e-9."""
    got, _ = table_moments(*table_arrays(law_entries))
    j1 = np.arange(1, n + 1)
    want = np.asarray(
        [math.fsum(gammainc(j1, n * hi * hi) - gammainc(j1, n * lo * lo)) for lo, hi in annuli]
    )
    rel = np.abs(got - want) / want
    if np.any(rel > 1e-9):
        return [f"Ginibre marginal means {got} vs closed form {want} (rel {rel})"]
    return []


def case1_limit(t, w):
    """Heine parameters of the case-1 builder's limit, in closed form.

    The droplet is the unit disk with ΔQ(1) = 1; at outpost t_k the
    builder gives ΔQ(t_k) = A(t_k) / (2 w_k²) with A(t) = t² − 1 − 2 ln t.
    θ_k = sqrt(ΔQ(1) / ΔQ(t_k)) ρ_k and q_k = ρ_k², with ρ_k = 1 / t_k.
    """
    thetas, qs = [], []
    for tk, wk in zip(t, w):
        lap = (tk * tk - 1.0 - 2.0 * math.log(tk)) / (2.0 * wk * wk)
        thetas.append(math.sqrt(1.0 / lap) / tk)
        qs.append(1.0 / (tk * tk))
    return thetas, qs


def check_tv_falls(small, large, limit, factor: float) -> list:
    """The TV upper bound to the limit must shrink by ``factor`` or more
    from the smaller n to the larger. Each argument is (entries, deficit)."""
    hi_small = tv_bounds(*small, *limit)[1]
    hi_large = tv_bounds(*large, *limit)[1]
    if not hi_large * factor <= hi_small:
        return [f"TV upper bound fell from {hi_small:.3e} to {hi_large:.3e}, less than {factor}x"]
    return []


def check_heine_table(law, mean, cov, back, thetas, qs) -> list:
    """A Heine pmf table: the program's mean and covariance against the
    site series within 1e-8, strictly negative cross covariances, and a
    JSON round trip that gives back the same law."""
    fails = []
    want_mean, want_cov = site_moments(thetas, qs)
    if not (_close(mean, want_mean, 1e-8) and _close(cov, want_cov, 1e-8)):
        fails.append("table moments differ from the site series")
    got_mean, got_cov = table_moments(*table_arrays(law.entries))
    if not (_close(got_mean, want_mean, 1e-8) and _close(got_cov, want_cov, 1e-8)):
        fails.append("moments summed from the table differ from the site series")
    off = np.asarray(cov)[~np.eye(len(thetas), dtype=bool)]
    if not np.all(off < 0.0):
        fails.append(f"cross covariances not all negative: {off}")
    same = (
        back.m == law.m
        and back.cap == law.cap
        and back.mass_deficit == law.mass_deficit
        and back.entries == law.entries
    )
    if not same:
        fails.append("JSON round trip changed the law")
    return fails
