"""Float root extraction for real polynomials, plus root clustering.

The float backend's eigensolver is ``numpy.roots`` without its per-call
input checks: it eigensolves the same companion matrix.  The clustering
routine (single-linkage grouping at a relative tolerance, and a split
into real values and conjugate-pair invariants) served the former
eigenvalue-based exact candidate search; nothing in the package calls
it, but the benchmark tracer wraps it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NumericFailure


def real_poly_roots(coeffs_const_first: Sequence[float]) -> list[complex]:
    """All complex roots of a real polynomial given constant-first, bit for
    bit as ``numpy.roots``: companion eigenvalues, then 0j per zero constant
    term."""
    # imported here so that commands which never solve for roots do not
    # pay numpy's import time
    import numpy as np

    nonzero = [k for k, c in enumerate(coeffs_const_first) if c != 0.0] or [0]
    zeros, cs = nonzero[0], coeffs_const_first[nonzero[0]:nonzero[-1] + 1]
    if len(cs) <= 1:
        return [0j] * zeros
    # ones on the subdiagonal, first row -p[1:] / p[0] for p highest-first
    companion = np.eye(len(cs) - 1, k=-1)
    companion[0, :] = [-c / cs[-1] for c in reversed(cs[:-1])]
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"companion-matrix eigenvalue solve failed: {exc}") from exc
    return roots.astype(complex).tolist() + [0j] * zeros


def fold_cluster(points: Sequence[complex], tol: float) -> list[list[int]]:
    """Single-linkage index clusters at the given relative tolerance."""
    m = len(points)
    parent = list(range(m))
    mags = [abs(p) for p in points]

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(m):
        pa, ma = points[a], mags[a]
        for b in range(a + 1, m):
            if abs(pa - points[b]) <= tol * (1.0 + 0.5 * (ma + mags[b])):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for idx in range(m):
        groups.setdefault(find(idx), []).append(idx)
    out = list(groups.values())
    out.sort(key=lambda g: (points[g[0]].real, points[g[0]].imag))
    return out


def _cluster_means(points: list[complex], tol: float) -> list[complex]:
    return [sum(points[i] for i in g) / len(g) for g in fold_cluster(points, tol)]


def pair_and_cluster(
    roots: Sequence[complex], tol: float
) -> tuple[list[float], list[tuple[float, float]]]:
    """Split roots into clustered real values and conjugate-pair invariants.

    Returns (reals, spheres): the mean of each cluster of real roots, and
    (2*Re z, |z|^2) for the mean z of each cluster of upper half-plane
    roots.
    """
    real_points: list[complex] = []
    upper: list[complex] = []
    for z in roots:
        if abs(z.imag) <= tol * (1.0 + abs(z)):
            real_points.append(complex(z.real, 0.0))
        elif z.imag > 0:
            upper.append(z)
    reals = [mean.real for mean in _cluster_means(real_points, tol)]
    spheres = [(2.0 * mean.real, abs(mean) ** 2) for mean in _cluster_means(upper, tol)]
    return reals, spheres
