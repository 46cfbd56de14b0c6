"""Population scaled-moment oracle: the centering term for simulations.

The target is rho^-s * E[h] under the graphon model. Conditional on the
latent positions, h's expectation is computed exactly by enumerating all
2^C(r,2) edge configurations against the containment table (with clamped
edge probabilities); the outer expectation over latents is either Monte Carlo
(the generic route, with a standard error) or deterministic: exact community
enumeration for block models and tensor Gauss-Legendre quadrature for smooth
graphons when nothing clamps.

The quadrature evaluates the graphon once on the q x q grid of nodes; each
node pair of the r-tuple reads that grid along its two axes of the r-fold
grid, and the containment probability and the weights are built by
broadcasting, multiplied in the order of the one-point-at-a-time formula, so
each value keeps its bits.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from ..motif import Motif, _containment
from .graphons import Graphon, gl_nodes


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float


def _containment_terms(motif: Motif) -> list[tuple[int, ...]]:
    """The edge configurations that contain the motif, in the order of their
    codes in `motif._containment`, each as one flag per node pair in
    `itertools.combinations` order."""
    n_pairs = motif.r * (motif.r - 1) // 2
    return [tuple(code >> bit & 1 for bit in range(n_pairs))
            for code in np.flatnonzero(_containment(motif)).tolist()]


def conditional_containment_prob(p_edges: list[np.ndarray], motif: Motif) -> np.ndarray:
    """P(h = 1 | latent tuple) given per-pair edge probabilities.

    `p_edges` lists one probability array per node pair of the r-tuple, in
    itertools.combinations order; the arrays broadcast against each other.
    """
    shape = np.broadcast_shapes(*(np.shape(p) for p in p_edges))
    total = np.zeros(shape)
    prob = np.empty(shape)
    for flags in _containment_terms(motif):
        prob.fill(1.0)
        for flag, p in zip(flags, p_edges):
            prob *= p if flag else 1.0 - p
        total += prob
    return total


def _pair_probs_from_latents(graphon: Graphon, rho: float, latents: np.ndarray):
    """Clamped edge probabilities for every node pair of each latent r-tuple."""
    r = latents.shape[1]
    out = []
    for a, b in itertools.combinations(range(r), 2):
        w = rho * np.asarray(graphon.f(latents[:, a], latents[:, b]), dtype=np.float64)
        out.append(np.clip(w, 0.0, 1.0))
    return out


def population_scaled_moment(
    graphon: Graphon,
    motif: Motif,
    rho: float,
    n_mc: int = 100_000,
    rng: np.random.Generator | None = None,
) -> MomentEstimate:
    """Monte Carlo estimate of rho^-s E[h], with its standard error."""
    if n_mc < 10_000:
        raise ValueError("use at least 10^4 Monte Carlo tuples")
    if rng is None:
        rng = np.random.default_rng()
    latents = rng.random((n_mc, motif.r))
    cond = conditional_containment_prob(
        _pair_probs_from_latents(graphon, rho, latents), motif
    )
    scale = rho ** (-motif.s)
    value = scale * float(np.mean(cond))
    se = scale * float(np.std(cond)) / np.sqrt(n_mc)
    return MomentEstimate(value=value, std_error=se)


def population_scaled_moment_exact(
    graphon: Graphon, motif: Motif, rho: float, quad_order: int = 64
) -> float:
    """Deterministic rho^-s E[h]: exact for block models, quadrature for smooth.

    The quadrature route assumes the integrand is smooth, i.e. no clamping;
    it warns if rho * max f exceeds 1. Supports r <= 3 (the grid is r-fold).
    """
    r, s = motif.r, motif.s
    scale = rho ** (-s)
    if graphon.is_block:
        sizes = np.asarray(graphon.block_sizes)
        rates = np.asarray(graphon.block_rates)
        k = len(sizes)
        total = 0.0
        for assign in itertools.product(range(k), repeat=r):
            weight = float(np.prod(sizes[list(assign)]))
            p_edges = [
                np.clip(rho * rates[assign[a], assign[b]], 0.0, 1.0)
                for a, b in itertools.combinations(range(r), 2)
            ]
            cond = conditional_containment_prob(
                [np.asarray(p, dtype=np.float64) for p in p_edges], motif
            )
            total += weight * float(cond)
        return scale * total
    if r > 3:
        raise ValueError("quadrature oracle supports motifs with r <= 3")
    if rho * graphon.max_value() > 1.0:
        warnings.warn(
            f"rho={rho} clamps graphon {graphon.name}; quadrature value is "
            "computed on the clamped kernel and loses spectral accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    x, w = gl_nodes(quad_order)
    # the clamped edge probabilities on the q x q node grid, once; pair (a, b)
    # of the r-fold grid reads them along its axes a and b
    p_grid = np.clip(rho * np.asarray(graphon.f(x[:, None], x[None, :]), dtype=np.float64),
                     0.0, 1.0)
    cond = conditional_containment_prob(
        [_along(p_grid, r, (a, b)) for a, b in itertools.combinations(range(r), 2)], motif
    )
    weights = np.ones(cond.shape)
    for a in range(r):
        weights *= _along(w, r, (a,))
    return scale * float(weights.ravel() @ cond.ravel())


def _along(values: np.ndarray, r: int, axes: tuple) -> np.ndarray:
    """`values` laid along the given axes of an r-dimensional grid (length 1
    on the others), to broadcast over it."""
    shape = [1] * r
    for axis, size in zip(axes, values.shape):
        shape[axis] = size
    return values.reshape(shape)
