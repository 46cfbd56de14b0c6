"""Graphon library and network sampler.

A graphon is a symmetric nonnegative function on [0,1]^2, normalized so it
integrates to one; edge probabilities are rho * f(x_i, x_j) at iid uniform
latent positions, clamped into [0,1] with the clamp events counted. The
built-in library mirrors the usual benchmark forms: five smooth graphons, one
oscillatory smooth form used as an out-of-database query keyword, and five
two-block models.

Normalization constants are recomputed from the constraint rather than taken
from rounded literature values: closed forms for the smooth graphons, exact
rationals for the block models, and a converged high-order Gauss-Legendre
value for the oscillatory form (a 64^2 rule cannot resolve its oscillation
near the origin to 1e-6, so construction checks use a finer rule there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..graph import Graph


# raw (un-normalized) smooth forms; module-level so Graphon objects pickle
def _raw_sg1(u, v):
    return u + v


def _raw_sg2(u, v):
    return (u + v) ** 2 / 2.0


def _raw_sg3(u, v):
    return np.exp(-(u + v) / 2.0)


def _raw_sg4(u, v):
    return np.exp(-(u + v) / 3.0)


def _raw_sg5(u, v):
    return np.cos((u + v) / 2.0)


def _raw_sg6(u, v):
    rsq = np.asarray(u) ** 2 + np.asarray(v) ** 2
    safe = np.where(rsq > 0.0, rsq, 1.0)
    osc = np.where(rsq > 0.0, rsq / 3.0 * np.cos(1.0 / safe), 0.0)
    return osc + 0.15


# closed-form normalizers: 1 / integral of the raw form over [0,1]^2
_TAU_SG1 = 1.0
_TAU_SG2 = 12.0 / 7.0
_TAU_SG3 = 1.0 / (4.0 * (1.0 - math.exp(-0.5)) ** 2)
_TAU_SG4 = 1.0 / (9.0 * (1.0 - math.exp(-1.0 / 3.0)) ** 2)
_TAU_SG5 = 1.0 / (8.0 * math.cos(0.5) - 4.0 * math.cos(1.0) - 4.0)
# converged Gauss-Legendre (order 2048) value; literature rounds this to 4.57
_TAU_SG6 = 4.568451971992203


@dataclass(frozen=True)
class _BlockFn:
    """Piecewise-constant graphon kernel over community intervals."""

    boundaries: tuple[float, ...]  # interior cumulative sizes
    rates: tuple[tuple[float, ...], ...]

    def __call__(self, u, v):
        b = np.asarray(self.boundaries)
        cu = np.searchsorted(b, np.asarray(u), side="right")
        cv = np.searchsorted(b, np.asarray(v), side="right")
        return np.asarray(self.rates)[cu, cv]


@dataclass(frozen=True)
class Graphon:
    """Normalized graphon: f(u, v) = tau * raw(u, v)."""

    name: str
    raw: object = field(repr=False)
    tau: float
    block_sizes: tuple[float, ...] | None = None
    block_rates: tuple[tuple[float, ...], ...] | None = None
    check_order: int = 64

    @property
    def is_block(self) -> bool:
        return self.block_sizes is not None

    def f(self, u, v):
        return self.tau * self.raw(u, v)

    def max_value(self, grid: int = 512) -> float:
        """Grid-search upper envelope of f, used for clamp warnings."""
        x = np.linspace(0.0, 1.0, grid)
        return float(np.max(self.f(x[:, None], x[None, :])))


def _make_block(name: str, sizes, rates) -> Graphon:
    sizes_f = [Fraction(str(s)) for s in sizes]
    if sum(sizes_f) != 1:
        raise ValueError(f"{name}: community sizes must sum to 1")
    rates_f = [[Fraction(str(x)) for x in row] for row in rates]
    total = sum(
        p * q * rates_f[i][j]
        for i, p in enumerate(sizes_f)
        for j, q in enumerate(sizes_f)
    )
    tau = 1 / total  # exact rational normalizer
    cuts = np.cumsum([float(s) for s in sizes_f])[:-1]
    scaled = tuple(tuple(float(tau * x) for x in row) for row in rates_f)
    return Graphon(
        name=name,
        raw=_BlockFn(boundaries=tuple(cuts), rates=tuple(
            tuple(float(x) for x in row) for row in rates_f
        )),
        tau=float(tau),
        block_sizes=tuple(float(s) for s in sizes_f),
        block_rates=scaled,
    )


@lru_cache(maxsize=1)
def _builtins() -> dict[str, Graphon]:
    gs = [
        Graphon("SmoothGraphon-1", _raw_sg1, _TAU_SG1),
        Graphon("SmoothGraphon-2", _raw_sg2, _TAU_SG2),
        Graphon("SmoothGraphon-3", _raw_sg3, _TAU_SG3),
        Graphon("SmoothGraphon-4", _raw_sg4, _TAU_SG4),
        Graphon("SmoothGraphon-5", _raw_sg5, _TAU_SG5),
        Graphon("SmoothGraphon-6", _raw_sg6, _TAU_SG6, check_order=1024),
        _make_block("BlockModel-1", (0.5, 0.5), [[0.6, 0.2], [0.2, 0.2]]),
        _make_block("BlockModel-2", (0.5, 0.5), [[0.4, 0.1], [0.1, 0.1]]),
        _make_block("BlockModel-3", (0.75, 0.25), [[0.6, 0.2], [0.2, 0.2]]),
        _make_block("BlockModel-4", ("1/3", "2/3"), [[0.8, 0.4], [0.4, 0.2]]),
        _make_block("BlockModel-5", ("2/3", "1/3"), [[0.8, 0.2], [0.2, 0.2]]),
    ]
    return {g.name.lower(): g for g in gs}


BUILTIN_GRAPHON_NAMES = tuple(sorted(g.name for g in _builtins().values()))


def builtin_graphon(name: str) -> Graphon:
    """Look up a built-in graphon by (case-insensitive) name."""
    table = _builtins()
    key = name.strip().lower()
    if key not in table:
        raise ValueError(f"unknown graphon {name!r}; known: {BUILTIN_GRAPHON_NAMES}")
    return table[key]


def gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(order)
    return (t + 1.0) / 2.0, w / 2.0


def normalization_integral(graphon: Graphon, order: int | None = None) -> float:
    """Tensor-product quadrature of f over the unit square."""
    if graphon.is_block:
        p = np.asarray(graphon.block_sizes)
        rates = np.asarray(graphon.block_rates)
        return float(p @ rates @ p)
    x, w = gl_nodes(order or graphon.check_order)
    vals = graphon.f(x[:, None], x[None, :])
    return float(w @ vals @ w)


@dataclass(frozen=True)
class SampledNetwork:
    """A network drawn from a graphon, with its latent positions."""

    graph: Graph
    latents: np.ndarray
    clamp_count: int


# Node pairs of np.triu_indices(m, 1) that sample_network keeps, over all m
# (2 MiB of indices). Sizes are kept as they first come until the next would
# not fit, and are never evicted: perfbench's query store samples 31 sizes
# (m = 30..60, 32 k pairs) 3000 times, the harness configs a few sizes up to
# m = 300 (62 k pairs), and a larger network (m > 512) is never kept.
_CACHED_PAIRS = 1 << 17
_upper_pairs_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(m, 1), read-only and cached while the budget lasts."""
    pairs = _upper_pairs_cache.get(m)
    if pairs is None:
        pairs = np.triu_indices(m, k=1)
        kept = sum(iu.size for iu, _ in _upper_pairs_cache.values())
        if kept + pairs[0].size <= _CACHED_PAIRS:
            for idx in pairs:
                idx.setflags(write=False)
            _upper_pairs_cache[m] = pairs
    return pairs


def sample_network(
    graphon: Graphon, rho: float, m: int, rng: np.random.Generator
) -> SampledNetwork:
    """Draw latent positions, clamp edge probabilities, flip independent edges."""
    if m < 2:
        raise ValueError("need m >= 2")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0,1], got {rho}")
    x = rng.random(m)
    iu, ju = _upper_pairs(m)
    w = rho * np.asarray(graphon.f(x[iu], x[ju]), dtype=np.float64)
    clamped = int(np.count_nonzero((w > 1.0) | (w < 0.0)))
    w = np.clip(w, 0.0, 1.0)
    edges = rng.random(w.shape[0]) < w
    adj = np.zeros((m, m), dtype=bool)
    adj[iu, ju] = edges
    adj[ju, iu] = edges
    return SampledNetwork(graph=Graph(adj, _owned=True), latents=x, clamp_count=clamped)
