"""Node subsampling / resampling bootstrap for the studentized discrepancy.

Each replicate draws node sets from both networks (with replacement at full
size for resampling, without replacement at a reduced size for subsampling,
default floor(sqrt(m))), recomputes the studentized statistic on the induced
subgraphs, and optionally adds its own smoothing draw. Replicates whose
variance degenerates are dropped and counted. The statistic is
(D_b - center) / S_b; callers choose the center (0 reproduces the raw
studentized value, the full-sample D implements the bootstrap principle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, sqrt

import numpy as np

from ..edgeworth import combine, smoothing_noise, summarize
from ..graph import Graph
from ..inference import scaled_discrepancy
from ..motif import Motif
from ..projections import DegenerateGraphError

DEFAULT_N_BOOT = 200


@dataclass(frozen=True)
class BootstrapResult:
    values: np.ndarray
    n_dropped: int


def _induced(g: Graph, idx: np.ndarray) -> Graph:
    adj = g.adj[np.ix_(idx, idx)]  # a fresh array
    np.fill_diagonal(adj, False)  # duplicated nodes under resampling
    return Graph(adj, _owned=True)


def bootstrap_distribution(
    ga: Graph,
    gb: Graph,
    motif: Motif,
    mode: str,
    n_boot: int = DEFAULT_N_BOOT,
    m_sub: int | None = None,
    n_sub: int | None = None,
    rng: np.random.Generator | None = None,
    center: float = 0.0,
    c_delta: float = 0.0,
) -> BootstrapResult:
    """Replicate studentized discrepancies under node bootstrap."""
    if mode not in ("subsample", "resample"):
        raise ValueError(f"mode must be subsample or resample, got {mode!r}")
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    if mode == "subsample":
        m_sub = m_sub if m_sub is not None else max(motif.r + 1, floor(sqrt(ga.m)))
        n_sub = n_sub if n_sub is not None else max(motif.r + 1, floor(sqrt(gb.m)))
        if m_sub > ga.m or n_sub > gb.m:
            raise ValueError("subsample sizes exceed node counts")

    values = []
    dropped = 0
    for _ in range(n_boot):
        if mode == "resample":
            ia = rng.integers(0, ga.m, size=ga.m)
            ib = rng.integers(0, gb.m, size=gb.m)
        else:
            ia = rng.choice(ga.m, size=m_sub, replace=False)
            ib = rng.choice(gb.m, size=n_sub, replace=False)
        try:
            sa = summarize(_induced(ga, ia), motif)
            sb = summarize(_induced(gb, ib), motif)
            t_b = (scaled_discrepancy(sa, sb) - center) / combine(sa, sb).S
            t_b += smoothing_noise(sa.n, sb.n, c_delta, rng)
        except DegenerateGraphError:
            dropped += 1
            continue
        values.append(float(t_b))
    return BootstrapResult(values=np.asarray(values), n_dropped=dropped)
