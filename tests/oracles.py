"""Independent straight-line reimplementations used as test oracles.

Everything here is deliberately written with plain Python loops and math,
transcribing the estimator formulas one line at a time, with no shared code
or vectorization tricks from the package under test. Keep it slow and
obvious; it is the ground truth the fast paths are checked against.

There are eight exceptions. `frozen_summary` is a fixed numpy copy of the
dense summary pipeline (census closed forms, projections, pair matrices and
the reductions) in its original operation order. It pins the package's
summary bit for bit while the package reuses buffers in place.
`frozen_load_edge_list` is the line-by-line edge-list loader that the array
parser replaced, kept to pin its graphs, reports and error messages.
`frozen_save_edge_list` is the edge-list writer that wrote one line per
edge from Python, kept to pin the block writer's files byte for byte.
`frozen_cdf_chunk` is the one-replicate-at-a-time CDF chunk that the grouped
harness replaced, kept to pin its outputs byte for byte.
`frozen_coverage_chunk` is the one-replicate-at-a-time coverage chunk, kept
to pin the grouped chunk's outputs and the order in which its motifs take
their smoothing draws.
`frozen_sample_network` is the sampler that drew its edges over
`np.triu_indices` pairs, kept to pin every draw bit for bit.
`frozen_population_moment_exact` is the population oracle that evaluated the
graphon on every point of the r-fold quadrature grid, kept to pin the
broadcast oracle's values bit for bit.
`frozen_query` is the store query that seeded and tested one entry at a
time, kept to pin the array query's hits and errors bit for bit.
"""

import itertools
import math
from math import comb, erfc, sqrt, pi, exp

import numpy as np

from netmoment.graph import EdgeListError, Graph, LoadReport


def brute_h(sub_rows, motif_edges, r):
    """Containment indicator on an adjacency given as tuple-of-tuples."""
    for perm in itertools.permutations(range(r)):
        if all(sub_rows[perm[a]][perm[b]] for a, b in motif_edges):
            return 1
    return 0


def motif_edges_of(name):
    return {
        "edge": (2, [(0, 1)]),
        "vshape": (3, [(0, 1), (0, 2)]),
        "triangle": (3, [(0, 1), (0, 2), (1, 2)]),
    }[name]


def adj_rows(graph):
    return tuple(tuple(bool(x) for x in row) for row in graph.adj.tolist())


def brute_moments(graph, motif_name):
    """(u_hat, node averages, pair averages) by full subset enumeration."""
    r, edges = motif_edges_of(motif_name)
    rows = adj_rows(graph)
    m = len(rows)
    total = 0
    node_counts = [0] * m
    pair_counts = {}
    for combo in itertools.combinations(range(m), r):
        sub = tuple(tuple(rows[i][j] for j in combo) for i in combo)
        h = brute_h(sub, edges, r)
        if not h:
            continue
        total += 1
        for i in combo:
            node_counts[i] += 1
        for i, j in itertools.combinations(combo, 2):
            pair_counts[(i, j)] = pair_counts.get((i, j), 0) + 1
    u_hat = total / comb(m, r)
    node_avgs = [c / comb(m - 1, r - 1) for c in node_counts]
    pair_avgs = {}
    for i, j in itertools.combinations(range(m), 2):
        pair_avgs[(i, j)] = pair_counts.get((i, j), 0) / comb(m - 2, r - 2)
    return u_hat, node_avgs, pair_avgs


def brute_summary(graph, motif_name):
    """Full summary-vector computation with explicit loops, as a dict."""
    r, edges = motif_edges_of(motif_name)
    s = len(edges)
    rows = adj_rows(graph)
    m = len(rows)
    degrees = [sum(row) for row in rows]
    n_edges = sum(degrees) // 2
    rho = n_edges / comb(m, 2)
    assert 0.0 < rho < 1.0

    u_hat, node_avgs, pair_avgs = brute_moments(graph, motif_name)
    g1 = [a - u_hat for a in node_avgs]
    grho1 = [degrees[i] / (m - 1) - rho for i in range(m)]
    xi_g = sum(v * v for v in g1) / m
    xi_rho = sum(v * v for v in grho1) / m
    xi_x = sum(g1[i] * grho1[i] for i in range(m)) / m

    def pair_avg(i, j):
        return pair_avgs[(min(i, j), max(i, j))]

    def g2(i, j):
        return pair_avg(i, j) - g1[i] - g1[j] - u_hat

    def grho2(i, j):
        return float(rows[i][j]) - grho1[i] - grho1[j] - rho

    alpha1 = [
        r * rho ** (-s) * g1[i] - 2 * s * rho ** (-(s + 1)) * u_hat * grho1[i]
        for i in range(m)
    ]
    alpha0 = (
        2 * s * (s + 1) * rho ** (-(s + 2)) * u_hat * xi_rho
        - 2 * r * s * rho ** (-(s + 1)) * xi_x
    )

    def alpha2(i, j):
        return (
            r * (r - 1) / 2 * rho ** (-s) * g2(i, j)
            - s * rho ** (-(s + 1)) * u_hat * grho2(i, j)
            + 2 * u_hat * s * (s + 1) * rho ** (-(s + 2)) * grho1[i] * grho1[j]
            - 2 * r * s * rho ** (-(s + 1)) * grho1[i] * g1[j]
        )

    def alpha3(i):
        return (
            -4 * r**2 * s * rho ** (-(2 * s + 1)) * xi_g * grho1[i]
            + r**2 * rho ** (-2 * s) * (g1[i] ** 2 - xi_g)
            - 16 * s**2 * (s + 1) * rho ** (-(2 * s + 3)) * u_hat**2 * xi_rho * grho1[i]
            + 8 * r * s**2 * rho ** (-(2 * s + 2)) * u_hat * g1[i] * xi_rho
            + 4 * s**2 * rho ** (-(2 * s + 2)) * u_hat**2 * (grho1[i] ** 2 - xi_rho)
            - 4 * r * s * (
                -(4 * s + 2) * rho ** (-(2 * s + 2)) * grho1[i] * u_hat * xi_x
                + r * rho ** (-(2 * s + 1)) * g1[i] * xi_x
                + rho ** (-(2 * s + 1)) * u_hat * (g1[i] * grho1[i] - xi_x)
            )
        )

    def alpha4(i, j):
        return (
            2 * r**2 * (r - 1) * rho ** (-2 * s) * g1[i] * g2(i, j)
            + 8 * s**2 * rho ** (-(2 * s + 2)) * u_hat**2 * grho1[i] * grho2(i, j)
            - 4 * r * (r - 1) * s * rho ** (-(2 * s + 1)) * u_hat * grho1[i] * g2(i, j)
            - 4 * r * s * rho ** (-(2 * s + 1)) * u_hat * g1[i] * grho2(i, j)
        )

    e_a1_cubed = sum(a**3 for a in alpha1) / m
    e_a1_a3 = sum(alpha1[i] * alpha3(i) for i in range(m)) / m
    e_a4_a1 = sum(
        alpha4(i, j) * alpha1[j] for i in range(m) for j in range(m) if i != j
    ) / (m * (m - 1))
    e_a1a1a2 = sum(
        alpha1[i] * alpha1[j] * alpha2(i, j)
        for i in range(m) for j in range(m) if i != j
    ) / (m * (m - 1))
    xi_alpha = sum(a * a for a in alpha1) / m

    return {
        "rho_hat": rho,
        "u_hat": u_hat,
        "alpha0_hat": alpha0,
        "xi_g1_sq": xi_g,
        "xi_alpha1_sq": xi_alpha,
        "e_a1_cubed": e_a1_cubed,
        "e_a1_a3": e_a1_a3,
        "e_a4_a1": e_a4_a1,
        "e_a1a1a2": e_a1a1a2,
    }


def frozen_summary(graph, motif_name):
    """The nine summary fields of the dense pipeline, as a dict, for the
    edge, vshape and triangle motifs. Change nothing here: every expression
    keeps the operation order whose bits the package must reproduce."""
    r, edges = motif_edges_of(motif_name)
    s = len(edges)
    adj = graph.adj
    m = graph.m
    deg = graph.degrees
    rho = 2.0 * (int(deg.sum()) // 2) / (m * (m - 1))
    node_denom = comb(m - 1, r - 1)
    pair_denom = comb(m - 2, r - 2)

    # moment census
    if r == 3:
        a = adj.astype(np.float64)
        n2 = a @ a
        tri_per_node = (n2 * adj).sum(axis=1) / 2.0
        tri_total = tri_per_node.sum() / 3.0
    if r == 2:
        u_hat = rho
        node_avgs = deg / float(m - 1)
        pair_avgs = adj.astype(np.float64)
    elif s == 3:
        u_hat = float(tri_total) / comb(m, 3)
        node_avgs = tri_per_node / node_denom
        pair_avgs = a * n2 / pair_denom
    else:
        d = deg.astype(np.float64)
        centred = d * (d - 1) / 2.0
        u_hat = float(centred.sum() - 2.0 * tri_total) / comb(m, 3)
        cherries = centred + a @ (d - 1)
        node_avgs = (cherries - 2.0 * tri_per_node) / node_denom
        with_edge = d[:, None] + d[None, :] - 2.0 - n2
        pair_avgs = np.where(adj, with_edge, n2) / pair_denom
    np.fill_diagonal(pair_avgs, 0.0)

    # first-order projections
    g1 = node_avgs - u_hat
    grho1 = deg / (m - 1.0) - rho
    xi_g = float(np.mean(g1 * g1))
    xi_rho = float(np.mean(grho1 * grho1))
    xi_x = float(np.mean(g1 * grho1))

    # pair matrices
    gm2 = pair_avgs - (g1[:, None] + g1[None, :]) - u_hat
    np.fill_diagonal(gm2, 0.0)
    grm2 = adj.astype(np.float64) - (grho1[:, None] + grho1[None, :]) - rho
    np.fill_diagonal(grm2, 0.0)

    rp = {k: rho ** (-k) for k in (s, s + 1, s + 2, 2 * s, 2 * s + 1, 2 * s + 2, 2 * s + 3)}
    alpha1 = r * rp[s] * g1 - 2.0 * s * rp[s + 1] * u_hat * grho1
    alpha0 = (
        2.0 * s * (s + 1) * rp[s + 2] * u_hat * xi_rho
        - 2.0 * r * s * rp[s + 1] * xi_x
    )
    alpha3 = (
        -4.0 * r * r * s * rp[2 * s + 1] * xi_g * grho1
        + r * r * rp[2 * s] * (g1 * g1 - xi_g)
        - 16.0 * s * s * (s + 1) * rp[2 * s + 3] * u_hat * u_hat * xi_rho * grho1
        + 8.0 * r * s * s * rp[2 * s + 2] * u_hat * xi_rho * g1
        + 4.0 * s * s * rp[2 * s + 2] * u_hat * u_hat * (grho1 * grho1 - xi_rho)
        - 4.0 * r * s * (
            -(4.0 * s + 2.0) * rp[2 * s + 2] * u_hat * xi_x * grho1
            + r * rp[2 * s + 1] * xi_x * g1
            + rp[2 * s + 1] * u_hat * (g1 * grho1 - xi_x)
        )
    )
    alpha2 = (
        0.5 * r * (r - 1) * rp[s] * gm2
        - s * rp[s + 1] * u_hat * grm2
        + 2.0 * s * (s + 1) * rp[s + 2] * u_hat * np.outer(grho1, grho1)
        - 2.0 * r * s * rp[s + 1] * np.outer(grho1, g1)
    )
    alpha4 = (
        2.0 * r * r * (r - 1) * rp[2 * s] * (g1[:, None] * gm2)
        + 8.0 * s * s * rp[2 * s + 2] * u_hat * u_hat * (grho1[:, None] * grm2)
        - 4.0 * r * (r - 1) * s * rp[2 * s + 1] * u_hat * (grho1[:, None] * gm2)
        - 4.0 * r * s * rp[2 * s + 1] * u_hat * (g1[:, None] * grm2)
    )
    np.fill_diagonal(alpha2, 0.0)
    np.fill_diagonal(alpha4, 0.0)

    pairs = m * (m - 1)
    xi_alpha1_sq = float(np.mean(alpha1 * alpha1))
    cancel_floor = 1e-26 * float(
        np.mean((r * rp[s] * g1) ** 2)
        + np.mean((2.0 * s * rp[s + 1] * u_hat * grho1) ** 2)
    )
    if xi_alpha1_sq <= cancel_floor:
        xi_alpha1_sq = 0.0
    return {
        "rho_hat": rho,
        "u_hat": u_hat,
        "alpha0_hat": alpha0,
        "xi_g1_sq": xi_g,
        "xi_alpha1_sq": xi_alpha1_sq,
        "e_a1_cubed": float(np.mean(alpha1 ** 3)),
        "e_a1_a3": float(np.mean(alpha1 * alpha3)),
        "e_a4_a1": float(alpha4.sum(axis=0) @ alpha1) / pairs,
        "e_a1a1a2": float((alpha2 * np.outer(alpha1, alpha1)).sum()) / pairs,
    }


def frozen_load_edge_list(path, indexing="zero-based"):
    """The line-by-line edge-list loader, as it was before the array parser.
    Change nothing here: its graph, LoadReport and exception messages are
    what `load_edge_list` must reproduce."""
    if indexing not in ("zero-based", "one-based"):
        raise EdgeListError(f"unknown indexing {indexing!r}")
    shift = 1 if indexing == "one-based" else 0

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise EdgeListError(f"cannot read edge list {path}: {exc}") from exc

    declared_m = None
    pairs = []
    loops = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%"):
            tokens = line[1:].split()
            if len(tokens) == 2 and tokens[0].lower() == "nodes":
                try:
                    declared_m = int(tokens[1])
                except ValueError as exc:
                    raise EdgeListError(f"line {lineno}: bad %nodes header") from exc
                continue
            raise EdgeListError(f"line {lineno}: unknown directive {line!r}")
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(
                f"line {lineno}: expected two integer node ids, got {len(tokens)} "
                "tokens (weighted edge lists are not supported)"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise EdgeListError(f"line {lineno}: non-integer token") from exc
        u -= shift
        v -= shift
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative node id after indexing shift")
        if u == v:
            loops += 1
            continue
        pairs.append((min(u, v), max(u, v)))

    if not pairs and declared_m is None:
        raise EdgeListError(f"{path}: no edges and no %nodes header")
    max_id = max((max(p) for p in pairs), default=-1)
    m = declared_m if declared_m is not None else max_id + 1
    if declared_m is not None and max_id >= declared_m:
        raise EdgeListError(f"node id {max_id} exceeds declared %nodes {declared_m}")
    if m < 2:
        raise EdgeListError(f"resulting graph has m={m} < 2 nodes")

    unique = sorted(set(pairs))
    report = LoadReport(
        edges_kept=len(unique),
        self_loops_dropped=loops,
        duplicates_merged=len(pairs) - len(unique),
    )
    adj = np.zeros((m, m), dtype=bool)
    for u, v in unique:
        adj[u, v] = True
        adj[v, u] = True
    return Graph(adj, load_report=report)


def phi_cdf(u):
    return 0.5 * erfc(-u / sqrt(2.0))


def phi_pdf(u):
    return exp(-0.5 * u * u) / sqrt(2.0 * pi)


def straight_line_p_value(sa, sb, delta_t=0.0):
    """p-value from two summary dicts, transcribed formula by formula.

    `sa`/`sb` are dicts with keys n, motif_s, rho_hat, u_hat, alpha0_hat,
    xi_alpha1_sq, e_a1_cubed, e_a1_a3, e_a4_a1, e_a1a1a2.
    """
    m = sa["n"]
    n = sb["n"]
    s = sa["motif_s"]

    s_sq = sa["xi_alpha1_sq"] / m + sb["xi_alpha1_sq"] / n
    S = math.sqrt(s_sq)
    d_hat = sa["rho_hat"] ** (-s) * sa["u_hat"] - sb["rho_hat"] ** (-s) * sb["u_hat"]
    t_obs = d_hat / S + delta_t

    i0 = (sa["alpha0_hat"] / m - sb["alpha0_hat"] / n) / S
    q1 = 0.5 * S ** (-3) * (
        -(sa["e_a4_a1"] + sa["e_a1_a3"]) / m**2
        + (sb["e_a1_a3"] + sb["e_a4_a1"]) / n**2
    )
    q2 = S ** (-3) * (
        (sa["e_a1_cubed"] / 6 + sa["e_a1a1a2"]) / m**2
        - (sb["e_a1_cubed"] / 6 + sb["e_a1a1a2"]) / n**2
    ) + 0.5 * S ** (-5) * (
        (-sa["xi_alpha1_sq"] / m**3 - sb["xi_alpha1_sq"] / (m**2 * n))
        * (sa["e_a1_a3"] + sa["e_a4_a1"])
        + (sa["xi_alpha1_sq"] / (m * n**2) + sb["xi_alpha1_sq"] / n**3)
        * (sb["e_a1_a3"] + sb["e_a4_a1"])
    )

    g_val = phi_cdf(t_obs) - phi_pdf(t_obs) * (q1 + q2 * (t_obs**2 + 1) + i0)
    g_val = min(1.0, max(0.0, g_val))
    return 2.0 * min(g_val, 1.0 - g_val)


def summary_as_dict(summary):
    return {
        "n": summary.n,
        "motif_s": summary.motif_s,
        "rho_hat": summary.rho_hat,
        "u_hat": summary.u_hat,
        "alpha0_hat": summary.alpha0_hat,
        "xi_alpha1_sq": summary.xi_alpha1_sq,
        "e_a1_cubed": summary.e_a1_cubed,
        "e_a1_a3": summary.e_a1_a3,
        "e_a4_a1": summary.e_a4_a1,
        "e_a1a1a2": summary.e_a1a1a2,
    }


def frozen_cdf_chunk(cfg, m, n, d_true, grid, cap_phi, lo, hi):
    """The CDF experiment chunk, one replicate at a time. Change nothing here."""
    from netmoment.edgeworth import combine, smoothing_noise, summarize
    from netmoment.inference import scaled_discrepancy
    from netmoment.motif import motif_from_spec
    from netmoment.projections import DegenerateGraphError
    from netmoment.rng import spawn_rng
    from netmoment.sim.experiments import _sample_pair

    motif = motif_from_spec(cfg.motif)
    u2p1 = grid * grid + 1.0
    phi_grid = np.exp(-0.5 * grid * grid) / np.sqrt(2.0 * np.pi)

    t_values = []
    g_sum = np.zeros_like(grid)
    skipped = 0
    clamps = 0
    for rep in range(lo, hi):
        rng = spawn_rng(cfg.seed, "cdf", m, n, rep)
        sa_net, sb_net = _sample_pair(cfg, m, n, rng)
        clamps += sa_net.clamp_count + sb_net.clamp_count
        try:
            sa = summarize(sa_net.graph, motif)
            sb = summarize(sb_net.graph, motif)
            coeffs = combine(sa, sb)
        except DegenerateGraphError:
            skipped += 1
            continue
        delta = smoothing_noise(m, n, cfg.c_delta, rng)
        t_values.append((scaled_discrepancy(sa, sb) - d_true) / coeffs.S + delta)
        corr = coeffs.Q1 + coeffs.Q2 * u2p1 + coeffs.I0
        g_sum += np.clip(cap_phi - phi_grid * corr, 0.0, 1.0)
    return t_values, g_sum, skipped, clamps


def frozen_coverage_chunk(cfg, m, n, d_true, lo, hi):
    """The coverage experiment chunk, one replicate at a time. Change nothing
    here."""
    from netmoment.edgeworth import (combine, cornish_fisher, norm_quantile,
                                     smoothing_noise, summarize)
    from netmoment.inference import interval_from_quantiles, scaled_discrepancy
    from netmoment.motif import motif_from_spec
    from netmoment.projections import DegenerateGraphError
    from netmoment.rng import spawn_rng
    from netmoment.sim.bootstrap import bootstrap_distribution
    from netmoment.sim.experiments import _sample_pair

    motifs = [motif_from_spec(name) for name in cfg.motifs]
    alpha = 1.0 - cfg.level
    covered = {(mo.name, meth): 0 for mo in motifs for meth in cfg.methods}
    lengths = {(mo.name, meth): 0.0 for mo in motifs for meth in cfg.methods}
    used = {mo.name: 0 for mo in motifs}
    skipped = {mo.name: 0 for mo in motifs}
    clamps = 0
    for rep in range(lo, hi):
        rng = spawn_rng(cfg.seed, "cov", m, n, rep)
        net_a, net_b = _sample_pair(cfg, m, n, rng)
        clamps += net_a.clamp_count + net_b.clamp_count
        for mo in motifs:
            try:
                sa = summarize(net_a.graph, mo)
                sb = summarize(net_b.graph, mo)
                coeffs = combine(sa, sb)
            except DegenerateGraphError:
                skipped[mo.name] += 1
                continue
            used[mo.name] += 1
            d_hat = scaled_discrepancy(sa, sb)
            delta = smoothing_noise(m, n, cfg.c_delta, rng)
            target = d_true[mo.name]
            for meth in cfg.methods:
                if meth == "edgeworth":
                    q_lo = cornish_fisher(coeffs, alpha / 2.0)
                    q_hi = cornish_fisher(coeffs, 1.0 - alpha / 2.0)
                elif meth == "normal":
                    q_lo = norm_quantile(alpha / 2.0)
                    q_hi = norm_quantile(1.0 - alpha / 2.0)
                else:
                    boot = bootstrap_distribution(
                        net_a.graph, net_b.graph, mo, meth,
                        n_boot=cfg.n_boot,
                        rng=spawn_rng(cfg.seed, "cov-boot", meth, m, n, rep),
                        center=d_hat, c_delta=cfg.c_delta,
                    )
                    if len(boot.values) < max(10, cfg.n_boot // 4):
                        continue
                    q_lo, q_hi = np.quantile(boot.values, [alpha / 2.0, 1.0 - alpha / 2.0])
                if q_lo >= q_hi:
                    continue
                lo_end, hi_end = interval_from_quantiles(d_hat, coeffs.S, delta, q_lo, q_hi)
                covered[(mo.name, meth)] += int(lo_end < target < hi_end)
                lengths[(mo.name, meth)] += hi_end - lo_end
    return covered, lengths, used, skipped, clamps


def frozen_population_moment_exact(graphon, motif, rho, quad_order=64):
    """`population_scaled_moment_exact` as it was when the quadrature route
    evaluated the graphon at every point of the r-fold grid, one pair of
    latent columns at a time. Change nothing here."""
    from netmoment.sim.graphons import gl_nodes
    from netmoment.sim.oracle import _containment_terms

    def containment(p_edges):
        total = np.zeros_like(np.asarray(p_edges[0], dtype=np.float64))
        for flags in _containment_terms(motif):
            prob = np.ones_like(total)
            for flag, p in zip(flags, p_edges):
                prob = prob * (p if flag else (1.0 - p))
            total += prob
        return total

    r, s = motif.r, motif.s
    scale = rho ** (-s)
    pairs = list(itertools.combinations(range(r), 2))
    if graphon.is_block:
        sizes = np.asarray(graphon.block_sizes)
        rates = np.asarray(graphon.block_rates)
        total = 0.0
        for assign in itertools.product(range(len(sizes)), repeat=r):
            weight = float(np.prod(sizes[list(assign)]))
            p_edges = [np.asarray(np.clip(rho * rates[assign[a], assign[b]], 0.0, 1.0),
                                  dtype=np.float64) for a, b in pairs]
            total += weight * float(containment(p_edges))
        return scale * total
    x, w = gl_nodes(quad_order)
    grids = np.meshgrid(*([x] * r), indexing="ij")
    latents = np.stack([g.ravel() for g in grids], axis=1)
    p_edges = [np.clip(rho * np.asarray(graphon.f(latents[:, a], latents[:, b]),
                                        dtype=np.float64), 0.0, 1.0) for a, b in pairs]
    cond = containment(p_edges)
    weights = np.ones_like(cond)
    for wg in np.meshgrid(*([w] * r), indexing="ij"):
        weights = weights * wg.ravel()
    return scale * float(weights @ cond)


def frozen_save_edge_list(g, path):
    """The edge-list writer, one `write` per edge, as it was before the block
    writer. Change nothing here: its file is what `save_edge_list` must
    write, byte for byte."""
    iu, ju = np.nonzero(np.triu(g.adj, k=1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%nodes {g.m}\n")
        for u, v in zip(iu.tolist(), ju.tolist()):
            fh.write(f"{u} {v}\n")


def frozen_sample_network(graphon, rho, m, rng):
    """The network sampler over `np.triu_indices` pairs, as it was before the
    whole-grid sampler. Change nothing here: its adjacency, latents and clamp
    count are what `sample_network` must reproduce."""
    from netmoment.sim.graphons import SampledNetwork

    if m < 2:
        raise ValueError("need m >= 2")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0,1], got {rho}")
    x = rng.random(m)
    iu, ju = np.triu_indices(m, k=1)
    w = rho * np.asarray(graphon.f(x[iu], x[ju]), dtype=np.float64)
    clamped = int(np.count_nonzero((w > 1.0) | (w < 0.0)))
    w = np.clip(w, 0.0, 1.0)
    edges = rng.random(w.shape[0]) < w
    adj = np.zeros((m, m), dtype=bool)
    adj[iu, ju] = edges
    adj[ju, iu] = edges
    return SampledNetwork(graph=Graph(adj, _owned=True), latents=x, clamp_count=clamped)


def frozen_query(keyword, db, motif_name, level=0.05, c_delta=0.01, seed=0):
    """The store query, one `spawn_rng` and one `two_sample_test` per entry,
    in id order, as it was before the store was scored over arrays. Change
    nothing here."""
    from netmoment.hashdb import QueryHit
    from netmoment.inference import two_sample_test
    from netmoment.rng import spawn_rng

    if motif_name not in keyword.summaries:
        raise ValueError(f"keyword record has no summary for motif {motif_name!r}")
    ka = keyword.summaries[motif_name]
    hits = []
    for rec in db.with_motif(motif_name):
        sb = rec.summaries[motif_name]
        rng = spawn_rng(seed, "query-delta", rec.network_id)
        result = two_sample_test(ka, sb, level=level, c_delta=c_delta, rng=rng)
        hits.append(
            QueryHit(
                network_id=rec.network_id,
                motif=motif_name,
                p_value=result.p_value,
                passed_screen=result.p_value >= level,
            )
        )
    hits.sort(key=lambda h: (-h.p_value, h.network_id))
    return hits
