"""Command-line front-end: hash, query, test, ci, simulate.

Results go to stdout (JSON by default, CSV with --format csv); diagnostics,
load reports and the resolved seed go to stderr. Every run resolves a seed
(explicit flag, NETMOMENT_SEED, or generated and printed) so any output can
be reproduced byte-for-byte by replaying it. Exit codes: 0 success (including
'not found' query results), 1 data errors, 2 usage errors; both kinds of error
also emit a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import secrets
import sys

from . import __version__
from .csvout import write_csv
from .edgeworth import rate_diagnostic, summarize
from .graph import EdgeListError, load_edge_list
from .hashdb import DbFormatError, db_append, db_load, hash_network, query
from .inference import confidence_interval, two_sample_test
from .motif import motif_by_name
from .projections import DegenerateGraphError
from .rng import spawn_rng

logger = logging.getLogger("netmoment")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors become UsageError (exit 2, JSON on stderr)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _nonnegative(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _resolve_seed(args) -> int:
    source, seed = "--seed", getattr(args, "seed", None)
    if seed is None and (env := os.environ.get("NETMOMENT_SEED")) is not None:
        try:
            source, seed = "NETMOMENT_SEED", int(env)
        except ValueError as exc:
            raise UsageError(f"NETMOMENT_SEED must be an integer, got {env!r}") from exc
    if seed is None:
        return secrets.randbits(32)
    if not 0 <= seed < 2**64:  # the streams read a seed modulo 2**64
        raise UsageError(f"{source} must lie in 0 <= seed < 2**64, got {seed}")
    return seed


def _parse_motifs(spec: str):
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not names:
        raise UsageError("empty motif list")
    try:
        motifs = [motif_by_name(name) for name in names]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    resolved = [motif.name for motif in motifs]
    if len(set(resolved)) != len(resolved):
        raise UsageError(f"duplicate motif names in {spec!r}: {resolved}")
    return motifs


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, default=str))
        sys.stdout.write("\n")
        return
    rows = payload if isinstance(payload, list) else [payload]
    write_csv([
        {k: (json.dumps(v, sort_keys=True, default=str)
             if isinstance(v, (dict, list)) else v)
         for k, v in row.items()}
        for row in rows
    ], sys.stdout)


def _cmd_hash(args) -> int:
    seed = _resolve_seed(args)
    print(f"seed: {seed}", file=sys.stderr)
    motifs = _parse_motifs(args.motifs)
    g = load_edge_list(args.input, indexing=args.indexing)
    record = hash_network(g, motifs, args.id)
    for motif in motifs:
        if motif.name in record.summaries:
            rate = rate_diagnostic(g.m, record.summaries[motif.name].rho_hat, motif)
            print(f"rate diagnostic {motif.name}: {rate:.4g}", file=sys.stderr)
    db_append(args.out, record)
    _emit(
        {
            "network_id": record.network_id,
            "n": record.n,
            "motifs": record.motifs(),
            "out": str(args.out),
            "seed": seed,
        },
        args.format,
    )
    return 0


def _cmd_query(args) -> int:
    seed = _resolve_seed(args)
    print(f"seed: {seed}", file=sys.stderr)
    motifs = _parse_motifs(args.motif)
    db = db_load(args.db)
    g = load_edge_list(args.keyword, indexing=args.indexing)
    keyword_rec = hash_network(g, motifs, "keyword")
    # querying consumes only summary records from here on
    per_motif = {
        motif.name: query(keyword_rec, db, motif.name, level=args.alpha,
                          c_delta=args.c_delta, seed=seed)
        for motif in motifs
    }
    if args.combine == "bonferroni" and len(motifs) > 1:
        by_id: dict[str, dict] = {}
        for name, hits in per_motif.items():
            for h in hits:
                by_id.setdefault(h.network_id, {})[name] = h.p_value
        combined = []
        for network_id, pvals in sorted(by_id.items()):
            p = min(1.0, min(pvals.values()) * len(motifs))
            combined.append({
                "network_id": network_id,
                "motif": "+".join(sorted(pvals)),
                "p_value": p,
                "passed_screen": p >= args.alpha,
            })
        combined.sort(key=lambda h: (-h["p_value"], h["network_id"]))
        hits_out = combined
    else:
        hits_out = [
            {
                "network_id": h.network_id,
                "motif": h.motif,
                "p_value": h.p_value,
                "passed_screen": h.passed_screen,
            }
            for name in sorted(per_motif)
            for h in per_motif[name]
        ]
    screened = [h["network_id"] for h in hits_out if h["passed_screen"]]
    _emit(
        {
            "hits": hits_out,
            "screened": sorted(set(screened)),
            "status": "ok" if screened else "not found",
            "alpha": args.alpha,
            "seed": seed,
        },
        args.format,
    )
    return 0


def _summarize_pair(args):
    """Resolve the seed, then load and summarize the --a and --b edge lists."""
    seed = _resolve_seed(args)
    print(f"seed: {seed}", file=sys.stderr)
    motif = motif_by_name(args.motif)
    # the loader logs its report; basicConfig routes it to stderr
    ga = load_edge_list(args.a, indexing=args.indexing)
    gb = load_edge_list(args.b, indexing=args.indexing)
    sa = summarize(ga, motif, network_id=str(args.a))
    sb = summarize(gb, motif, network_id=str(args.b))
    return seed, sa, sb


def _cmd_test(args) -> int:
    seed, sa, sb = _summarize_pair(args)
    rng = spawn_rng(seed, "cli-test")
    result = two_sample_test(sa, sb, level=args.alpha, c_delta=args.c_delta, rng=rng)
    _emit(result.as_record(sa, sb, seed=seed), args.format)
    return 0


def _cmd_ci(args) -> int:
    seed, sa, sb = _summarize_pair(args)
    rng = spawn_rng(seed, "cli-ci")
    lo, hi = confidence_interval(sa, sb, level=args.level,
                                 c_delta=args.c_delta, rng=rng)
    _emit(
        {
            "motif": sa.motif_name,
            "m": sa.n,
            "n": sb.n,
            "level": args.level,
            "lo": lo,
            "hi": hi,
            "seed": seed,
        },
        args.format,
    )
    return 0


def _cmd_simulate(args) -> int:
    from .sim.experiments import config_from_dict, run_experiment, stable_meta, write_outputs

    seed_given = args.seed is not None or "NETMOMENT_SEED" in os.environ
    with open(args.config, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if type(payload) is not dict:
        raise ValueError(f"{args.kind} config must be a JSON object, got {json.dumps(payload)}")
    if seed_given:
        payload["seed"] = _resolve_seed(args)
    if args.threads is not None:
        payload["n_jobs"] = args.threads
    cfg = config_from_dict(args.kind, payload)
    print(f"seed: {cfg.seed}", file=sys.stderr)
    result = run_experiment(args.kind, cfg)
    if args.out is not None:
        write_outputs(result, args.out)
        print(f"wrote {args.out} (+ sidecar)", file=sys.stderr)
    if args.format == "json":
        _emit({"rows": result.rows, "meta": stable_meta(result)}, "json")
    else:
        _emit(result.rows, "csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netmoment",
        description="Moment-based two-sample network inference and hashing toolkit",
    )
    parser.add_argument("--version", action="version", version=f"netmoment {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_cdelta=True, reads_edges=True):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (fallback: NETMOMENT_SEED, else generated)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if reads_edges:
            p.add_argument("--indexing", choices=("zero-based", "one-based"),
                           default="zero-based")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for `simulate` (default: cores); "
                            "the other commands accept and ignore it")
        if with_cdelta:
            p.add_argument("--c-delta", dest="c_delta", type=_nonnegative, default=0.01,
                           help="smoothing noise constant (0 disables)")

    p = sub.add_parser("hash", help="hash a network into a summary db (offline step)")
    p.add_argument("--input", required=True)
    p.add_argument("--motifs", required=True, help="comma list, e.g. triangle,vshape")
    p.add_argument("--id", required=True)
    p.add_argument("--out", required=True)
    common(p, with_cdelta=False)
    p.set_defaults(func=_cmd_hash)

    p = sub.add_parser("query", help="rank db entries against a keyword network")
    p.add_argument("--keyword", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--motif", required=True)
    p.add_argument("--alpha", type=_probability, default=0.05)
    p.add_argument("--combine", choices=("bonferroni",), default=None)
    common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("test", help="two-sample moment test on two edge lists")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--motif", required=True)
    p.add_argument("--alpha", type=_probability, default=0.05)
    common(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("ci", help="Cornish-Fisher interval for the moment discrepancy")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--motif", required=True)
    p.add_argument("--level", type=_probability, default=0.90)
    common(p)
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("simulate", help="run a simulation experiment from a config file")
    p.add_argument("kind", choices=("cdf", "coverage", "query-bench", "bootstrap"))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="also write CSV + JSON sidecar here")
    common(p, with_cdelta=False, reads_edges=False)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return 2
    except (EdgeListError, DbFormatError, DegenerateGraphError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "kind": "data"}), file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
