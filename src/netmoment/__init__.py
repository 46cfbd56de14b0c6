"""netmoment: two-sample network moment inference and network hashing.

Compare two networks of possibly very different sizes and sparsities through
their motif moments: each network is reduced offline to a short summary
vector, and every later pairwise test, p-value, or confidence interval is
computed from summaries alone with higher-order accurate (Edgeworth-style)
corrections. Includes a graphon simulation harness for validating coverage,
distribution accuracy, and database-query behavior.
"""

__version__ = "0.1.0"

from .graph import Graph, LoadReport, density, load_edge_list, permute, save_edge_list
from .motif import (
    EDGE,
    TRIANGLE,
    VSHAPE,
    Motif,
    contains_motif,
    moment_u,
    moment_u_bruteforce,
    motif_by_name,
)
from .projections import DegenerateGraphError, ProjectionSet, project
from .edgeworth import (
    EdgeworthCoeffs,
    NetworkSummary,
    cdf,
    combine,
    cornish_fisher,
    rate_diagnostic,
    smoothing_noise,
    summarize,
)
from .inference import TestResult, confidence_interval, scaled_discrepancy, two_sample_test
from .hashdb import HashDb, HashRecord, QueryHit, db_append, db_load, hash_network, query

__all__ = [
    "__version__",
    "Graph",
    "LoadReport",
    "density",
    "load_edge_list",
    "permute",
    "save_edge_list",
    "Motif",
    "EDGE",
    "VSHAPE",
    "TRIANGLE",
    "motif_by_name",
    "contains_motif",
    "moment_u",
    "moment_u_bruteforce",
    "ProjectionSet",
    "DegenerateGraphError",
    "project",
    "NetworkSummary",
    "EdgeworthCoeffs",
    "summarize",
    "combine",
    "cdf",
    "cornish_fisher",
    "smoothing_noise",
    "rate_diagnostic",
    "TestResult",
    "two_sample_test",
    "confidence_interval",
    "scaled_discrepancy",
    "HashRecord",
    "HashDb",
    "QueryHit",
    "hash_network",
    "db_append",
    "db_load",
    "query",
]
