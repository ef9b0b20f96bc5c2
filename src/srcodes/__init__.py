"""srcodes: simple regenerating codes for erasure-coded storage.

An (n, k, f) code stores a file on n nodes so that any k recover it
(via f parallel systematic MDS codewords over GF(256)) while any single
chunk or node is rebuilt by XORing f same-subscript chunks read from
min(2f, n-1) disks.  Also ships a deterministic cluster repair
simulator and a Markov MTTF analyzer for comparing against 3-way
replication and Reed-Solomon coding.
"""

from .core import ChunkId, CodedArray, SrcParams, StripeLayout, encode, \
    layout, reconstruct, ring_add, ring_sub
from .errors import (InsufficientDataError, IntegrityError, ParameterError,
                     PlacementError, RepairError, ShapeError, SrcError)
from .mds import GeneratorMatrix, make_generator, mds_decode, mds_encode
from .metrics import (MetricRow, asymptotic_report, comparison_table,
                      replication_normalized_cost, src_metrics)
from .reliability import (MarkovParams, mttf_redundancy_set, mttf_system,
                          mttf_table, params_for_scheme)
from .repair import (ChunkStore, NodeRepairPlan, RepairPlan,
                     chunk_repair_plan, chunks_from_shards, degraded_read,
                     execute_repair, node_repair_plan)
from .sim import (Cluster, ClusterConfig, Scheme, SimReport, build_cluster,
                  repair_time_cdf, run_degraded_read, run_node_failure)

__version__ = "0.1.0"

__all__ = [
    "ChunkId", "CodedArray", "SrcParams", "StripeLayout", "encode", "layout",
    "reconstruct", "ring_add", "ring_sub",
    "GeneratorMatrix", "make_generator", "mds_decode", "mds_encode",
    "MetricRow", "asymptotic_report", "comparison_table",
    "replication_normalized_cost", "src_metrics",
    "MarkovParams", "mttf_redundancy_set", "mttf_system", "mttf_table",
    "params_for_scheme",
    "ChunkStore", "NodeRepairPlan", "RepairPlan", "chunk_repair_plan",
    "chunks_from_shards", "degraded_read", "execute_repair", "node_repair_plan",
    "Cluster", "ClusterConfig", "Scheme", "SimReport", "build_cluster",
    "repair_time_cdf", "run_degraded_read", "run_node_failure",
    "SrcError", "ParameterError", "ShapeError", "InsufficientDataError",
    "RepairError", "IntegrityError", "PlacementError",
]
