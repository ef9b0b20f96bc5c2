"""srcodes: simple regenerating codes for erasure-coded storage.

An (n, k, f) code stores a file on n nodes so that any k recover it
(via f parallel systematic MDS codewords over GF(256)) while any single
chunk or node is rebuilt by XORing f same-subscript chunks read from
min(2f, n-1) disks.  Also ships a deterministic cluster repair
simulator and a Markov MTTF analyzer for comparing against 3-way
replication and Reed-Solomon coding.
"""

from .core import ChunkId, ChunkPlan, CodedArray, SrcParams, Step, \
    chunks_from_shards, data_chunks, encode, plan_chunks, reconstruct, \
    ring_add, ring_sub, run_plan
from .errors import (InsufficientDataError, IntegrityError, ParameterError,
                     PlacementError, ShapeError, SrcError)
from .mds import make_generator
from .metrics import (MetricRow, asymptotic_report, comparison_table,
                      src_metrics)
from .reliability import (MarkovParams, mttf_redundancy_set, mttf_system,
                          mttf_table)
from .sim import (Cluster, ClusterConfig, Scheme, SimReport, build_cluster,
                  repair_time_cdf, run_degraded_read, run_node_failure)

__version__ = "0.1.0"

__all__ = [
    "ChunkId", "ChunkPlan", "CodedArray", "SrcParams", "Step",
    "chunks_from_shards", "data_chunks", "encode", "plan_chunks",
    "reconstruct", "ring_add", "ring_sub", "run_plan",
    "make_generator",
    "MetricRow", "asymptotic_report", "comparison_table", "src_metrics",
    "MarkovParams", "mttf_redundancy_set", "mttf_system", "mttf_table",
    "Cluster", "ClusterConfig", "Scheme", "SimReport", "build_cluster",
    "repair_time_cdf", "run_degraded_read", "run_node_failure",
    "SrcError", "ParameterError", "ShapeError", "InsufficientDataError",
    "IntegrityError", "PlacementError",
]
