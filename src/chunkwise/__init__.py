"""Chunk planning for present-biased agents on weighted task DAGs."""

from .agent import (
    BiasProfile,
    TraversalTrace,
    best_alternative,
    cost_ratio,
    perceived_cost,
    selective_bias_equivalence_check,
    simulate_plan,
    traverse,
    walk_plan,
)
from .edge_chunk import (
    Chunking,
    ChunkingReport,
    chunk_shortest_edge,
    delta,
    evaluate_chunking,
    min_chunks_to_beat,
    optimal_edge_chunking,
    selective_bias_closed_form,
)
from .errors import ChunkwiseError
from .expansion import ChunkedGraph, ChunkPlan, PlanView, expand_plan
from .graph import (
    DistanceMap,
    FanSpec,
    TaskGraph,
    graph_to_dot,
    load_graph,
    make_n_fan,
    random_task_graph,
    save_graph,
    shortest_to_sink,
    validate,
)
from .graph_chunk import BudgetSpec, chunk_graph_global, chunk_graph_local
from .multi_agent import (
    AgentSet,
    chunk_same_path,
    chunk_split,
    m_agent_single_path_plan,
    two_agent_plan,
)
from .oracle import (
    GridSpec,
    brute_force_edge_chunking,
    brute_force_graph_plan,
    brute_force_two_agent_plan,
    chunks_for_constant_ratio,
    cost_ratio_curve,
)
from .rational import Rat, format_rat, rat

__version__ = "0.1.0"

__all__ = [
    "AgentSet",
    "BiasProfile",
    "BudgetSpec",
    "ChunkedGraph",
    "Chunking",
    "ChunkingReport",
    "ChunkPlan",
    "ChunkwiseError",
    "DistanceMap",
    "FanSpec",
    "GridSpec",
    "PlanView",
    "Rat",
    "TaskGraph",
    "TraversalTrace",
    "best_alternative",
    "brute_force_edge_chunking",
    "brute_force_graph_plan",
    "brute_force_two_agent_plan",
    "chunk_graph_global",
    "chunk_graph_local",
    "chunk_same_path",
    "chunk_shortest_edge",
    "chunk_split",
    "chunks_for_constant_ratio",
    "cost_ratio",
    "cost_ratio_curve",
    "delta",
    "evaluate_chunking",
    "expand_plan",
    "format_rat",
    "graph_to_dot",
    "load_graph",
    "m_agent_single_path_plan",
    "make_n_fan",
    "min_chunks_to_beat",
    "optimal_edge_chunking",
    "perceived_cost",
    "random_task_graph",
    "rat",
    "save_graph",
    "selective_bias_closed_form",
    "selective_bias_equivalence_check",
    "shortest_to_sink",
    "simulate_plan",
    "traverse",
    "two_agent_plan",
    "validate",
    "walk_plan",
]
