"""Exact mapping of quantum circuits onto device coupling graphs: minimal
swap-count search, verifiable plans, hardness-construction gadgets, and a
reproducible benchmark harness."""

from .bench import (
    CSV_HEADER, ExperimentRow, RandomCircuitSpec,
    emit_csv, gen_random_circuit, parse_csv, run_benchmark,
)
from .circuits import (
    Circuit, DependencyGraph, Gate, LayerPartition, TopologyGraph,
    build_dependency_graph, build_layers, build_topology_graph,
)
from .coupling import (
    FAMILIES, CouplingGraph, aspen, clique, cycle, gen, grid_hex, grid_square,
    grid_triangle, linear, tokyo,
)
from .errors import ParseError, ResourceLimitError
from .formats import (
    format_circuit, format_graph, format_plan, load_circuit, load_graph,
    load_plan, parse_circuit, parse_graph, parse_plan, save_circuit,
    save_graph, save_plan,
)
from .gadgets import (
    Digraph, ReductionInstance, build_usp_gadget, check_fixed_k_instance,
    check_usp_instance, circuit_from_degree_bounded_graph, fixed_k_witness_plan,
    gen_clique_circuit, gen_cycle_circuit, gen_path_circuit, load_instance,
    parallel_bridge, reduce_clique_to_qcm, reduce_hamcycle_to_fixed_k,
    reduce_hamcycle_to_hampath_qcm, reduce_hamcycle_to_qcm, reduce_usp_to_qcm,
    repeat_circuit, save_instance, usp_witness_plan,
)
from .mapper import (
    DEFAULT_STATE_CAP, MapResult, Placement, SearchState, SwapPlan,
    decide, search_levels, solve_exact, solve_from, upper_bound,
)
from .oracle import (
    VerificationReport, brute_force_g, ham_cycle, ham_path,
    max_clique_at_least, shortest_path, shortest_path_nodes, verify_plan,
)
from .subcircuits import (
    CircuitType, Subcircuit, SubcircuitDescriptor, circuit_type, descriptor,
    front_gates, is_smaller, minimize, reduce_subcircuit, restore,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER", "Circuit", "CircuitType", "CouplingGraph",
    "DEFAULT_STATE_CAP", "DependencyGraph", "Digraph", "ExperimentRow",
    "FAMILIES", "Gate", "LayerPartition", "MapResult", "ParseError",
    "Placement", "RandomCircuitSpec", "ReductionInstance",
    "ResourceLimitError", "SearchState", "Subcircuit", "SubcircuitDescriptor",
    "SwapPlan", "TopologyGraph", "VerificationReport", "aspen",
    "brute_force_g", "build_dependency_graph", "build_layers",
    "build_topology_graph", "build_usp_gadget", "check_fixed_k_instance",
    "check_usp_instance", "circuit_from_degree_bounded_graph", "circuit_type",
    "clique", "cycle", "decide", "descriptor", "emit_csv",
    "fixed_k_witness_plan", "format_circuit", "format_graph", "format_plan",
    "front_gates", "gen", "gen_clique_circuit", "gen_cycle_circuit",
    "gen_path_circuit", "gen_random_circuit", "grid_hex", "grid_square",
    "grid_triangle", "ham_cycle", "ham_path", "is_smaller", "linear",
    "load_circuit", "load_graph", "load_instance", "load_plan",
    "max_clique_at_least", "minimize", "parallel_bridge", "parse_circuit",
    "parse_csv", "parse_graph", "parse_plan", "reduce_clique_to_qcm",
    "reduce_hamcycle_to_fixed_k", "reduce_hamcycle_to_hampath_qcm",
    "reduce_hamcycle_to_qcm", "reduce_subcircuit", "reduce_usp_to_qcm",
    "repeat_circuit", "restore", "run_benchmark", "save_circuit",
    "save_graph", "save_instance", "save_plan", "search_levels",
    "shortest_path", "shortest_path_nodes", "solve_exact", "solve_from",
    "tokyo", "upper_bound", "usp_witness_plan", "verify_plan",
]
