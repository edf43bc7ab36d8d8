"""Exact mapping of quantum circuits onto device coupling graphs: minimal
swap-count search, verifiable plans, hardness-construction gadgets, and a
reproducible benchmark harness.

``import qcmap`` loads no submodule: each is loaded when one of its names
is first read, and the name is then kept in this module's globals.
"""

# Per submodule, the names it exports; ``__all__`` is derived from this.
_EXPORTS = {
    "bench": "CSV_HEADER ExperimentRow RandomCircuitSpec emit_csv gen_random_circuit "
             "parse_csv run_benchmark",
    "circuits": "Circuit Gate LayerPartition TopologyGraph build_layers build_topology_graph",
    "coupling": "FAMILIES CouplingGraph aspen clique cycle gen grid_hex grid_square "
                "grid_triangle linear tokyo",
    "errors": "ParseError ResourceLimitError",
    "formats": "format_circuit format_graph format_plan load_circuit load_graph load_plan "
               "parse_circuit parse_graph parse_plan save_circuit save_graph save_plan",
    "gadgets": "Digraph ReductionInstance build_usp_gadget check_fixed_k_instance "
               "check_usp_instance circuit_from_degree_bounded_graph fixed_k_witness_plan "
               "gen_clique_circuit gen_cycle_circuit gen_path_circuit load_instance "
               "parallel_bridge reduce_clique_to_qcm reduce_hamcycle_to_fixed_k "
               "reduce_hamcycle_to_hampath_qcm reduce_hamcycle_to_qcm reduce_usp_to_qcm "
               "repeat_circuit save_instance usp_witness_plan",
    "mapper": "DEFAULT_STATE_CAP MapResult Placement SearchState SwapPlan decide "
              "search_levels solve_exact solve_from upper_bound",
    "oracle": "VerificationReport brute_force_g ham_cycle ham_path max_clique_at_least "
              "shortest_path shortest_path_nodes verify_plan",
    "subcircuits": "CircuitType Subcircuit SubcircuitDescriptor circuit_type descriptor "
                   "front_gates is_smaller minimize reduce_subcircuit restore",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
