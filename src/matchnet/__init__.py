"""Sorting networks and permutation routing on graphs via matchings."""

from .constructions import (batcher_complete, bitonic_hypercube,
                            contour_tree_sort, longest_path_sort,
                            odd_even_transposition, parallel_subgraph_sort,
                            product_sort, pyramid_sort, sequential_sorter,
                            simulate_complete, subgraph_sort)
from .errors import (CapError, ConstructionError, ParameterError,
                     StructureError, TaskError)
from .graphs import (Graph, cartesian_product, complete_graph, cycle_graph,
                     from_json, generate, graph, hypercube_graph, mesh_graph,
                     multigrid_graph, multipartite_graph, path_graph,
                     pyramid_graph, random_tree, star_graph, to_dot, to_json)
from .network import (DIR, SWAP, RoutingPlan, SortingNetwork, concatenate,
                      execute, is_sorted_for, make_network, make_plan,
                      make_stage, network_from_json, network_to_json,
                      plan_from_json, plan_to_json)
from .routing import (route_auto, route_complete, route_depth_bound,
                      route_multigrid, route_multipartite, route_path,
                      route_product, route_to_path, route_tree,
                      two_cycle_decompose)
from .verify import (exact_rt, exact_rt_p, exact_rt_partial, exact_st,
                     exact_st_all_orders, sandwich_check, verify_auto,
                     verify_exhaustive, verify_random, verify_zero_one)

__version__ = "0.1.0"
