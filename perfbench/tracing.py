"""Per-function self times and counts, recorded from outside the program.

`install` wraps every public function of the layer modules and rebinds the
wrapper in every `arboreal` module namespace that holds the original: a
module that imports a function by name calls it through its own globals, so
wrapping it only where it is defined would miss those calls.
"""
from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "cliques", "networks", "build", "symbolic", "io", "cli")

# Result sizes recorded at the function boundary: key -> size of the result.
SIZES = {
    "cliques.maximal_cliques": ("sets", len),
    "cliques.intersection_closure": ("sets", len),
    "cliques.cover_digraph": ("arcs", lambda h: len(h.arcs)),
    "networks.validate_network": ("vertices", lambda net: net.num_vertices),
}


class Recorder:
    """Self time, call count and result sizes per wrapped function.

    A stack holds, for each active wrapped call, the time its wrapped
    callees took; a call's self time is its duration minus that.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.size_sum = Counter()
        self._child = []

    def wrap(self, key: str, fn):
        child = self._child
        self_s, calls = self.self_s, self.calls
        sized = SIZES.get(key)
        size_sum = self.size_sum

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self_s[key] += took - child.pop()
                calls[key] += 1
                if child:
                    child[-1] += took
            if sized is not None:
                size_sum[key] += sized[1](result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper


def public_functions(module) -> dict:
    """Functions a module defines itself and does not mark private."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def install(recorder: Recorder) -> list:
    """Wrap every public layer function everywhere it is bound; returns the
    (module, name, original) triples that `uninstall` puts back."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"arboreal.{layer}"]
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = recorder.wrap(f"{layer}.{name}", fn)
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "arboreal" and not modname.startswith("arboreal."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])
                undo.append((module, name, obj))
    return undo


def uninstall(undo: list):
    for module, name, original in undo:
        setattr(module, name, original)


# Functions reported as per-layer metrics: the ones the four workloads call.
FUNCTIONS = (
    "build.arboreal_representation", "build.build_network_from_cover",
    "build.contract_tree_arcs", "cli.main", "cliques.cover_digraph",
    "cliques.intersection_closure", "cliques.is_clique", "cliques.is_edge_clique_cover",
    "cliques.maximal_cliques", "graphs.contains_gem", "graphs.find_induced_hole",
    "graphs.induced_subgraph", "graphs.is_chordal", "graphs.is_connected",
    "graphs.is_ptolemaic", "io.load_json", "io.parse_graph", "io.parse_labelled",
    "io.parse_map", "io.parse_network", "io.serialize_graph", "io.serialize_labelled",
    "io.serialize_map", "io.serialize_network", "io.to_json", "networks.cluster",
    "networks.from_digraph", "networks.h_tilde", "networks.is_arboreal",
    "networks.shared_ancestry_graph", "networks.validate_network",
    "symbolic.build_ultrametric_tree", "symbolic.check_arboreal_conditions",
    "symbolic.check_violation", "symbolic.evaluate_map", "symbolic.explain",
    "symbolic.find_a4_violation", "symbolic.find_delta_violation",
    "symbolic.find_pi_violation", "symbolic.graph_of_map", "symbolic.is_discriminating",
    "symbolic.make_discriminating",
)
PER_REQUEST = ("graphs.contains_gem", "symbolic.evaluate_map", "networks.shared_ancestry_graph")


def layer_metrics(recorder: Recorder, requests: int) -> dict:
    """name -> (value, unit): self seconds per request and total calls for
    each reported function, mean result sizes, and calls per request."""
    out = {}
    for key in FUNCTIONS:
        out[f"{key}.self_s"] = (recorder.self_s[key] / requests, "s")
        out[f"{key}.calls"] = (recorder.calls[key], "count")
    for key, (what, _) in SIZES.items():
        calls = recorder.calls[key]
        out[f"{key}.{what}"] = (recorder.size_sum[key] / calls if calls else 0, "count")
    for key in PER_REQUEST:
        out[f"{key}.calls_per_request"] = (recorder.calls[key] / requests, "count")
    return out


def full_record(recorder: Recorder, requests: int, request_s: float) -> dict:
    """Every wrapped function that ran, and each layer's share of request time."""
    layers = Counter()
    for key, s in recorder.self_s.items():
        layers[key.split(".")[0]] += s
    return {
        "functions": {
            key: {"self_s_per_request": recorder.self_s[key] / requests,
                  "calls": recorder.calls[key]}
            for key in sorted(recorder.calls)
        },
        "layer_share_of_request_time": {k: v / request_s for k, v in sorted(layers.items())},
        "wrapped_share_of_request_time": sum(layers.values()) / request_s,
    }
