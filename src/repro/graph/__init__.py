"""Message dependency graphs, Occurs-After predicates, stability analysis."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "antichain": ("chain_cover_size", "maximum_antichain", "width"),
    "depgraph": ("DependencyGraph",),
    "render": ("depth_levels", "to_ascii", "to_dot"),
    "predicates": ("OccursAfter",),
    "stability": (
        "commutativity_guarantees_stability",
        "concurrent_pairs",
        "is_transition_preserving",
        "run_sequence",
    ),
})

__all__ = [
    "DependencyGraph",
    "chain_cover_size",
    "OccursAfter",
    "commutativity_guarantees_stability",
    "concurrent_pairs",
    "depth_levels",
    "is_transition_preserving",
    "maximum_antichain",
    "run_sequence",
    "to_ascii",
    "to_dot",
    "width",
]
