"""Maximal ancestral graphs without undirected edges.

Core objects: :class:`MixedGraph` (raw mixed graph) and :class:`Mag`
(validated maximal ancestral graph).  On top of them: m-separation queries,
Markov equivalence tests, equivalence-preserving single-edge replacements,
and exhaustive small-n enumeration with theorem-verification and
conjecture-sweep reports.
"""

from .errors import (
    InputError,
    MoveRejectedError,
    NotAMagError,
    ParseError,
    PreconditionError,
)
from .graph import (
    Edge,
    EdgeKind,
    Mag,
    MixedGraph,
    ancestors,
    bidirected,
    canonical_key,
    directed,
    format_path,
    inducing_path_exists,
    is_ancestral,
    is_mag,
    is_maximal,
    simple_paths_between,
)
from .separation import (
    SeparationQuery,
    find_connecting_path,
    find_separator,
    m_connected,
    m_separated_sets,
    separation_signature,
)
from .equivalence import (
    discriminating_path_exists_for_triple,
    equivalence_witness,
    is_discriminating_path,
    markov_equivalent,
    markov_equivalent_bruteforce,
    signature_witness,
    unshielded_colliders,
)
from .transform import (
    ClosureResult,
    MoveDescriptor,
    MoveKind,
    apply_move,
    delta,
    equivalence_class_closure,
    is_blanketed_bidirected_against,
    is_blanketed_directed,
    is_screened,
    legal_moves,
)
from .io import (
    graph_to_dot,
    graph_to_json,
    graph_to_json_dict,
    load_graph,
    parse_dot,
    parse_graph_json,
)

__version__ = "0.1.0"

# The sweeps load numpy; these names import ``enumeration`` on first use,
# so one-graph work never loads it.
_ENUMERATION = {
    "ClassPartition", "ConjectureReport", "EquivalenceReport",
    "enumerate_mags", "check_lemma1", "graph_from_pair_code",
    "partition_into_classes", "test_conjecture1", "verify_theorems",
}


def __getattr__(name: str):
    if name not in _ENUMERATION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import enumeration

    value = globals()[name] = getattr(enumeration, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ENUMERATION)

__all__ = [
    "InputError",
    "ParseError",
    "PreconditionError",
    "NotAMagError",
    "MoveRejectedError",
    "Edge",
    "EdgeKind",
    "MixedGraph",
    "Mag",
    "directed",
    "bidirected",
    "ancestors",
    "is_ancestral",
    "is_maximal",
    "is_mag",
    "inducing_path_exists",
    "canonical_key",
    "simple_paths_between",
    "format_path",
    "SeparationQuery",
    "m_connected",
    "m_separated_sets",
    "find_separator",
    "find_connecting_path",
    "separation_signature",
    "unshielded_colliders",
    "is_discriminating_path",
    "discriminating_path_exists_for_triple",
    "equivalence_witness",
    "markov_equivalent",
    "markov_equivalent_bruteforce",
    "signature_witness",
    "MoveKind",
    "MoveDescriptor",
    "ClosureResult",
    "is_blanketed_directed",
    "is_blanketed_bidirected_against",
    "is_screened",
    "apply_move",
    "legal_moves",
    "delta",
    "equivalence_class_closure",
    "enumerate_mags",
    "graph_from_pair_code",
    "ClassPartition",
    "partition_into_classes",
    "check_lemma1",
    "ConjectureReport",
    "EquivalenceReport",
    "test_conjecture1",
    "verify_theorems",
    "graph_to_json",
    "graph_to_json_dict",
    "parse_graph_json",
    "graph_to_dot",
    "parse_dot",
    "load_graph",
    "__version__",
]
