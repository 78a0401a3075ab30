import importlib
import pkgutil
from collections.abc import Iterator

import pytest
from hypothesis import given, settings, strategies as st

import magmoves
from magmoves import (
    Edge,
    EdgeKind,
    InputError,
    Mag,
    MixedGraph,
    MoveDescriptor,
    MoveKind,
    SeparationQuery,
    ancestors,
    apply_move,
    bidirected,
    canonical_key,
    check_lemma1,
    delta,
    directed,
    discriminating_path_exists_for_triple,
    equivalence_class_closure,
    equivalence_witness,
    find_connecting_path,
    find_separator,
    format_path,
    graph_to_dot,
    graph_to_json,
    graph_to_json_dict,
    inducing_path_exists,
    is_ancestral,
    is_blanketed_bidirected_against,
    is_blanketed_directed,
    is_discriminating_path,
    is_mag,
    is_maximal,
    is_screened,
    legal_moves,
    m_connected,
    m_separated_sets,
    markov_equivalent,
    markov_equivalent_bruteforce,
    partition_into_classes,
    separation_signature,
    signature_witness,
    simple_paths_between,
    unshielded_colliders,
)

MODULES = [magmoves] + [
    importlib.import_module(f"magmoves.{info.name}")
    for info in pkgutil.iter_modules(magmoves.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []


# -- the public API raises only InputError on ill-typed arguments ----------

_G = MixedGraph(3, [directed(0, 1), bidirected(1, 2)])  # a MAG
_M = Mag(_G)

# Every public name that takes a graph, a MAG or nodes, with valid
# arguments; the fuzz test replaces some of them with ill-typed values.
_CALLS = {
    "Edge": (Edge, (EdgeKind.DIRECTED, 0, 1)),
    "MixedGraph": (MixedGraph, (3, [directed(0, 1)], None)),
    "Mag": (Mag, (_G,)),
    "directed": (directed, (0, 1)),
    "bidirected": (bidirected, (0, 1)),
    "ancestors": (ancestors, (_G, 1)),
    "is_ancestral": (is_ancestral, (_G,)),
    "is_maximal": (is_maximal, (_G,)),
    "is_mag": (is_mag, (_G,)),
    "inducing_path_exists": (inducing_path_exists, (_G, 0, 2)),
    "canonical_key": (canonical_key, (_M,)),
    "simple_paths_between": (simple_paths_between, (_G, 0, 2)),
    "format_path": (format_path, (_G, (0, 1, 2))),
    "SeparationQuery": (SeparationQuery, ({0}, {2}, {1})),
    "m_connected": (m_connected, (_G, 0, 2, (1,))),
    "m_separated_sets": (m_separated_sets, (_G, SeparationQuery({0}, {2}))),
    "find_separator": (find_separator, (_G, 0, 2)),
    "find_connecting_path": (find_connecting_path, (_G, 0, 2, (1,))),
    "separation_signature": (separation_signature, (_G,)),
    "unshielded_colliders": (unshielded_colliders, (_G,)),
    "is_discriminating_path": (is_discriminating_path, (_G, (0, 1, 2), 1)),
    "discriminating_path_exists_for_triple": (
        discriminating_path_exists_for_triple,
        (_G, 0, 1, 2),
    ),
    "equivalence_witness": (equivalence_witness, (_M, _M)),
    "markov_equivalent": (markov_equivalent, (_M, _M)),
    "markov_equivalent_bruteforce": (markov_equivalent_bruteforce, (_M, _M)),
    "signature_witness": (signature_witness, (_M, _M)),
    # a MoveDescriptor holds its fields unchecked; apply_move checks them
    "MoveDescriptor": (
        lambda kind, x, y: apply_move(_M, MoveDescriptor(kind, x, y)),
        (MoveKind.DIR_TO_BI, 0, 1),
    ),
    "is_blanketed_directed": (is_blanketed_directed, (_M, 0, 1)),
    "is_blanketed_bidirected_against": (is_blanketed_bidirected_against, (_M, 1, 2)),
    "is_screened": (is_screened, (_M, 0, 1)),
    "apply_move": (apply_move, (_M, MoveDescriptor(MoveKind.REVERSE, 0, 1))),
    "legal_moves": (legal_moves, (_M,)),
    "delta": (delta, (_M, _M)),
    "equivalence_class_closure": (equivalence_class_closure, (_M, 10)),
    "partition_into_classes": (partition_into_classes, ([_M],)),
    "check_lemma1": (check_lemma1, (_M, 1, 2)),
    "graph_to_json": (graph_to_json, (_G, 2)),
    "graph_to_json_dict": (graph_to_json_dict, (_G,)),
    "graph_to_dot": (graph_to_dot, (_G,)),
}

# Public names with no graph, MAG or node argument: error and result types,
# enums, node-count sweeps, and the text and file readers.
_OTHER = {
    "InputError",
    "ParseError",
    "PreconditionError",
    "NotAMagError",
    "MoveRejectedError",
    "EdgeKind",
    "MoveKind",
    "ClosureResult",
    "ClassPartition",
    "ConjectureReport",
    "EquivalenceReport",
    "enumerate_mags",
    "graph_from_pair_code",
    "test_conjecture1",
    "verify_theorems",
    "parse_graph_json",
    "parse_dot",
    "load_graph",
    "__version__",
}

_ILL_TYPED = st.one_of(
    st.none(),
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3) | st.none() | st.floats(), max_size=3),
    st.integers(-2, 4),
    st.just(_G),  # a MixedGraph where a Mag is expected
    st.just(_M),  # a Mag where a MixedGraph is expected
)


def test_fuzz_table_covers_the_public_api():
    assert _CALLS.keys() | _OTHER == set(magmoves.__all__)
    assert not _CALLS.keys() & _OTHER


@settings(deadline=None, max_examples=400)
@given(name=st.sampled_from(sorted(_CALLS)), data=st.data())
def test_public_api_raises_only_input_error_on_ill_typed_arguments(name, data):
    call, valid = _CALLS[name]
    slots = data.draw(
        st.sets(st.integers(0, len(valid) - 1), min_size=1), label="slots"
    )
    args = [data.draw(_ILL_TYPED) if i in slots else a for i, a in enumerate(valid)]
    try:
        result = call(*args)
        if isinstance(result, Iterator):
            list(result)
    except InputError:
        pass


# An integer past Python's limit on decimal conversion (4,300 digits by
# default): a message that echoes it in decimal would raise ValueError.
_HUGE = 1 << 20000

_HUGE_CALLS = {
    "pair code": lambda: magmoves.graph_from_pair_code(5, _HUGE),
    "decoder node count": lambda: magmoves.graph_from_pair_code(_HUGE, 0),
    "negative decoder node count": lambda: magmoves.graph_from_pair_code(-_HUGE, 0),
    "node count": lambda: MixedGraph(_HUGE),
    "negative node count": lambda: MixedGraph(-_HUGE),
    "ancestor_mask": lambda: MixedGraph(3).ancestor_mask(_HUGE),
    "is_parent": lambda: MixedGraph(3).is_parent(0, _HUGE),
    "edge endpoint": lambda: MixedGraph(3, [directed(0, _HUGE)]),
    "labels": lambda: MixedGraph(1, labels=[_HUGE]),
    "json indent": lambda: graph_to_json(MixedGraph(2), indent=_HUGE),
    "closure max_size": lambda: equivalence_class_closure(_M, max_size=-_HUGE),
    "sweep node count": lambda: magmoves.test_conjecture1(_HUGE),
}


@pytest.mark.parametrize("name", sorted(_HUGE_CALLS))
def test_huge_integers_raise_input_error(name):
    with pytest.raises(InputError, match="integer of 2000[01] bits|too large"):
        _HUGE_CALLS[name]()


# Error paths of the public API that no other test reaches, with the exact
# exception class and message.
_ERROR_PATHS = {
    "delta across adjacencies": (
        lambda: delta(_M, Mag(MixedGraph(3, [directed(0, 1)]))),
        "graphs must share the same adjacencies",
    ),
    "separator of a node from itself": (
        lambda: find_separator(_G, 0, 0),
        "separator endpoints must differ",
    ),
    "partition of a repeated MAG": (
        lambda: partition_into_classes([_M, _M]),
        "duplicate graph 3;0>1;1<>2",
    ),
    "path across a non-adjacent pair": (
        lambda: format_path(_G, (0, 2)),
        "nodes 0 and 2 are not adjacent",
    ),
    "one-node discriminating path": (
        lambda: is_discriminating_path(_G, (1,), 1),
        "a path needs at least two nodes",
    ),
    "paths from a node to itself": (
        lambda: next(simple_paths_between(_G, 1, 1)),
        "path endpoints must differ",
    ),
    "key of a non-graph": (
        lambda: canonical_key("3;0>1"),
        "expected a MixedGraph or a Mag, got '3;0>1'",
    ),
}


@pytest.mark.parametrize("name", sorted(_ERROR_PATHS))
def test_error_paths_raise_input_error_with_their_message(name):
    call, message = _ERROR_PATHS[name]
    with pytest.raises(InputError) as info:
        call()
    assert type(info.value) is InputError
    assert str(info.value) == message


def test_module_key_empty_path_and_mag_accessors():
    assert canonical_key(_G) == canonical_key(_M) == "3;0>1;1<>2"
    assert format_path(_G, ()) == ""
    assert (_M.parents(1), _M.children(0), _M.spouses(1)) == ({0}, {1}, {2})
    assert (_M.parents(0), _M.children(1), _M.spouses(0)) == (set(), set(), set())
