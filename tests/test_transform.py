import random

import pytest

from magmoves import (
    InputError,
    Mag,
    MixedGraph,
    MoveDescriptor,
    MoveKind,
    MoveRejectedError,
    apply_move,
    bidirected,
    delta,
    directed,
    equivalence_class_closure,
    is_blanketed_bidirected_against,
    is_blanketed_directed,
    is_screened,
    legal_moves,
    markov_equivalent_bruteforce,
    partition_into_classes,
)
from magmoves.enumeration import enumerate_mags, graph_from_pair_code
from magmoves.transform import (
    blanketed_bidirected_violation,
    blanketed_directed_violation,
    screened_violation,
)

from oracles import closure_by_apply_move, legal_moves_by_violation
from random_graphs import mark_change_walk, random_dag, random_mag


def test_blanketed_vacuous(g_edge):
    assert is_blanketed_directed(Mag(g_edge), 0, 1)


def test_blanketed_fails_on_unshared_parent(g_unshared_parent):
    # Z -> X -> Y with Z not a parent of Y
    m = Mag(g_unshared_parent)
    assert not is_blanketed_directed(m, 1, 2)


def test_blanketed_fails_on_discriminating_path(g_discpath):
    m = Mag(g_discpath)
    assert not is_blanketed_directed(m, 2, 3)


def test_blanketed_fails_on_directed_detour(g_triangle):
    # Z -> X, Z -> Y, X -> Y: the long route Z -> X -> Y blocks Z -> Y
    m = Mag(g_triangle)
    assert not is_blanketed_directed(m, 0, 2)
    assert is_blanketed_directed(m, 1, 2)


def test_blanketed_requires_the_edge(g_edge):
    with pytest.raises(InputError):
        is_blanketed_directed(Mag(g_edge), 1, 0)


def test_blanketed_against_lone_bidirected():
    m = Mag(MixedGraph(2, [bidirected(0, 1)], labels=("X", "Y")))
    assert is_blanketed_bidirected_against(m, 0, 1)
    assert is_blanketed_bidirected_against(m, 1, 0)


def test_blanketed_against_fails_on_parent():
    # Z -> X, X <-> Y: Z is a parent of X but not of Y
    m = Mag(MixedGraph(3, [directed(0, 1), bidirected(1, 2)], labels=("Z", "X", "Y")))
    assert not is_blanketed_bidirected_against(m, 1, 2)


def test_blanketed_against_fails_via_discriminating_path(g_discpath):
    m = Mag(g_discpath.with_edge(bidirected(2, 3)))
    assert not is_blanketed_bidirected_against(m, 2, 3)


def test_screened_examples(g_triangle, g_edge, g_unshared_parent):
    assert is_screened(Mag(g_triangle), 1, 2)
    # reversing 0 -> 2 would close the cycle 0 -> 1 -> 2 -> 0
    assert not is_screened(Mag(g_triangle), 0, 2)
    assert is_screened(Mag(g_edge), 0, 1)
    assert not is_screened(Mag(g_unshared_parent), 1, 2)


def test_screened_requires_the_edge(g_edge):
    with pytest.raises(InputError):
        is_screened(Mag(g_edge), 1, 0)


def test_apply_dir_to_bi(g_edge):
    m = Mag(g_edge)
    out = apply_move(m, MoveDescriptor(MoveKind.DIR_TO_BI, 0, 1))
    assert out.graph.is_spouse(0, 1)
    assert markov_equivalent_bruteforce(m, out)


def test_apply_bi_to_dir():
    m = Mag(MixedGraph(2, [bidirected(0, 1)]))
    out = apply_move(m, MoveDescriptor(MoveKind.BI_TO_DIR, 1, 0))
    assert out.graph.is_parent(1, 0)
    assert markov_equivalent_bruteforce(m, out)


def test_apply_reverse(g_triangle):
    m = Mag(g_triangle)
    out = apply_move(m, MoveDescriptor(MoveKind.REVERSE, 1, 2))
    assert out.graph.is_parent(2, 1)
    assert out.graph.is_parent(0, 1) and out.graph.is_parent(0, 2)
    assert markov_equivalent_bruteforce(m, out)


def test_apply_rejects_unlicensed(g_unshared_parent):
    m = Mag(g_unshared_parent)
    with pytest.raises(MoveRejectedError, match="not blanketed"):
        apply_move(m, MoveDescriptor(MoveKind.DIR_TO_BI, 1, 2))
    with pytest.raises(MoveRejectedError, match="not screened"):
        apply_move(m, MoveDescriptor(MoveKind.REVERSE, 1, 2))


def test_apply_rejection_names_the_clause(g_unshared_parent):
    m = Mag(g_unshared_parent)
    with pytest.raises(MoveRejectedError, match="parent Z of X is not a parent of Y"):
        apply_move(m, MoveDescriptor(MoveKind.DIR_TO_BI, 1, 2))


def test_apply_missing_edge_is_input_error(g_edge):
    # Every move kind and predicate, on the wrong edge type and on no edge.
    dir_text = "^expected the directed edge X -> Y$"
    bi_text = "^expected the bi-directed edge X <-> Y$"
    on_dir, on_bi, on_none = (
        Mag(MixedGraph(2, edges, labels=g_edge.labels))
        for edges in (g_edge.edges, [bidirected(0, 1)], [])
    )
    for call, wrong, text in [
        (is_blanketed_directed, on_bi, dir_text),
        (blanketed_directed_violation, on_bi, dir_text),
        (is_screened, on_bi, dir_text),
        (screened_violation, on_bi, dir_text),
        (is_blanketed_bidirected_against, on_dir, bi_text),
        (blanketed_bidirected_violation, on_dir, bi_text),
    ]:
        for m in (wrong, on_none):
            with pytest.raises(InputError, match=text):
                call(m, 0, 1)
    for kind, wrong, text in [
        (MoveKind.DIR_TO_BI, on_bi, dir_text),
        (MoveKind.REVERSE, on_bi, dir_text),
        (MoveKind.BI_TO_DIR, on_dir, bi_text),
    ]:
        for m in (wrong, on_none):
            with pytest.raises(InputError, match=text):
                apply_move(m, MoveDescriptor(kind, 0, 1))
    with pytest.raises(InputError, match="^unknown move kind 'reverse'$"):
        apply_move(on_dir, MoveDescriptor("reverse", 0, 1))


def test_legal_moves_single_edge(g_edge):
    m = Mag(g_edge)
    assert legal_moves(m) == [
        MoveDescriptor(MoveKind.DIR_TO_BI, 0, 1),
        MoveDescriptor(MoveKind.REVERSE, 0, 1),
    ]


def test_legal_moves_collider(g_collider):
    # every listed move must preserve brute-force equivalence
    m = Mag(g_collider)
    moves = legal_moves(m)
    assert moves == [
        MoveDescriptor(MoveKind.DIR_TO_BI, 0, 1),
        MoveDescriptor(MoveKind.DIR_TO_BI, 2, 1),
    ]
    for mv in moves:
        assert markov_equivalent_bruteforce(m, apply_move(m, mv))


def test_legal_moves_match_violation_texts_exhaustively(mags_by_n):
    mags = [m for n in (1, 2, 3, 4) for m in mags_by_n[n]]
    assert len(mags) == 2553
    kinds = set()
    for m in mags:
        moves = legal_moves(m)
        assert moves == legal_moves_by_violation(m), m
        kinds.update(mv.kind for mv in moves)
    assert kinds == set(MoveKind)


def test_legal_moves_match_violation_texts_on_random_walks():
    rng = random.Random(66)
    checked = moves = 0
    while checked < 1500:
        n = rng.randint(5, 9)
        start = Mag(random_dag(rng, n, rng.uniform(1.5, 4.5)))
        if not start.edges:
            continue
        for m in [start, *mark_change_walk(rng, start, 20)]:
            got = legal_moves(m)
            assert got == legal_moves_by_violation(m), m
            checked += 1
            moves += len(got)
    assert moves > checked


def test_delta_single_mark(g_edge):
    m1 = Mag(g_edge)
    m2 = Mag(g_edge.with_edge(bidirected(0, 1)))
    assert delta(m1, m2) == {directed(0, 1)}
    assert delta(m2, m1) == {bidirected(0, 1)}
    assert delta(m1, m1) == frozenset()


def test_delta_reversal(g_triangle):
    m1 = Mag(g_triangle)
    m2 = Mag(g_triangle.with_edge(directed(2, 1)))
    assert delta(m1, m2) == {directed(1, 2)}


def test_delta_requires_same_adjacencies(g_edge):
    m1 = Mag(g_edge)
    m2 = Mag(MixedGraph(2))
    with pytest.raises(InputError):
        delta(m1, m2)


def test_closure_two_node_class(g_edge):
    res = equivalence_class_closure(Mag(g_edge))
    assert res.keys == {"2;0>1", "2;1>0", "2;0<>1"}
    assert not res.truncated


def test_closure_collider_class_matches_partition(g_collider, mags_by_n):
    # closure from the unshielded collider reaches its whole brute-force
    # class: the four mark combinations on the two edges into the collider
    res = equivalence_class_closure(Mag(g_collider))
    part = partition_into_classes(mags_by_n[3])
    seed_key = Mag(g_collider).canonical_key()
    cls = part.classes[part.class_of[seed_key]]
    assert res.keys == set(cls)
    assert res.keys == {"3;0>1;2>1", "3;0<>1;2>1", "3;0>1;1<>2", "3;0<>1;1<>2"}


def test_closure_truncation(g_edge):
    res = equivalence_class_closure(Mag(g_edge), max_size=1)
    assert res.truncated
    assert res.keys == {"2;0>1"}
    with pytest.raises(InputError):
        equivalence_class_closure(Mag(g_edge), max_size=0)


def test_closure_members_all_equivalent():
    seed = Mag(
        MixedGraph(4, [directed(0, 1), bidirected(1, 2), directed(3, 2)])
    )
    res = equivalence_class_closure(seed)
    assert not res.truncated
    for m in res.graphs.values():
        assert markov_equivalent_bruteforce(seed, m)


def test_pair_and_closure_calls_reject_ill_typed_arguments(g_edge):
    m = Mag(g_edge)
    for call in (
        lambda: delta(m, 5),
        lambda: delta("g", m),
        lambda: equivalence_class_closure("g"),
        lambda: equivalence_class_closure(m, max_size="3"),
        lambda: equivalence_class_closure(m, max_size=True),
        lambda: equivalence_class_closure(m, max_size=2.0),
    ):
        with pytest.raises(InputError):
            call()


def test_move_calls_reject_ill_typed_arguments(g_edge):
    m = Mag(g_edge)
    move = MoveDescriptor(MoveKind.DIR_TO_BI, 0, 1)
    for call in (
        lambda: legal_moves("g"),
        lambda: legal_moves(g_edge),
        lambda: apply_move("g", move),
        lambda: apply_move(g_edge, move),
        lambda: apply_move(m, "x"),
        lambda: apply_move(m, None),
        lambda: apply_move(m, MoveDescriptor("reverse", 0, 1)),
        lambda: is_blanketed_directed("g", 0, 1),
        lambda: is_blanketed_bidirected_against(g_edge, 0, 1),
        lambda: is_screened(None, 0, 1),
        lambda: blanketed_directed_violation("g", 0, 1),
        lambda: blanketed_bidirected_violation("g", 0, 1),
        lambda: screened_violation("g", 0, 1),
        lambda: partition_into_classes([1]),
        lambda: partition_into_classes([m, g_edge]),
        lambda: partition_into_classes(5),
    ):
        with pytest.raises(InputError):
            call()


@pytest.mark.parametrize("max_size", [1, 2, 5, 1000])
def test_closure_matches_apply_move_walk_exhaustively(mags_by_n, max_size):
    for n in (1, 2, 3, 4):
        for m in mags_by_n[n]:
            res = equivalence_class_closure(m, max_size=max_size)
            graphs, truncated = closure_by_apply_move(m, max_size)
            assert list(res.graphs) == list(graphs)
            assert res.keys == frozenset(graphs)
            assert res.truncated == truncated
            assert all(res.graphs[k] == g for k, g in graphs.items())


@pytest.mark.parametrize("max_size", [1, 5, 30])
def test_closure_matches_apply_move_walk_at_scale(max_size):
    # Seeded n = 60 MAGs, whose pair codes run to thousands of bits; the
    # three-edge seeds have classes of 27 and 4 members.
    rng = random.Random(60)
    cut = 0
    for degree in (0.1, 0.1, 1, 2, 3, 4):
        m = Mag(random_mag(rng, 60, degree))
        res = equivalence_class_closure(m, max_size=max_size)
        graphs, truncated = closure_by_apply_move(m, max_size)
        assert list(res.graphs) == list(graphs)
        assert res.keys == frozenset(graphs)
        assert res.truncated == truncated
        assert all(res.graphs[k] == g for k, g in graphs.items())
        for member in res.graphs.values():
            assert graph_from_pair_code(60, member.graph.pair_code) == member.graph
        cut += truncated
    assert cut == {1: 6, 5: 5, 30: 4}[max_size]  # cut and whole walks both seen
