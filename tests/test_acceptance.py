"""Acceptance gate: the package-level guarantees, exhaustively at desk scale.

Each test covers one numbered guarantee and prints a one-line summary when
it passes (visible with ``pytest -s``).  The whole file takes a few minutes;
the discriminating-path sweep at n = 5 dominates.
"""

import pytest

from magmoves import enumeration
from magmoves.enumeration import (
    enumerate_mags,
    graph_from_pair_code,
    partition_into_classes,
)
from magmoves.equivalence import discriminating_path_exists_for_triple
from magmoves.graph import EdgeKind, is_ancestral, iter_bits, maximality_witness
from magmoves.separation import find_separator, m_connected
from magmoves.transform import (
    equivalence_class_closure,
    is_blanketed_directed,
    is_screened,
)

from oracles import discriminating_triple_naive, m_connected_naive


def _announce(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS ({detail})")


def _all_codes(n: int):
    npairs = n * (n - 1) // 2
    return range(1 << (2 * npairs))


@pytest.fixture(scope="module")
def mags_to_5(mags_by_n):
    # C7 and C8 both walk every MAG on five nodes; enumerate them once
    return {**mags_by_n, 5: list(enumerate_mags(5))}


@pytest.fixture(scope="module")
def theorem_reports():
    return {n: enumeration.verify_theorems(n) for n in range(1, 5)}


def _check(reports, name):
    cases = 0
    for n in sorted(reports):
        outcome = reports[n].checks[name]
        assert outcome.violations == (), f"n={n}: {outcome.violations[:3]}"
        cases += outcome.cases
    return cases


def test_c01_separation_walk_agrees_with_path_enumeration():
    queries = 0
    for n in range(1, 5):
        for code in _all_codes(n):
            g = graph_from_pair_code(n, code)
            for x in range(n):
                for y in range(n):
                    if y == x:
                        continue
                    rest = [v for v in range(n) if v not in (x, y)]
                    for bits in range(1 << len(rest)):
                        z = [rest[i] for i in range(len(rest)) if (bits >> i) & 1]
                        assert m_connected(g, x, y, z) == m_connected_naive(
                            g, x, y, z
                        ), f"{g.canonical_key()} x={x} y={y} z={z}"
                        queries += 1
    _announce("C1", f"{queries} queries on every mixed graph with n <= 4")


def test_c02_separators_track_maximality():
    maximal = nonmaximal = 0
    for n in range(1, 5):
        for code in _all_codes(n):
            g = graph_from_pair_code(n, code)
            if not is_ancestral(g):
                continue
            gap = maximality_witness(g)
            if gap is None:
                maximal += 1
                for x in range(n):
                    for y in range(x + 1, n):
                        if g.has_edge(x, y):
                            continue
                        z = find_separator(g, x, y)
                        assert z is not None, f"{g.canonical_key()} ({x},{y})"
                        assert not m_connected(g, x, y, z)
            else:
                nonmaximal += 1
                x, y, _ = gap
                assert find_separator(g, x, y) is None, g.canonical_key()
    _announce(
        "C2",
        f"{maximal} maximal and {nonmaximal} non-maximal ancestral graphs",
    )


def test_c03_graphical_equivalence_matches_oracle(theorem_reports):
    cases = _check(theorem_reports, "thm2_vs_oracle")
    _announce("C3", f"{cases} ordered MAG pairs, graphical test == oracle")


def test_c04_licensed_mark_changes_preserve_equivalence(theorem_reports):
    cases = _check(theorem_reports, "thm3_sound")
    _announce("C4", f"{cases} licensed mark changes, all equivalence-preserving")


def test_c05_equivalent_mark_changes_are_blanketed(theorem_reports):
    cases = _check(theorem_reports, "thm3_necessary")
    _announce("C5", f"{cases} equivalent mark flips, all blanketed")


def test_c06_reversal_licensed_exactly_when_screened(theorem_reports):
    cases = _check(theorem_reports, "thm4_iff")
    _announce("C6", f"{cases} directed edges, reversal iff screened")


def test_c07_blanket_path_lemmas_hold(theorem_reports, mags_to_5):
    lemma1_cases = _check(theorem_reports, "lemma1")
    lemma2_small = _check(theorem_reports, "lemma2")
    lemma2_large = 0
    for m in mags_to_5[5]:
        for e in m.edges:
            if e.kind is not EdgeKind.DIRECTED:
                continue
            if not is_screened(m, e.u, e.v):
                continue
            lemma2_large += 1
            assert is_blanketed_directed(m, e.u, e.v), (
                f"{m.canonical_key()}: {e.token()}"
            )
    _announce(
        "C7",
        f"{lemma1_cases} blanketed edges (n <= 4); "
        f"{lemma2_small + lemma2_large} screened edges (n <= 5)",
    )


def test_c08_discriminating_search_matches_enumeration(mags_to_5):
    checked = 0
    for n in range(3, 6):
        for m in mags_to_5[n]:
            g = m.graph
            for x in range(n):
                # z has an edge with an arrowhead at x; y is adjacent to x
                for z in iter_bits(g._pa[x] | g._sp[x]):
                    for y in iter_bits(g._adj[x] & ~(1 << z)):
                        fast = discriminating_path_exists_for_triple(g, z, x, y)
                        assert fast == discriminating_triple_naive(g, z, x, y), (
                            f"{g.canonical_key()} z={z} x={x} y={y}"
                        )
                        checked += 1
    _announce("C8", f"{checked} eligible triples on every MAG with n <= 5")


def test_c09_enumeration_counts_match_independent_filter():
    counts = {n: sum(1 for _ in enumerate_mags(n)) for n in (1, 2, 3)}
    assert counts[1] == 1
    assert counts[2] == 4
    # with three nodes an inducing path between a non-adjacent pair would
    # need a second edge on one pair, so ancestral already means maximal
    ancestral3 = sum(
        1 for code in _all_codes(3) if is_ancestral(graph_from_pair_code(3, code))
    )
    assert counts[3] == ancestral3 == 56
    _announce("C9", f"counts {counts[1]}/{counts[2]}/{counts[3]}, n=3 filter agrees")


def test_c10_delta_blanket_sweep_report_is_consistent():
    report = enumeration.test_conjecture1(4)
    payload = report.to_json_dict()
    assert set(payload) == {
        "n",
        "mag_count",
        "class_count",
        "classes_examined",
        "pairs_examined",
        "counterexamples",
        "closure_gaps",
        "checks",
    }
    assert report.n == 4
    assert report.mag_count == 2492
    assert report.class_count == report.classes_examined == 248
    assert report.pairs_examined > 0
    for first, second, diff in report.counterexamples:
        assert first != second
        assert diff
    # recompute gaps from scratch: a member is a gap iff the closure walk
    # from the smallest-key seed never reaches it
    part = partition_into_classes(list(enumerate_mags(4)))
    expected = []
    for cid, keys in enumerate(part.classes):
        res = equivalence_class_closure(
            part.graphs_by_key[keys[0]], max_size=len(keys)
        )
        missed = len(set(keys) - res.keys)
        if missed:
            expected.append((cid, missed))
    assert report.closure_gaps == tuple(expected)
    _announce(
        "C10",
        f"{report.pairs_examined} equivalent pairs, "
        f"{len(report.counterexamples)} counterexamples, "
        f"{len(report.closure_gaps)} closure gaps",
    )
