import itertools
import os
import random

import pytest

from magmoves import (
    InputError,
    MixedGraph,
    ParseError,
    bidirected,
    directed,
    graph_from_pair_code,
    graph_to_dot,
    graph_to_json,
    graph_to_json_dict,
    load_graph,
    parse_dot,
    parse_graph_json,
)

from magmoves.io import graph_from_json_dict

from random_graphs import random_mag


def test_json_round_trip(g_discpath):
    text = graph_to_json(g_discpath)
    back = parse_graph_json(text)
    assert back == g_discpath
    assert back.labels == g_discpath.labels


def test_json_dict_shape(g_edge):
    assert graph_to_json_dict(g_edge) == {
        "nodes": ["X", "Y"],
        "edges": [{"u": "X", "v": "Y", "type": "directed"}],
    }


def test_json_edgeless():
    g = parse_graph_json('{"nodes": ["A"]}')
    assert g.n == 1
    assert g.edges == ()


def test_json_rejects_bad_documents():
    # (document, the exact ParseError message)
    cases = [
        ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "graph document must be a JSON object"),
        ('{"nodes": "A"}', "'nodes' must be a list of strings"),
        ('{"edges": []}', "'nodes' must be a list of strings"),
        ('{"nodes": ["A", "A"]}', "duplicate node label 'A'"),
        (
            '{"nodes": ["A"], "edges": [{"u": "A", "v": "B", "type": "directed"}]}',
            "edge endpoint 'B' is not a declared node",
        ),
        (
            '{"nodes": ["A", "B"], "edges": [{"u": 0, "v": "B", "type": "directed"}]}',
            "edge endpoint 0 is not a declared node",
        ),
        (
            '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "B", "type": "dashed"}]}',
            "unknown edge type 'dashed'",
        ),
        (
            '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "A",'
            ' "type": "directed"}]}',
            "self-loop at node 'A'",
        ),
        (
            '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "B"}]}',
            "each edge must be an object with fields 'u', 'v', 'type'",
        ),
        (
            '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "B", "type": "directed",'
            ' "w": 1}]}',
            "each edge must be an object with fields 'u', 'v', 'type'",
        ),
        ('{"nodes": ["A", "B"], "extra": 1}', "unknown graph fields: ['extra']"),
        (
            '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "B", "type": "directed"},'
            ' {"u": "B", "v": "A", "type": "bidirected"}]}',
            "more than one edge between 'A' and 'B'",
        ),
        (
            '{"nodes": ["A", "B"], "edges": [{"u": "B", "v": "A",'
            ' "type": "bidirected"}, {"u": "A", "v": "B", "type": "directed"}]}',
            "more than one edge between 'A' and 'B'",
        ),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            parse_graph_json(text)
        assert str(info.value) == message, text


def _rows(g):
    return (g.labels, g._pa, g._ch, g._sp, g._adj, g.canonical_key())


def _reader_cases():
    # every mixed graph with n <= 3, then seeded mixed graphs and MAGs at
    # n = 8-60
    for n in (1, 2, 3):
        for code in range(4 ** (n * (n - 1) // 2)):
            yield graph_from_pair_code(n, code, labels=[f"n{i}" for i in range(n)])
    rng = random.Random(8)
    for n in (8, 13, 21, 34, 60):
        for _ in range(3):
            pairs = rng.sample(list(itertools.combinations(range(n), 2)), 2 * n)
            yield MixedGraph(
                n,
                [
                    rng.choice((directed(a, b), directed(b, a), bidirected(b, a)))
                    for a, b in pairs
                ],
                labels=[f"v{rng.random()}" for _ in range(n)],
            )
            yield random_mag(rng, n, 3)


def test_readers_build_the_rows_the_edge_api_builds():
    rng = random.Random(0)
    for g in _reader_cases():
        want = _rows(MixedGraph(g.n, g.edges, g.labels))
        assert _rows(parse_graph_json(graph_to_json(g))) == want
        assert _rows(parse_dot(graph_to_dot(g))) == want
        # edges in any order, bi-directed ones written either way round
        doc = graph_to_json_dict(g)
        rng.shuffle(doc["edges"])
        for e in doc["edges"]:
            if e["type"] == "bidirected" and rng.random() < 0.5:
                e["u"], e["v"] = e["v"], e["u"]
        assert _rows(graph_from_json_dict(doc)) == want


def test_dot_output(g_discpath):
    assert graph_to_dot(g_discpath) == (
        "digraph {\n"
        '  "W";\n'
        '  "Z";\n'
        '  "X";\n'
        '  "Y";\n'
        '  "W" -> "Z";\n'
        '  "Z" -> "X" [dir=both];\n'
        '  "Z" -> "Y";\n'
        '  "X" -> "Y";\n'
        "}\n"
    )


def test_dot_round_trip(g_discpath, g_bicollider):
    for g in (g_discpath, g_bicollider, MixedGraph(2, labels=("lone", "pair"))):
        back = parse_dot(graph_to_dot(g))
        assert back == g
        assert back.labels == g.labels


def test_dot_quoting_round_trip():
    g = MixedGraph(2, [bidirected(0, 1)], labels=('a "b"', "c\\d"))
    assert parse_dot(graph_to_dot(g)).labels == g.labels


@pytest.mark.parametrize(
    "brk", ["\n", "\r", "\r\n", "\x85", "\u2028", "\v", "\f", "\x1c", "\u2029"]
)
def test_dot_round_trips_line_breaks_in_labels(brk):
    g = MixedGraph(2, [directed(1, 0)], labels=(f"A{brk}B", f"{brk}C\\n\\u2028"))
    text = graph_to_dot(g)
    assert len(text.splitlines()) == 5  # the header, two nodes, one edge, "}"
    back = parse_dot(text)
    assert back == g and back.labels == g.labels


def test_dot_rejects_garbage():
    with pytest.raises(ParseError):
        parse_dot("graph { }")
    with pytest.raises(ParseError):
        parse_dot("digraph {\n  ???;\n}")
    with pytest.raises(ParseError):
        parse_dot('digraph {\n  "A" -> "B";\n}')  # undeclared nodes
    with pytest.raises(ParseError):
        parse_dot('digraph {\n  "A";\n')
    with pytest.raises(ParseError, match="self-loop"):
        parse_dot('digraph {\n  "A";\n  "A" -> "A";\n}')
    # a repeated pair is reported only once every edge has resolved
    head = 'digraph {\n  "A";\n  "B";\n  "A" -> "B";\n  "B" -> "A";\n'
    for tail, message in (
        ("}", "more than one edge between 'A' and 'B'"),
        ('  "A" -> "A";\n}', "self-loop at node 'A'"),
        ('  "A" -> "C";\n}', "edge references undeclared node 'A' or 'C'"),
    ):
        with pytest.raises(ParseError) as info:
            parse_dot(head + tail)
        assert str(info.value) == message


def test_load_graph_reads_str_and_pathlike_paths(tmp_path, g_discpath):
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(g_discpath))
    assert load_graph(str(path)) == g_discpath
    assert load_graph(path) == g_discpath


def test_load_graph_rejects_non_paths_and_keeps_descriptors_open():
    for bad in (1, 0, True, False, 2.5, None, b"g.json", ["g.json"]):
        with pytest.raises(InputError, match="expected a file path"):
            load_graph(bad)
    # open(1) would have read and then closed standard output
    os.fstat(0)
    os.fstat(1)


def test_graph_to_json_rejects_bad_indent(g_edge):
    assert "\n" not in graph_to_json(g_edge, indent=None)
    assert "\n\t" in graph_to_json(g_edge, indent="\t")
    for bad in ((0,), 1.5, True, [2], 2**70):
        with pytest.raises(InputError, match="indent"):
            graph_to_json(g_edge, indent=bad)
