import os

import pytest

from magmoves import (
    InputError,
    MixedGraph,
    ParseError,
    bidirected,
    directed,
    graph_to_dot,
    graph_to_json,
    graph_to_json_dict,
    load_graph,
    parse_dot,
    parse_graph_json,
)


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
    cases = [
        "not json",
        "[]",
        '{"nodes": "A"}',
        '{"nodes": ["A", "A"]}',
        '{"nodes": ["A"], "edges": [{"u": "A", "v": "B", "type": "directed"}]}',
        '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "B", "type": "dashed"}]}',
        '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "A", "type": "directed"}]}',
        '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "B"}]}',
        '{"nodes": ["A", "B"], "extra": 1}',
        '{"nodes": ["A", "B"], "edges": [{"u": "A", "v": "B", "type": "directed"},'
        ' {"u": "B", "v": "A", "type": "bidirected"}]}',
    ]
    for text in cases:
        with pytest.raises(ParseError):
            parse_graph_json(text)


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
    for bad in ((0,), 1.5, True, [2]):
        with pytest.raises(InputError, match="indent"):
            graph_to_json(g_edge, indent=bad)
