import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

import magmoves
from magmoves import (
    MixedGraph,
    bidirected,
    directed,
    enumerate_mags,
    graph_to_dot,
    graph_to_json,
    graph_to_json_dict,
)
from magmoves import _kernels, cli, enumeration
from magmoves.cli import main
from magmoves.enumeration import graph_from_pair_code
from magmoves.graph import format_path
from magmoves.separation import find_connecting_path, m_connected

_RENDER = {
    "text": lambda g: g.canonical_key() + "\n",
    "json": lambda g: json.dumps(graph_to_json_dict(g)) + "\n",
    "dot": graph_to_dot,
}


@pytest.fixture
def write_graph(tmp_path):
    counter = iter(range(1000))

    def _write(g):
        path = tmp_path / f"g{next(counter)}.json"
        path.write_text(graph_to_json(g))
        return str(path)

    return _write


@pytest.fixture
def edge_file(write_graph):
    return write_graph(MixedGraph(2, [directed(0, 1)], labels=("X", "Y")))


@pytest.fixture
def collider_file(write_graph):
    return write_graph(
        MixedGraph(3, [directed(0, 1), directed(2, 1)], labels=("X", "Z", "Y"))
    )


@pytest.fixture
def nonmaximal_file(write_graph):
    return write_graph(
        MixedGraph(
            4,
            [
                bidirected(0, 1),
                bidirected(1, 2),
                bidirected(2, 3),
                directed(1, 3),
                directed(2, 0),
            ],
            labels=("a", "b", "c", "d"),
        )
    )


def test_validate_mag(edge_file, capsys):
    assert main(["validate", edge_file]) == 0
    out = capsys.readouterr().out
    assert "ancestral: yes" in out
    assert "maximal: yes" in out
    assert "mag: yes" in out


def test_validate_nonmaximal(nonmaximal_file, capsys):
    assert main(["validate", nonmaximal_file]) == 1
    out = capsys.readouterr().out
    assert "maximal: no" in out
    assert "inducing path a<->b<->c<->d" in out


def test_validate_json_format(nonmaximal_file, capsys):
    assert main(["validate", nonmaximal_file, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ancestral"] is True
    assert payload["maximal"] is False
    assert payload["mag"] is False


def test_validate_cyclic(write_graph, capsys):
    path = write_graph(
        MixedGraph(3, [directed(0, 1), directed(1, 2), directed(2, 0)])
    )
    assert main(["validate", path]) == 1
    assert "directed cycle" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edges, expected",
    [
        (
            [directed(0, 1), directed(1, 2), bidirected(0, 2)],
            {
                "ancestral": False,
                "maximal": None,
                "witness": "bi-directed edge V0<->V2 with directed path "
                "V0->V1->V2",
                "mag": False,
            },
        ),
        (
            [directed(0, 1), directed(1, 2), directed(2, 0)],
            {
                "ancestral": False,
                "maximal": None,
                "witness": "directed cycle V1->V2->V0->V1",
                "mag": False,
            },
        ),
        (
            [directed(0, 1)],
            {"ancestral": True, "maximal": True, "mag": True},
        ),
    ],
)
def test_validate_json_witness(write_graph, capsys, edges, expected):
    path = write_graph(MixedGraph(3, edges))
    assert main(["validate", path, "--format", "json"]) == (
        0 if expected["mag"] else 1
    )
    payload = json.loads(capsys.readouterr().out)
    assert list(payload.items()) == list(expected.items())


def test_validate_maximal_witness_wording(nonmaximal_file, capsys):
    assert main(["validate", nonmaximal_file, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["ancestral", "maximal", "witness", "mag"]
    assert payload["witness"] == (
        "non-adjacent pair (a, d) joined by inducing path a<->b<->c<->d"
    )


def test_separate_verdicts(collider_file, capsys):
    assert main(["separate", collider_file, "--x", "X", "--y", "Y"]) == 0
    assert "m-separated given {}" in capsys.readouterr().out
    assert (
        main(["separate", collider_file, "--x", "X", "--y", "Y", "--given", "Z"])
        == 1
    )
    out = capsys.readouterr().out
    assert "m-connected given {Z}" in out
    assert "X->Z<-Y" in out


def test_separate_shows_each_given_label_once(collider_file, capsys):
    argv = ["separate", collider_file, "--x", "X", "--y", "Y", "--given", "Z,Z, Z"]
    assert main(argv) == 1
    assert "m-connected given {Z};" in capsys.readouterr().out


def test_separate_json(collider_file, capsys):
    assert (
        main(
            [
                "separate",
                collider_file,
                "--x",
                "X",
                "--y",
                "Y",
                "--given",
                "Z",
                "--format",
                "json",
            ]
        )
        == 1
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"connected": True, "path": ["X", "Z", "Y"]}


def test_separate_unknown_label(collider_file, capsys):
    assert main(["separate", collider_file, "--x", "X", "--y", "Q"]) == 2
    assert "unknown node label" in capsys.readouterr().err


def _two_call_separate(g, x, y, given):
    # Exit code, text and JSON of `separate` as m_connected followed by
    # find_connecting_path gave them.
    connected = m_connected(g, x, y, given)
    path = find_connecting_path(g, x, y, given) if connected else None
    shown = "{" + ", ".join(sorted(g.labels[v] for v in given)) + "}"
    if connected:
        text = f"m-connected given {shown}; path: {format_path(g, path)}"
    else:
        text = f"m-separated given {shown}"
    labels = [g.labels[v] for v in path] if path else None
    return int(connected), text, json.dumps({"connected": connected, "path": labels})


def test_separate_runs_one_search_exhaustively(write_graph, capsys, monkeypatch):
    # Every mixed graph with n <= 3, every ordered pair and every Z of the
    # other nodes: the command's output is the two-call answer, with
    # m_connected never called.
    cases = []
    for n in (2, 3):
        for code in range(4 ** (n * (n - 1) // 2)):
            g = graph_from_pair_code(n, code, labels=("X", "Y", "W")[:n])
            file = write_graph(g)
            for x, y in itertools.permutations(range(n), 2):
                rest = [v for v in range(n) if v not in (x, y)]
                for k in range(len(rest) + 1):
                    for given in itertools.combinations(rest, k):
                        argv = ["separate", file, "--x", g.labels[x]]
                        argv += ["--y", g.labels[y], "--given"]
                        argv.append(",".join(g.labels[v] for v in given))
                        cases.append((argv, *_two_call_separate(g, x, y, given)))

    def fail(*args):
        raise AssertionError("separate called m_connected")

    monkeypatch.setattr(cli, "m_connected", fail)
    assert len(cases) == 4 * 2 + 64 * 6 * 2
    for argv, code, text, payload in cases:
        assert main(argv) == code
        assert capsys.readouterr().out == text + "\n"
        assert main(argv + ["--format", "json"]) == code
        assert capsys.readouterr().out == payload + "\n"


def test_equiv(write_graph, capsys):
    a = write_graph(MixedGraph(2, [directed(0, 1)], labels=("X", "Y")))
    b = write_graph(MixedGraph(2, [bidirected(0, 1)], labels=("X", "Y")))
    assert main(["equiv", a, b]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"
    assert main(["equiv", a, b, "--oracle"]) == 0
    capsys.readouterr()
    chain = write_graph(
        MixedGraph(3, [directed(0, 1), directed(1, 2)], labels=("X", "Z", "Y"))
    )
    coll = write_graph(
        MixedGraph(3, [directed(0, 1), directed(2, 1)], labels=("X", "Z", "Y"))
    )
    assert main(["equiv", chain, coll]) == 1
    assert capsys.readouterr().out.strip() == "not equivalent"


def test_equiv_json_witness(write_graph, capsys):
    chain = write_graph(
        MixedGraph(3, [directed(0, 1), directed(1, 2)], labels=("X", "Z", "Y"))
    )
    coll = write_graph(
        MixedGraph(3, [directed(0, 1), directed(2, 1)], labels=("X", "Z", "Y"))
    )
    assert main(["equiv", chain, coll, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "equivalent": False,
        "method": "graphical",
        "witness": "unshielded collider X->Z<-Y in the second graph only",
    }
    assert main(["equiv", chain, chain, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "equivalent": True,
        "method": "graphical",
        "witness": None,
    }
    assert main(["equiv", chain, coll, "--oracle", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "equivalent": False,
        "method": "oracle",
        "witness": "X and Y are m-connected given {} in the first graph only",
    }
    assert main(["equiv", coll, chain, "--oracle", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == (
        "X and Y are m-connected given {} in the second graph only"
    )
    assert main(["equiv", chain, chain, "--oracle", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "equivalent": True,
        "method": "oracle",
        "witness": None,
    }


def test_equiv_rejects_non_mag(nonmaximal_file, edge_file, capsys):
    assert main(["equiv", edge_file, nonmaximal_file]) == 2
    assert "not maximal" in capsys.readouterr().err


def test_moves_listing(edge_file, capsys):
    assert main(["moves", edge_file]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dir-to-bi X Y",
        "reverse X Y",
    ]
    assert main(["moves", edge_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {"kind": "dir-to-bi", "x": "X", "y": "Y"},
        {"kind": "reverse", "x": "X", "y": "Y"},
    ]


def test_apply_success(edge_file, capsys):
    assert (
        main(
            [
                "apply",
                edge_file,
                "--kind",
                "dir-to-bi",
                "--x",
                "X",
                "--y",
                "Y",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"] == [{"u": "X", "v": "Y", "type": "bidirected"}]


def test_apply_rejected(write_graph, capsys):
    path = write_graph(
        MixedGraph(3, [directed(0, 1), directed(1, 2)], labels=("Z", "X", "Y"))
    )
    assert main(["apply", path, "--kind", "dir-to-bi", "--x", "X", "--y", "Y"]) == 2
    err = capsys.readouterr().err
    assert "not blanketed" in err
    assert "parent Z of X is not a parent of Y" in err


def test_apply_chain_via_stdin(edge_file, capsys, monkeypatch):
    import io

    assert (
        main(
            ["apply", edge_file, "--kind", "dir-to-bi", "--x", "X", "--y", "Y",
             "--format", "json"]
        )
        == 0
    )
    piped = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(piped))
    assert (
        main(["apply", "-", "--kind", "bi-to-dir", "--x", "Y", "--y", "X",
              "--format", "json"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["edges"] == [{"u": "Y", "v": "X", "type": "directed"}]


def test_class_closure(edge_file, capsys):
    assert main(["class", edge_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["2;0<>1", "2;0>1", "2;1>0"]
    assert main(["class", edge_file, "--max", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["2;0>1"]
    assert "truncated" in captured.err


def test_class_json(edge_file, capsys):
    assert main(["class", edge_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["truncated"] is False
    assert sorted(payload["keys"]) == ["2;0<>1", "2;0>1", "2;1>0"]
    assert set(payload["graphs"]) == set(payload["keys"])


def test_enumerate_text(capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2",
        "2;0<>1",
        "2;0>1",
        "2;1>0",
    ]


def test_enumerate_json(capsys):
    assert main(["enumerate", "--n", "2", "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(isinstance(json.loads(ln), dict) for ln in lines)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_enumerate_output_matches_per_graph_rendering(fmt, capsys):
    assert main(["enumerate", "--n", "4", "--format", fmt]) == 0
    gap = "\n" if fmt == "dot" else ""  # a blank line between DOT graphs
    want = gap.join(_RENDER[fmt](m.graph) for m in enumerate_mags(4))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_enumerate_prints_lines_before_a_failed_recheck(fmt, monkeypatch, capsys):
    # the empty graph (key "3") sorts before the directed cycle 0->1->2->0
    cycle = 1 | (2 << 2) | (1 << 4)
    monkeypatch.setattr(
        _kernels, "enumerate_mag_codes", lambda n: np.array([0, cycle], np.int64)
    )
    assert main(["enumerate", "--n", "3", "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == _RENDER[fmt](MixedGraph(3, []))
    assert "directed cycle" in err


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize("before", [2, 3])
def test_enumerate_writes_the_blocks_before_a_failure_past_a_block(
    fmt, before, monkeypatch, capsys
):
    # with blocks of two, the directed cycle 0->1->2->0 sorts third or
    # fourth, after the empty graph, 0<>1 and 0>1
    cycle = 1 | (2 << 2) | (1 << 4)
    codes = [0, 3, 1][:before] + [cycle]
    mags = [graph_from_pair_code(3, c) for c in (0, 3, 1)][:before]
    monkeypatch.setattr(enumeration, "_BLOCK", 2)
    monkeypatch.setattr(
        _kernels, "enumerate_mag_codes", lambda n: np.array(codes, np.int64)
    )
    with pytest.raises(magmoves.NotAMagError) as want:
        magmoves.Mag(graph_from_pair_code(3, cycle))
    assert main(["enumerate", "--n", "3", "--format", fmt]) == 2
    gap = "\n" if fmt == "dot" else ""
    assert capsys.readouterr() == (
        gap.join(_RENDER[fmt](g) for g in mags),
        f"error: {want.value}\n",
    )


def test_enumerate_into_a_closed_pipe_exits_one_without_traceback():
    src = os.path.dirname(os.path.dirname(magmoves.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "magmoves", "enumerate", "--n", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"5\n"
        proc.stdout.close()  # the reader goes away, as `| head -1` does
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert b"Traceback" not in err


_NO_NUMPY_SCRIPT = """
import contextlib, io, sys

import magmoves
from magmoves import cli

path = sys.argv[1]
commands = [
    ["validate", path],
    ["separate", path, "--x", "X", "--y", "Y", "--given", "Z"],
    ["equiv", path, path],
    ["moves", path],
    ["apply", path, "--kind", "reverse", "--x", "X", "--y", "Z"],
    ["class", path],
    ["dot", path],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert set(magmoves.__all__) <= set(dir(magmoves))
assert "numpy" not in sys.modules
assert len(list(magmoves.enumerate_mags(3))) == 56
assert "numpy" in sys.modules
"""

_STAR_SCRIPT = """
import sys

from magmoves import *

assert "numpy" in sys.modules
assert len(list(enumerate_mags(3))) == 56
"""

_ENUMERATE_SCRIPT = """
import sys

from magmoves import cli

assert "numpy" not in sys.modules
assert cli.main(["enumerate", "--n", "2"]) == 0
assert "numpy" in sys.modules
"""


def test_one_graph_commands_load_no_numpy(write_graph):
    # a fresh interpreter each, since this one has numpy loaded already
    g = MixedGraph(3, [directed(0, 1), directed(1, 2)], labels=("X", "Z", "Y"))
    src = os.path.dirname(os.path.dirname(magmoves.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for script, argv in (
        (_NO_NUMPY_SCRIPT, [write_graph(g)]),
        (_STAR_SCRIPT, []),
        (_ENUMERATE_SCRIPT, []),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n2;0<>1\n2;0>1\n2;1>0\n"


def test_enumerate_bad_n(capsys):
    assert main(["enumerate", "--n", "9"]) == 2
    assert "between 1 and 5" in capsys.readouterr().err


def test_conjecture_report(capsys):
    assert main(["conjecture", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2
    assert payload["mag_count"] == 4
    assert payload["counterexamples"] == []
    assert payload["closure_gaps"] == []


def test_verify_report(capsys):
    assert main(["verify", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["thm2_vs_oracle"]["passed"] is True


# sha256 of the stdout of `verify`/`conjecture --n k` for k = 1..4, recorded
# while the sweeps still ran legal_moves once per MAG: the reports must stay
# byte-identical.
_REPORT_SHA256 = {
    "verify": [
        "c99f157ff1589608396a7a8eca7503bf8979734a3180e3cfc42b793b615a7dfa",
        "74fe50ff144b8a400b9c1c0aea75bdd25304709c2aa5266e682ae5f03716115a",
        "9bc77b9acac30e5442500bf7d34acdd5fcf703c4e481e822b41d77ac92b6ad2f",
        "49f2ca46021bc719d52b842f287bc5036f043823626eabe542132903494284d4",
    ],
    "conjecture": [
        "5883d00ea07c1c00d44a8627e9feebf828378b80b145440ce8862effb1198da1",
        "6d3988885340e07a15951839005efcc2f9f21753f94afee8e77fc6cc1cfe691b",
        "023f15343dc2f546e2b4d7310d31768d1f16a8889e457e88ca455a81344daa06",
        "6a70a496b0bcc64b01ffd1541ce2ad6e490a456ed3f650febc222c361eb71a52",
    ],
}


@pytest.mark.parametrize("command", sorted(_REPORT_SHA256))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_report_bytes_are_pinned(command, n, capsys):
    assert main([command, "--n", str(n)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == _REPORT_SHA256[command][n - 1]


def test_dot_subcommand(edge_file, capsys):
    assert main(["dot", edge_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph {")
    assert '"X" -> "Y";' in out


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/g.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw", [b"\xff\xfe{", b"[" * 100_000, b"1" * 5000], ids=["utf8", "deep", "digits"]
)
def test_unreadable_bytes_exit_two(tmp_path, capsys, raw):
    path = tmp_path / "g.json"
    path.write_bytes(raw)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_dot_format_on_graph_printing_commands(edge_file, capsys):
    argv = ["apply", edge_file, "--kind", "dir-to-bi", "--x", "X", "--y", "Y"]
    assert main(argv + ["--format", "dot"]) == 0
    assert '"X" -> "Y" [dir=both];' in capsys.readouterr().out
    assert main(["enumerate", "--n", "2", "--format", "dot"]) == 0
    assert capsys.readouterr().out.count("digraph {") == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{g}"],
        ["separate", "{g}", "--x", "X", "--y", "Y"],
        ["equiv", "{g}", "{g}"],
        ["moves", "{g}"],
        ["class", "{g}"],
    ],
    ids=lambda argv: argv[0],
)
def test_dot_format_is_a_usage_error_on_queries(edge_file, capsys, argv):
    argv = [edge_file if a == "{g}" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["separate"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


_NAMES = ("A", "B", "C", "D", "E")
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(_NAMES),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)
_edge_docs = st.fixed_dictionaries(
    {
        "u": st.sampled_from(_NAMES) | _json_values,
        "v": st.sampled_from(_NAMES),
        "type": st.sampled_from(["directed", "bidirected", "undirected"]),
    }
)
_graph_docs = st.fixed_dictionaries(
    {
        "nodes": st.lists(st.sampled_from(_NAMES), max_size=5, unique=True)
        | st.lists(_json_values, max_size=3),
        "edges": st.lists(_edge_docs | _json_values, max_size=7),
    }
)
_documents = (
    st.binary(max_size=120)
    | _json_values.map(lambda v: json.dumps(v).encode())
    | _graph_docs.map(lambda v: json.dumps(v).encode())
)
_commands = st.sampled_from(
    [
        ["validate", "{1}"],
        ["validate", "{1}", "--format", "json"],
        ["moves", "{1}", "--format", "json"],
        ["class", "{1}", "--max", "20"],
        ["equiv", "{1}", "{2}", "--format", "json"],
        ["equiv", "{1}", "{2}", "--oracle"],
        ["separate", "{1}", "--x", "{x}", "--y", "{y}", "--given", "{z}"],
    ]
)


@settings(deadline=None, max_examples=300)
@given(
    command=_commands,
    first=_documents,
    second=_documents,
    ends=st.lists(st.sampled_from(_NAMES), min_size=3, max_size=3),
)
def test_cli_exit_codes_hold_for_any_input(command, first, second, ends):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"g{i}.json") for i in (1, 2)]
        for path, data in zip(paths, (first, second)):
            with open(path, "wb") as fh:
                fh.write(data)
        x, y, z = ends
        argv = [
            {"{1}": paths[0], "{2}": paths[1], "{x}": x, "{y}": y, "{z}": z}.get(a, a)
            for a in command
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
