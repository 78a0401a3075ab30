"""What the traced run wraps, and the per-layer metrics it reports.

Layers are the modules under ``src/magmoves/``.  Each metric names the
end-to-end metric it should move, on which workload, so a later change can
cite the prediction by name.  On ``sweep-n4``, ``op_p50_ms`` is the
``conjecture`` command and ``op_p99_ms`` the ``verify`` command; on
``queries``, ``wall_s`` is the inverse of throughput over the fixed
stream.
"""

from __future__ import annotations

from magmoves import (
    _kernels,
    cli,
    enumeration,
    equivalence,
    graph,
    io,
    separation,
    transform,
)

from spans import Tracer


def _kernel_counts(tr: Tracer, args, result) -> None:
    n = args[0]
    codes = 4 ** (n * (n - 1) // 2)
    tr.counts["kernels.codes_scanned"] += codes
    tr.counts["kernels.mags_kept"] += len(result)
    # Computed, not measured: the numpy kernel fills one n x n uint8 mark
    # matrix per code.
    tr.counts["kernels.mark_bytes"] += codes * n * n


def _signature_graphs(tr: Tracer, args, result) -> None:
    g = args[0]
    # Node count and edges identify the canonical key without caching one
    # on the graph, which would speed up later timed calls.
    tr.sets["separation.separation_signature.distinct"].add((g.n, g.edges))


def _count_true(tr: Tracer, args, result) -> None:
    if result:
        tr.counts["equivalence.markov_equivalent.true"] += 1


def _count_moves(tr: Tracer, args, result) -> None:
    tr.counts["transform.legal_moves.moves"] += len(result)


def _closure_size(tr: Tracer, args, result) -> None:
    tr.counts["transform.equivalence_class_closure.graphs"] += len(result.keys)


# (span, owner, attribute, hook, keep per-call durations)
TARGETS = (
    ("kernels.enumerate_mag_codes", _kernels, "enumerate_mag_codes", _kernel_counts, False),
    ("enumeration.enumerate_mags", enumeration, "enumerate_mags", None, False),
    ("enumeration.graph_from_pair_code", enumeration, "graph_from_pair_code", None, False),
    ("enumeration.partition_into_classes", enumeration, "partition_into_classes", None, False),
    ("enumeration.test_conjecture1", enumeration, "test_conjecture1", None, False),
    ("enumeration.verify_theorems", enumeration, "verify_theorems", None, False),
    ("graph.Mag", graph.Mag, "__init__", None, False),
    ("graph.is_mag", graph, "is_mag", None, False),
    ("graph.simple_paths_between", graph, "simple_paths_between", None, False),
    ("separation.separation_signature", separation, "separation_signature", _signature_graphs, False),
    ("separation.m_connected", separation, "m_connected", None, False),
    ("separation.find_separator", separation, "find_separator", None, True),
    ("separation.find_connecting_path", separation, "find_connecting_path", None, True),
    ("equivalence.markov_equivalent", equivalence, "markov_equivalent", _count_true, True),
    ("equivalence.markov_equivalent_bruteforce", equivalence, "markov_equivalent_bruteforce", None, False),
    ("equivalence.discriminating_path_exists_for_triple", equivalence, "discriminating_path_exists_for_triple", None, False),
    ("transform.legal_moves", transform, "legal_moves", _count_moves, False),
    ("transform.apply_move", transform, "apply_move", None, False),
    ("transform.equivalence_class_closure", transform, "equivalence_class_closure", _closure_size, False),
    ("transform.delta", transform, "delta", None, False),
    ("transform.blanket_checks", transform, "is_blanketed_directed", None, False),
    ("transform.blanket_checks", transform, "is_blanketed_bidirected_against", None, False),
    ("transform.is_screened", transform, "is_screened", None, False),
    ("io.parse_graph_json", io, "parse_graph_json", None, False),
    ("cli.main", cli, "main", None, False),
)

_E5 = "wall_s on enumerate-n5"
_VER = "op_p99_ms (verify) on sweep-n4"
_CONJ = "op_p50_ms (conjecture) on sweep-n4"
_QPS = "wall_s (throughput) on queries"
_P50 = "op_p50_ms on queries"
_P99 = "op_p99_ms on queries"

# name -> (unit, better, the end-to-end metric it should move)
PER_LAYER = {
    "kernels.enumerate_mag_codes.s": ("s", "lower", f"{_E5}; not sweep-n4"),
    "kernels.codes_scanned": ("count", "lower", f"{_E5}; not sweep-n4"),
    "kernels.mags_kept": ("count", "higher", f"{_E5}; not sweep-n4"),
    "kernels.mark_bytes": ("B", "lower", f"{_E5}; computed as codes x n^2"),
    "enumeration.enumerate_mags.s": ("s", "lower", f"{_E5} and peak_rss_mb there"),
    "enumeration.graph_from_pair_code.calls": ("count", "lower", f"{_E5} and peak_rss_mb there"),
    "enumeration.graph_from_pair_code.s": ("s", "lower", f"{_E5} and peak_rss_mb there"),
    "enumeration.partition_into_classes.s": ("s", "lower", _CONJ),
    "enumeration.test_conjecture1.s": ("s", "lower", _CONJ),
    "enumeration.verify_theorems.s": ("s", "lower", _VER),
    "graph.Mag.calls": ("count", "lower", f"{_E5}; {_QPS}"),
    "graph.Mag.s": ("s", "lower", f"{_E5}; {_QPS}"),
    "graph.Mag.rejected": ("count", "lower", f"{_E5}; {_QPS}"),
    "graph.is_mag.calls": ("count", "lower", _VER),
    "graph.is_mag.s": ("s", "lower", _VER),
    "separation.separation_signature.calls": ("count", "lower", f"{_VER}; {_CONJ}"),
    "separation.separation_signature.s": ("s", "lower", f"{_VER}; {_CONJ}"),
    "separation.separation_signature.distinct": ("count", "lower", f"{_VER}; {_CONJ}"),
    "separation.m_connected.calls": ("count", "lower", _P50),
    "separation.m_connected.s": ("s", "lower", _P50),
    "separation.find_separator.calls": ("count", "lower", _P99),
    "separation.find_separator.s": ("s", "lower", _P99),
    "separation.find_separator.tail_ms": ("ms", "lower", _P99),
    "separation.find_separator.candidates": ("count", "lower", _P99),
    "separation.find_connecting_path.calls": ("count", "lower", _P99),
    "separation.find_connecting_path.s": ("s", "lower", _P99),
    "separation.find_connecting_path.tail_ms": ("ms", "lower", _P99),
    "separation.find_connecting_path.paths_tried": ("count", "lower", _P99),
    "equivalence.markov_equivalent.calls": ("count", "lower", f"{_VER}; {_P99}"),
    "equivalence.markov_equivalent.s": ("s", "lower", f"{_VER}; {_P99}"),
    "equivalence.markov_equivalent.tail_ms": ("ms", "lower", f"{_VER}; {_P99}"),
    "equivalence.markov_equivalent.true": ("count", "higher", f"{_VER}; {_P99}"),
    "equivalence.markov_equivalent_bruteforce.calls": ("count", "lower", _VER),
    "equivalence.markov_equivalent_bruteforce.s": ("s", "lower", _VER),
    "equivalence.discriminating_path_exists_for_triple.calls": ("count", "lower", f"{_VER}; {_CONJ}; {_QPS}"),
    "equivalence.discriminating_path_exists_for_triple.s": ("s", "lower", f"{_VER}; {_CONJ}; {_QPS}"),
    "transform.legal_moves.calls": ("count", "lower", f"{_CONJ}; {_QPS}"),
    "transform.legal_moves.s": ("s", "lower", f"{_CONJ}; {_QPS}"),
    "transform.legal_moves.moves": ("count", "higher", f"{_CONJ}; {_QPS}"),
    "transform.apply_move.calls": ("count", "lower", f"{_CONJ}; {_QPS}"),
    "transform.apply_move.s": ("s", "lower", f"{_CONJ}; {_QPS}"),
    "transform.apply_move.rejected": ("count", "lower", f"{_CONJ}; {_QPS}"),
    "transform.equivalence_class_closure.calls": ("count", "lower", f"{_CONJ}; {_QPS}"),
    "transform.equivalence_class_closure.s": ("s", "lower", f"{_CONJ}; {_QPS}"),
    "transform.equivalence_class_closure.graphs": ("count", "higher", f"{_CONJ}; {_QPS}"),
    "transform.equivalence_class_closure.new_per_apply": ("ratio", "higher", f"{_CONJ}; {_QPS}"),
    "transform.delta.calls": ("count", "lower", f"{_VER}; {_CONJ}"),
    "transform.delta.s": ("s", "lower", f"{_VER}; {_CONJ}"),
    "transform.blanket_checks.calls": ("count", "lower", f"{_VER}; {_CONJ}"),
    "transform.blanket_checks.s": ("s", "lower", f"{_VER}; {_CONJ}"),
    "transform.is_screened.calls": ("count", "lower", f"{_VER}; {_CONJ}"),
    "transform.is_screened.s": ("s", "lower", f"{_VER}; {_CONJ}"),
    "io.parse_graph_json.calls": ("count", "lower", _P50),
    "io.parse_graph_json.s": ("s", "lower", _P50),
    "cli.main.s": ("s", "lower", f"{_E5}; {_VER}; {_CONJ}"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time of one pass"),
}


def per_layer(tr: Tracer, overhead_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """Every ``PER_LAYER`` value, plus why any reported as 0 is absent."""
    values: dict[str, float] = {"trace.overhead_s": overhead_s}
    absent: dict[str, str] = {}
    spans = {t[0] for t in TARGETS}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in values:
            continue
        if span in spans and field == "calls":
            values[name] = tr.total(span, 0)
        elif span in spans and field == "s":
            values[name] = tr.total(span, 2)
        elif span in spans and field == "tail_ms":
            tail = tr.tail_ms(span)
            if tail is None:
                absent[name] = "fewer than 11 calls"
            values[name] = tail or 0.0
        elif name in tr.sets:
            values[name] = len(tr.sets[name])
        else:
            values[name] = tr.counts[name]
    closure = "transform.equivalence_class_closure"
    values["separation.find_separator.candidates"] = tr.total(
        "separation.m_connected", 0, parent="separation.find_separator"
    )
    values["separation.find_connecting_path.paths_tried"] = tr.total(
        "graph.simple_paths_between", 3, parent="separation.find_connecting_path"
    )
    applies = tr.total("transform.apply_move", 0, parent=closure)
    reached = values[f"{closure}.graphs"] - values[f"{closure}.calls"]
    values[f"{closure}.new_per_apply"] = reached / applies if applies else 0.0
    if not applies:
        absent[f"{closure}.new_per_apply"] = "no apply_move call under a closure"
    return values, absent
