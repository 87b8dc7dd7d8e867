"""Labeled graphs presenting a zip shift space.

Vertices carry A'-words as labels (duplicates allowed, identity is an integer
id).  Edges carry a pair of labels: ``first`` is the A'-letter the walk reads
next, ``sofic`` the A-letter the transition map assigns to that step.  Walks
of the graph spell exactly the admissible sequences, which is what the
pre-image engine runs on.
"""
from __future__ import annotations

import re

from .errors import InvalidWord, NotFiniteType
from .space import ZipShiftSpace
from .symbols import Word


class LabeledGraph:
    """A directed multigraph with word-labeled vertices and pair-labeled edges."""

    def __init__(
        self,
        labels: list[Word],
        edges: list[tuple[int, int, str, str | None]],
    ):
        self.labels: tuple[Word, ...] = tuple(tuple(w) for w in labels)
        self.edges: tuple[tuple[int, int, str, str | None], ...] = tuple(edges)
        n = len(self.labels)
        for src, dst, _first, _sofic in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise InvalidWord(f"edge ({src}, {dst}) references a missing vertex")
        self._out: list[list[int]] = [[] for _ in range(n)]
        self._in: list[list[int]] = [[] for _ in range(n)]
        for idx, (src, dst, _f, _s) in enumerate(self.edges):
            self._out[src].append(idx)
            self._in[dst].append(idx)
        self._by_label: dict[Word, list[int]] = {}
        for vid, lab in enumerate(self.labels):
            self._by_label.setdefault(lab, []).append(vid)
        # Letter indexes, one entry per edge: the sources of a vertex's
        # in-edges by sofic letter, the targets of its out-edges by first letter.
        self.sources_by_sofic: list[dict[str | None, list[int]]] = [{} for _ in range(n)]
        self.targets_by_first: list[dict[str, list[int]]] = [{} for _ in range(n)]
        for src, dst, first, sofic in self.edges:
            self.sources_by_sofic[dst].setdefault(sofic, []).append(src)
            self.targets_by_first[src].setdefault(first, []).append(dst)

    def n_vertices(self) -> int:
        return len(self.labels)

    def out_edges(self, vid: int) -> list[tuple[int, int, str, str | None]]:
        return [self.edges[i] for i in self._out[vid]]

    def in_edges(self, vid: int) -> list[tuple[int, int, str, str | None]]:
        return [self.edges[i] for i in self._in[vid]]

    def ids_with_label(self, label: Word) -> list[int]:
        return list(self._by_label.get(tuple(label), ()))


def presentation_graph(space: ZipShiftSpace) -> LabeledGraph:
    """The sofic presentation as a labeled graph (vertex names as 1-word labels)."""
    if space.kind != "sofic":
        raise NotFiniteType("only sofic spaces carry a presentation graph")
    names = list(space.presentation_vertices)
    index = {v: i for i, v in enumerate(names)}
    edges = [
        (index[src], index[dst], letter, None)
        for src, dst, letter in space.presentation_edges
    ]
    return LabeledGraph([(v,) for v in names], edges)


def vertex_like(g: LabeledGraph) -> LabeledGraph:
    """Move the letters from edges onto vertices, splitting parallel edges first.

    Each vertex is split into as many copies as its largest parallel-edge
    bundle; the k-th parallel edge leaves the k-th copy and enters every copy
    of its target.  The line graph of the result carries one letter per
    vertex, so bi-infinite walks spell the same language as the input.
    """
    # Number the parallel copies each vertex needs.
    copies = [1] * g.n_vertices()
    parallel_rank: dict[int, int] = {}
    for vid in range(g.n_vertices()):
        seen: dict[int, int] = {}
        for eidx in g._out[vid]:
            _src, dst, _first, _sofic = g.edges[eidx]
            rank = seen.get(dst, 0)
            seen[dst] = rank + 1
            parallel_rank[eidx] = rank
            copies[vid] = max(copies[vid], rank + 1)
    split_id: dict[tuple[int, int], int] = {}
    split_labels: list[Word] = []
    for vid in range(g.n_vertices()):
        for c in range(copies[vid]):
            split_id[(vid, c)] = len(split_labels)
            split_labels.append(g.labels[vid])
    split_edges: list[tuple[int, int, str, str | None]] = []
    for eidx, (src, dst, first, _sofic) in enumerate(g.edges):
        for target_copy in range(copies[dst]):
            split_edges.append(
                (split_id[(src, parallel_rank[eidx])], split_id[(dst, target_copy)], first, None)
            )
    # Line graph: one vertex per split edge, labeled by its letter.
    line_labels: list[Word] = [(first,) for _s, _d, first, _x in split_edges]
    line_edges: list[tuple[int, int, str, str | None]] = []
    for i, (_si, di, _fi, _xi) in enumerate(split_edges):
        for j, (sj, _dj, fj, _xj) in enumerate(split_edges):
            if di == sj:
                line_edges.append((i, j, fj, None))
    return _trim(LabeledGraph(line_labels, line_edges))


def _trim(g: LabeledGraph) -> LabeledGraph:
    """Restrict to vertices with bi-infinite walks through them."""
    alive = set(range(g.n_vertices()))
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            has_out = any(g.edges[i][1] in alive for i in g._out[v])
            has_in = any(g.edges[i][0] in alive for i in g._in[v])
            if not (has_out and has_in):
                alive.discard(v)
                changed = True
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    labels = [g.labels[v] for v in keep]
    edges = [
        (remap[s], remap[d], f, x)
        for (s, d, f, x) in g.edges
        if s in alive and d in alive
    ]
    return LabeledGraph(labels, edges)


def spelled_language(g: LabeledGraph, k: int) -> set[Word]:
    """All k-words spelled by walks, overlapping vertex labels block-style.

    Vertex labels are read as sliding windows: a walk v_0 v_1 ... spells
    label(v_0) followed by the last letter of each later label.
    """
    ell = len(g.labels[0]) if g.labels else 0
    if any(len(lab) != ell for lab in g.labels):
        raise InvalidWord("spelled_language needs uniform label length")
    words: set[Word] = set()
    if k <= ell:
        for lab in g.labels:
            for i in range(ell - k + 1):
                words.add(lab[i : i + k])
        return words
    memo: dict[tuple[int, int], set[Word]] = {}

    def ext(v: int, extra: int) -> set[Word]:
        if extra == 0:
            return {()}
        if (v, extra) in memo:
            return memo[(v, extra)]
        acc = set()
        for _s, d, first, _x in g.out_edges(v):
            for w in ext(d, extra - 1):
                acc.add((first,) + w)
        memo[(v, extra)] = acc
        return acc

    for v in range(g.n_vertices()):
        for w in ext(v, k - ell):
            words.add(g.labels[v] + w)
    return words


def _block_recode(g: LabeledGraph, ell: int, space: ZipShiftSpace) -> LabeledGraph:
    """Recode a 1-letter vertex-like graph so every vertex label has ell letters.

    New vertices are length-ell walks of the input; the sofic edge label
    becomes the transition image of the source label's leading window.
    """
    walks: list[tuple[int, ...]] = [(v,) for v in range(g.n_vertices())]
    for _ in range(ell - 1):
        walks = [
            w + (e[1],)
            for w in walks
            for e in g.out_edges(w[-1])
        ]
        walks = sorted(set(walks))
    wid = {w: i for i, w in enumerate(walks)}
    labels = [tuple(g.labels[v][0] for v in w) for w in walks]
    edges: list[tuple[int, int, str, str | None]] = []
    for w in walks:
        src_label = labels[wid[w]]
        for e in g.out_edges(w[-1]):
            w2 = w[1:] + (e[1],)
            if w2 in wid:
                edges.append((wid[w], wid[w2], labels[wid[w2]][-1], space.tm(src_label[: space.n])))
    return _trim(LabeledGraph(labels, edges))


def build_labeled_graph(space: ZipShiftSpace) -> LabeledGraph:
    """The labeled presentation used by the pre-image engine.

    Finite-type spaces get the sliding-window graph on admissible ell-words,
    ell = max(n-1, memory, 1), with an edge for every admissible extension.
    Sofic spaces go through the vertex-like construction, then a block
    recode so every vertex label is long enough to evaluate the transition
    map; the recode is cross-checked against the space's own language.
    """
    n = space.n
    if space.kind in ("full", "sft"):
        ell = max(n - 1, space.memory(), 1)
        vertices = space.language(ell)
        index = {w: i for i, w in enumerate(vertices)}
        edges: list[tuple[int, int, str, str | None]] = []
        for u in vertices:
            for c in space.alphabet_aprime.symbols:
                w = u + (c,)
                if space.admissible_word(w):
                    edges.append((index[u], index[w[1:]], c, space.tm(w[:n])))
        return LabeledGraph(list(vertices), edges)
    vl = vertex_like(presentation_graph(space))
    recoded = _block_recode(vl, max(n, 1), space)
    bound = min(2 * recoded.n_vertices(), 10)
    for k in range(1, bound + 1):
        if len(space.alphabet_aprime) ** k > 200_000:
            break
        got = spelled_language(recoded, k)
        want = set(space.language(k))
        if got != want:
            raise InvalidWord(
                f"vertex-like recode changed the language at length {k}: "
                f"extra={sorted(got - want)[:3]} missing={sorted(want - got)[:3]}"
            )
    return recoded


def backward(g: LabeledGraph) -> LabeledGraph:
    """The same graph with every edge reversed and labels kept."""
    return LabeledGraph(
        list(g.labels),
        [(dst, src, first, sofic) for (src, dst, first, sofic) in g.edges],
    )


def _dot_name(vid: int, label: Word) -> str:
    flat = "".join(label)
    return f"v{vid}_" + re.sub(r"[^0-9A-Za-z_]", "_", flat)


def export_dot(g: LabeledGraph) -> str:
    """Render as a DOT digraph, vertices and edges ordered by id."""
    lines = ["digraph zipshift {", "  rankdir=LR;"]
    for vid, label in enumerate(g.labels):
        lines.append(f"  {_dot_name(vid, label)};")
    for src, dst, first, sofic in g.edges:
        tag = first if sofic is None else f"{first}/{sofic}"
        lines.append(
            f"  {_dot_name(src, g.labels[src])} -> {_dot_name(dst, g.labels[dst])} [label=\"{tag}\"];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
