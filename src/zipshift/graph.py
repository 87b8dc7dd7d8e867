"""Labeled graphs presenting a zip shift space.

Vertices carry A'-words as labels (duplicates allowed, identity is an integer
id).  Edges carry a pair of labels: ``first`` is the A'-letter the walk reads
next, ``sofic`` the A-letter the transition map assigns to that step.  Walks
of the graph spell exactly the admissible sequences, which is what the
pre-image engine runs on.

Every space kind gets its window graph the same way, as a higher edge graph
(Lind & Marcus, section 2.3) of the trimmed A'-graph the space already
holds: its vertices are walks of that graph, labeled by the letters they
spell, and its edges are the walks one step longer.  ``presentation_graph``
and ``vertex_like`` build a sofic presentation's line graph apart from that
construction and serve as its reference.
"""
from __future__ import annotations

import re

from .errors import InvalidWord, NotFiniteType
from .space import ZipShiftSpace, _live_vertices, _SubsetWalk
from .symbols import Word


class LetterSteps:
    """One walking direction of a labeled graph, indexed by letter.

    ``step[v][c]`` lists the vertices one step on from v reading c, one entry
    per edge.  ``last_label`` is the pre-image engine's most recent label
    along this walk, or None: one per walk, so the queries asked in turn
    about one point share the viability searches on each of its sides.

    The pre-image path search interns its states along this walk in
    ``joint_states``, each with the steps taken from it: the branch chains
    of one classification at one depth, each a pair of the vertices it
    reaches and their capped path counts, with the facts the patterns read
    off them.  Each chain is kept once per walk in ``chain_states``, so the
    joint states that share a chain share one copy of it.  The search clears
    both tables before a classification once it holds more than a fixed
    number of joint states per vertex.
    ``ranked_sources`` is ``step`` with each list in the canonical lift's
    (label, id) order, built on the first lift along this walk, or None.
    """

    __slots__ = ("step", "last_label", "joint_states", "chain_states", "ranked_sources")

    def __init__(self, step: list[dict]):
        self.step = step
        self.last_label = None
        self.joint_states: dict = {}
        self.chain_states: dict = {}
        self.ranked_sources: list[dict] | None = None


class LabeledGraph:
    """A directed multigraph with word-labeled vertices and pair-labeled edges.

    Indexed, one entry per edge, by vertex: in-edge sources by sofic letter
    (``sources_by_sofic``), out-edge targets by sofic letter
    (``targets_by_sofic``) and by first letter (``targets_by_first``); its
    vertices are indexed by label (``ids_with_label``)."""

    def __init__(
        self,
        labels: list[Word],
        edges: list[tuple[int, int, str, str | None]],
    ):
        self.labels: tuple[Word, ...] = tuple(tuple(w) for w in labels)
        self.edges: tuple[tuple[int, int, str, str | None], ...] = tuple(edges)
        n = len(self.labels)
        self._by_label: dict[Word, list[int]] = {}
        for vid, lab in enumerate(self.labels):
            self._by_label.setdefault(lab, []).append(vid)
        self.sources_by_sofic: list[dict[str | None, list[int]]] = [{} for _ in range(n)]
        self.targets_by_sofic: list[dict[str | None, list[int]]] = [{} for _ in range(n)]
        self.targets_by_first: list[dict[str, list[int]]] = [{} for _ in range(n)]
        for src, dst, first, sofic in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise InvalidWord(f"edge ({src}, {dst}) references a missing vertex")
            self.sources_by_sofic[dst].setdefault(sofic, []).append(src)
            self.targets_by_sofic[src].setdefault(sofic, []).append(dst)
            self.targets_by_first[src].setdefault(first, []).append(dst)
        # Walks toward minus infinity read sofic letters on reversed edges;
        # walks toward plus infinity read first letters on the edges as given.
        self.leftward = LetterSteps(self.sources_by_sofic)
        self.rightward = LetterSteps(self.targets_by_first)

    def n_vertices(self) -> int:
        return len(self.labels)

    def out_edges(self, vid: int) -> list[tuple[int, int, str, str | None]]:
        return [e for e in self.edges if e[0] == vid]

    def in_edges(self, vid: int) -> list[tuple[int, int, str, str | None]]:
        return [e for e in self.edges if e[1] == vid]

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
    parallel_rank: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    for src, dst, _first, _sofic in g.edges:
        rank = seen.get((src, dst), 0)
        seen[(src, dst)] = rank + 1
        parallel_rank.append(rank)
        copies[src] = max(copies[src], rank + 1)
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
    leaving: list[list[int]] = [[] for _ in split_labels]
    for j, (sj, _dj, _fj, _xj) in enumerate(split_edges):
        leaving[sj].append(j)
    line_edges = [
        (i, j, split_edges[j][2], None) for i, (_s, di, _f, _x) in enumerate(split_edges) for j in leaving[di]
    ]
    return _trim(LabeledGraph(line_labels, line_edges))


def _trim(g: LabeledGraph) -> LabeledGraph:
    """Restrict to vertices with bi-infinite walks through them.

    The live vertices come from the same linear worklist trim that the
    space's own A'-graph goes through; survivors keep their order.
    """
    alive = _live_vertices(
        [[t for targets in out.values() for t in targets] for out in g.targets_by_first],
        [[u for sources in into.values() for u in sources] for into in g.sources_by_sofic],
    )
    keep = [v for v in range(g.n_vertices()) if alive[v]]
    remap = {old: new for new, old in enumerate(keep)}
    labels = [g.labels[v] for v in keep]
    edges = [
        (remap[s], remap[d], f, x)
        for (s, d, f, x) in g.edges
        if alive[s] and alive[d]
    ]
    return LabeledGraph(labels, edges)


def spelled_language(g: LabeledGraph, k: int) -> set[Word]:
    """All k-words spelled by walks, overlapping vertex labels block-style.

    Vertex labels are read as sliding windows: a walk v_0 v_1 ... spells
    label(v_0) followed by the last letter of each later label.  Words no
    longer than a label are its windows; a longer word is a label followed
    by a word read on the subset walk over first letters started from the
    vertices that carry that label.
    """
    if k < 1:
        raise InvalidWord(f"word length must be positive, got {k}")
    ell = len(g.labels[0]) if g.labels else 0
    if any(len(lab) != ell for lab in g.labels):
        raise InvalidWord("spelled_language needs uniform label length")
    if k <= ell:
        return {lab[i : i + k] for lab in g.labels for i in range(ell - k + 1)}
    letters = tuple(sorted({first for _s, _d, first, _x in g.edges}))
    words: set[Word] = set()
    for lab, vids in g._by_label.items():
        walk = _SubsetWalk(g.targets_by_first, letters, vids)
        words.update(lab + w for w, _state in walk.words(k - ell))
    return words


def build_labeled_graph(space: ZipShiftSpace, ell: int | None = None) -> LabeledGraph:
    """The labeled window graph of width ``ell``: for every space kind, a
    higher edge graph of the space's trimmed A'-graph.

    Its units are, for full and finite-type spaces, the block graph's
    vertices, labeled by the live max(step_k, 1)-blocks the space keeps
    (``ZipShiftSpace._blocks``, in alphabet order), and, for sofic spaces,
    the presentation edges in the order given, each labeled by its letter,
    so that parallel edges stay distinct.  A vertex is a walk of
    units whose labels, overlapped, spell ell letters.  It has an edge to
    every walk that drops its first unit and takes one more; the edge reads
    that unit's last letter c and carries the A-letter tm((label + c)[:n]),
    looked up once per vertex when the label has n letters or more.  A
    walk of one unit is numbered as that unit.
    Vertices come in lexicographic order of their units, which for
    finite-type spaces is alphabet order of their labels.  ``ell`` defaults
    to the space's ``_default_width`` and may not be below the least width;
    sofic graphs are cross-checked against the space's language on short
    words.  Spaces keep theirs per width (``ZipShiftSpace._graph``).
    """
    least = space._least_width()
    if ell is None:
        ell = space._default_width()
    elif ell < least:
        raise InvalidWord(f"window width {ell} is below the least width {least}")
    if space.kind == "sofic":
        units = space.presentation_edges
        leaving: dict[str, list[int]] = {}
        for i, (src, _dst, _c) in enumerate(units):
            leaving.setdefault(src, []).append(i)
        labels_of = [(c,) for _s, _d, c in units]
        succ = [leaving[dst] for _s, dst, _c in units]
    else:
        labels_of = space._blocks
        succ = [[t for targets in out.values() for t in targets] for out in space._step]
    walks: list[tuple[int, ...]] = [(u,) for u in range(len(labels_of))]
    for _ in range(ell - len(labels_of[0])):
        walks = [w + (t,) for w in walks for t in succ[w[-1]]]
    index = None if len(walks[0]) == 1 else {w: i for i, w in enumerate(walks)}
    labels = [labels_of[w[0]] + tuple(labels_of[u][-1] for u in w[1:]) for w in walks]
    n, tm = space.n, space.tm
    edges: list[tuple[int, int, str, str | None]] = []
    for i, w in enumerate(walks):
        label = labels[i]
        # Every edge out of a label of n letters or more carries its first
        # window's image; a label of n - 1 letters needs the edge's letter.
        a = tm(label[:n]) if ell >= n else None
        for t in succ[w[-1]]:
            c = labels_of[t][-1]
            dst = t if index is None else index[w[1:] + (t,)]
            edges.append((i, dst, c, tm(label + (c,)) if a is None else a))
    g = LabeledGraph(labels, edges)
    if space.kind == "sofic":
        bound = min(2 * g.n_vertices(), 10)
        for k in range(1, bound + 1):
            if len(space.alphabet_aprime) ** k > 200_000:
                break
            got = spelled_language(g, k)
            want = set(space.language(k))
            if got != want:
                raise InvalidWord(
                    f"window graph spells a different language at length {k}: "
                    f"extra={sorted(got - want)[:3]} missing={sorted(want - got)[:3]}"
                )
    return g


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
        tag = tag.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(
            f"  {_dot_name(src, g.labels[src])} -> {_dot_name(dst, g.labels[dst])} [label=\"{tag}\"];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
