"""Open-graph diagrams of generators and their evaluation by contraction.

A diagram is a multigraph: nodes are generators (identified by string
ids), edges are wires joining two ports, and the boundary is an ordered
list of input and output positions.  A port is a pair ``(owner, index)``
where ``owner`` is a node id or one of the reserved names ``"in"`` /
``"out"`` (boundary sides) and ``index`` is a leg number or boundary
position.  Every generator leg and every boundary position must appear
in exactly one edge endpoint; self-loops and parallel edges are
allowed.

Wires carry no weight (they are plain deltas), so evaluation sums every
internal wire index over the residue window with no extra measure
factor; all normalization lives in the generator tensors.

Serial composition and anchored rewriting (``rewrite.apply``) share one
splice, ``_splice``: both cut wires at a seam and join the pieces back
into edges, and a closed chain of cut wires becomes a free loop worth D.

Evaluation notes: white and green dots are diagonal, so instead of
materializing a dense rank-deg tensor the evaluator unifies all wires
incident to such a dot into a single summation index carrying the dot's
diagonal weight.  This keeps very high-degree copy dots (the
normal-form synthesizer builds fan-outs of degree D^(m+n)+1) cheap.
Red and gray dots depend only on the sum of their legs mod D; when
their dense form would be large they are expanded through a rank-D
character decomposition instead.  Contraction order is greedy: always
merge a pair of factors sharing an index so that the merged rank is
minimal.  For each index the candidate pair is its two lowest-rank
factors; an index shared by three or more factors (a hub, such as a
fan-out dot) keeps them in a lazy min-heap instead of sorting its
factors on every step.  The planner reads only ranks, so dense node
factors are built only when a contraction first needs their array and
are dropped once merged; a fan-out's many selector boxes never all
exist at once.  Every contraction result is checked against
``_MAX_RESULT`` entries before it is allocated, and a larger one raises
``OverflowGuardError``.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from quditzx.generators import (
    Generator,
    amp_from_json,
    amp_to_json,
    diagonal_weight,
    generator_entries,
    red_weight_vector,
)
from quditzx.measure import MeasureContext, OverflowGuardError
from quditzx.tensor import Tensor

Port = tuple[str, int]
Edge = tuple[Port, Port]

_RESERVED = ("in", "out")
_MAX_DENSE = 2_000_000  # entries; beyond this red/gray decompose, others refuse
_MAX_RESULT = 1 << 26  # entries (1 GiB of complex128) in any contraction result


class DiagramError(ValueError):
    """Malformed diagram (dangling leg, double-used port, bad reference)."""


@dataclass(frozen=True)
class Diagram:
    """Immutable open graph; build with :class:`DiagramBuilder`."""

    dim: int
    nodes: dict[str, Generator]
    edges: tuple[Edge, ...]
    n_inputs: int
    n_outputs: int

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        seen: dict[Port, int] = {}
        for edge in self.edges:
            for port in edge:
                owner, idx = port
                if owner == "in":
                    if not 0 <= idx < self.n_inputs:
                        raise DiagramError(f"input position {idx} out of range")
                elif owner == "out":
                    if not 0 <= idx < self.n_outputs:
                        raise DiagramError(f"output position {idx} out of range")
                else:
                    if owner not in self.nodes:
                        raise DiagramError(f"edge references unknown node {owner!r}")
                    if not 0 <= idx < self.nodes[owner].degree:
                        raise DiagramError(f"leg {idx} out of range for node {owner!r}")
                seen[port] = seen.get(port, 0) + 1
        for port, count in seen.items():
            if count > 1:
                raise DiagramError(f"port {port} used {count} times")
        for name, gen in self.nodes.items():
            for leg in range(gen.degree):
                if (name, leg) not in seen:
                    raise DiagramError(f"leg {leg} of node {name!r} is dangling")
        for side, count in (("in", self.n_inputs), ("out", self.n_outputs)):
            for pos in range(count):
                if (side, pos) not in seen:
                    raise DiagramError(f"boundary port {side}:{pos} is dangling")

    def port_edges(self) -> dict[Port, int]:
        """Map each port to the index of the edge containing it."""
        out: dict[Port, int] = {}
        for i, (a, b) in enumerate(self.edges):
            out[a] = i
            out[b] = i
        return out

    def with_fresh_ids(self, prefix: str) -> "Diagram":
        """Copy with every node id prefixed (disjoint-union helper)."""
        rename = {name: prefix + name for name in self.nodes}

        def rn(p: Port) -> Port:
            return (rename.get(p[0], p[0]), p[1])

        return Diagram(
            self.dim,
            {rename[k]: v for k, v in self.nodes.items()},
            tuple((rn(a), rn(b)) for a, b in self.edges),
            self.n_inputs,
            self.n_outputs,
        )


class DiagramBuilder:
    """Mutable assembly surface for diagrams.

    Ports passed to :meth:`wire` may be explicit ``(node_id, leg)``
    pairs, a bare node id (the next unwired leg is allocated), or the
    strings ``"in"`` / ``"out"`` (the next boundary position is
    allocated).  ``build`` validates that every leg and boundary
    position is wired exactly once.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._nodes: dict[str, Generator] = {}
        self._edges: list[Edge] = []
        self._next_leg: dict[str, int] = {}
        self._n_in = 0
        self._n_out = 0
        self._counter = 0

    def node(self, gen: Generator, name: str | None = None) -> str:
        if name is None:
            name = f"{gen.kind}{self._counter}"
            self._counter += 1
        if name in self._nodes or name in _RESERVED or ":" in name:
            raise DiagramError(f"bad or duplicate node name {name!r}")
        self._nodes[name] = gen
        self._next_leg[name] = 0
        return name

    def _resolve(self, ref) -> Port:
        if isinstance(ref, tuple):
            owner, idx = str(ref[0]), int(ref[1])
            if owner == "in":
                self._n_in = max(self._n_in, idx + 1)
            elif owner == "out":
                self._n_out = max(self._n_out, idx + 1)
            return (owner, idx)
        if ref == "in":
            self._n_in += 1
            return ("in", self._n_in - 1)
        if ref == "out":
            self._n_out += 1
            return ("out", self._n_out - 1)
        if ref in self._nodes:
            leg = self._next_leg[ref]
            self._next_leg[ref] = leg + 1
            return (ref, leg)
        raise DiagramError(f"unknown wire endpoint {ref!r}")

    def wire(self, a, b) -> None:
        self._edges.append((self._resolve(a), self._resolve(b)))

    def build(self) -> Diagram:
        d = Diagram(self.dim, dict(self._nodes), tuple(self._edges), self._n_in, self._n_out)
        d.validate()
        return d


# =====================================================================
# Evaluation
# =====================================================================


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _node_factors(
    ctx: MeasureContext, name: str, gen: Generator, leg_labels: list[int], fresh: Iterator[int]
) -> list[tuple[Any, list[int]]]:
    """Factors for one non-diagonal node.

    A dense factor is returned unbuilt, as a zero-argument function that
    makes its array; ``fresh`` yields labels for decomposition indices.
    """
    D, deg, nu = ctx.dim, gen.degree, ctx.nu
    if gen.kind in ("hplus", "hminus", "not", "hbox"):
        if D**deg > _MAX_DENSE:
            raise OverflowGuardError(f"node {name!r}: {gen.kind} of degree {deg} too large at D={D}")
        return [(lambda: generator_entries(ctx, gen), leg_labels)]
    if gen.kind in ("red", "gray"):
        if deg == 0 or D**deg <= _MAX_DENSE:
            return [(lambda: generator_entries(ctx, gen), leg_labels)]
        # character decomposition: entry w(sum of legs) = sum_t c(t) prod_j omega^(t x_j)
        sv = ctx.residues()
        if gen.kind == "red":
            w = red_weight_vector(ctx, gen.amp, deg)
        else:
            w = np.where(sv % D == 0, complex(nu ** (deg - 2)), 0j)
        phase = ctx._omega_table()[np.outer(sv, sv) % D]  # [t, s] = omega^(t s)
        coeff = (phase.conj() @ w) / D  # c(t) = (1/D) sum_s w(s) omega^(-t s)
        t_label = -next(fresh)  # negative, disjoint from wire labels
        return [(coeff, [t_label])] + [(phase, [t_label, lab]) for lab in leg_labels]
    raise AssertionError(f"unexpected kind {gen.kind}")


def _einsum(dim: int, *operands):
    """``np.einsum`` in sublist form, refused if its result would pass the budget."""
    rank = len(operands[-1])
    if dim**rank > _MAX_RESULT:
        raise OverflowGuardError(
            f"contraction result of rank {rank} at D={dim} exceeds {_MAX_RESULT} entries"
        )
    return np.einsum(*operands)


def _dense(arr) -> np.ndarray:
    return arr() if callable(arr) else arr


def _simplify(dim: int, arr, labels: list[int], keep: set[int]) -> tuple[Any, list[int]]:
    """Trace/sum out labels that occur only inside this factor and are not kept."""
    out_labels: list[int] = []
    for lab in labels:
        if lab not in out_labels and lab in keep:
            out_labels.append(lab)
    if out_labels == labels:
        return arr, labels
    relabel = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
    res = _einsum(dim, _dense(arr), [relabel[l] for l in labels], [relabel[l] for l in out_labels])
    return res, out_labels


def _contract_pair(
    dim: int,
    fa: tuple[Any, list[int]],
    fb: tuple[Any, list[int]],
    keep: set[int],
) -> tuple[np.ndarray, list[int]]:
    arr_a, la = fa
    arr_b, lb = fb
    out_labels = [l for l in dict.fromkeys(la + lb) if l in keep]
    names = {lab: i for i, lab in enumerate(dict.fromkeys(la + lb))}
    res = _einsum(
        dim,
        _dense(arr_a),
        [names[l] for l in la],
        _dense(arr_b),
        [names[l] for l in lb],
        [names[l] for l in out_labels],
    )
    return res, out_labels


def evaluate(d: Diagram, ctx: MeasureContext) -> Tensor:
    """Contract the diagram to its tensor; boundary order follows positions."""
    if ctx.dim != d.dim:
        raise DiagramError(f"context dimension {ctx.dim} != diagram dimension {d.dim}")
    d.validate()
    D = d.dim

    uf = _UnionFind(len(d.edges))
    port_edge = d.port_edges()

    # diagonal dots unify all their wires into one index
    for name, gen in d.nodes.items():
        if gen.kind in ("green", "white") and gen.degree >= 2:
            legs = [port_edge[(name, leg)] for leg in range(gen.degree)]
            for other in legs[1:]:
                uf.union(legs[0], other)

    def wire_label(edge_idx: int) -> int:
        return uf.find(edge_idx)

    # a factor is (array or unbuilt array, labels); its rank is len(labels)
    factors: list[tuple[Any, list[int]]] = []
    fresh = itertools.count(1)
    for name, gen in d.nodes.items():
        if gen.kind in ("green", "white"):
            labs = [wire_label(port_edge[(name, 0)])] if gen.degree else []
            factors.append((diagonal_weight(ctx, gen), labs))
        else:
            labs = [wire_label(port_edge[(name, leg)]) for leg in range(gen.degree)]
            factors.extend(_node_factors(ctx, name, gen, labs, fresh))

    # boundary deltas give every input/output its own final axis label
    E = len(d.edges)
    boundary_labels: list[int] = []
    eye = np.eye(D, dtype=complex)
    next_label = E + 1_000_000
    for side, count in (("out", d.n_outputs), ("in", d.n_inputs)):
        for pos in range(count):
            b = next_label
            next_label += 1
            boundary_labels.append(b)
            factors.append((eye, [b, wire_label(port_edge[(side, pos)])]))

    required = set(boundary_labels)
    if not factors:
        return Tensor(D, d.n_inputs, d.n_outputs, np.asarray(1.0 + 0j))

    live = set(range(len(factors)))

    def build_index() -> dict[int, set[int]]:
        index: dict[int, set[int]] = {}
        for i in live:
            for lab in set(factors[i][1]):
                index.setdefault(lab, set()).add(i)
        return index

    # drop summation indices that touch only one factor
    index = build_index()
    keep_global = required | {lab for lab, fids in index.items() if len(fids) >= 2}
    for i in list(live):
        arr, labs = factors[i]
        factors[i] = _simplify(D, arr, labs, keep_global)
    index = build_index()

    def rank(k: int) -> int:
        return len(factors[k][1])

    # hub labels (3+ users) keep a lazy min-heap of (rank, factor id);
    # an entry is stale once its factor left the label or changed rank
    hub_heaps: dict[int, list[tuple[int, int]]] = {}

    def hub_pair(lab: int, fids: set[int]) -> tuple[int, int]:
        # the first two of sorted(fids, key=lambda k: (rank(k), k))
        heap = hub_heaps.get(lab)
        if heap is None:
            heap = hub_heaps[lab] = [(rank(k), k) for k in fids]
            heapq.heapify(heap)

        def stale(entry: tuple[int, int]) -> bool:
            return entry[1] not in fids or entry[0] != rank(entry[1])

        while stale(heap[0]):
            heapq.heappop(heap)
        first = heapq.heappop(heap)
        while stale(heap[0]) or heap[0][1] == first[1]:
            heapq.heappop(heap)
        second = heap[0]
        heapq.heappush(heap, first)
        return first[1], second[1]

    def externals(i: int, j: int) -> int:
        # rank of the factor produced by merging i and j
        n = 0
        for lab in dict.fromkeys(factors[i][1] + factors[j][1]):
            fids = index[lab]
            if lab in required or len(fids) - (i in fids) - (j in fids) > 0:
                n += 1
        return n

    def label_cost(lab: int):
        fids = index.get(lab)
        if fids is None or len(fids) < 2:
            return None
        # labels with exactly two users vanish when merged; finish those
        # clusters before touching high-multiplicity hub labels, else the
        # hubs weave unrelated clusters into high-rank intermediates
        if len(fids) == 2:
            hub = 0
            si, sj = fids
            ri, rj = len(factors[si][1]), len(factors[sj][1])
            if (rj, sj) < (ri, si):
                si, sj, ri, rj = sj, si, rj, ri
        else:
            hub = 1
            si, sj = hub_pair(lab, fids)
            ri, rj = len(factors[si][1]), len(factors[sj][1])
        return (hub, externals(si, sj), ri + rj), si, sj

    # pair selection via a lazy heap; stale entries are revalidated on pop
    heap: list[tuple[tuple[int, int, int], int, int]] = []
    seq = 0
    for lab in index:
        entry = label_cost(lab)
        if entry is not None:
            heap.append((entry[0], seq, lab))
            seq += 1
    heapq.heapify(heap)

    while len(live) > 1:
        choice = None
        while heap:
            cost, _, lab = heapq.heappop(heap)
            entry = label_cost(lab)
            if entry is None:
                continue
            if entry[0] != cost:
                seq += 1
                heapq.heappush(heap, (entry[0], seq, lab))
                continue
            choice = (entry[1], entry[2])
            break
        if choice is None:
            # disconnected pieces: outer-product the two smallest
            i, j = sorted(live, key=lambda k: (rank(k), k))[:2]
        else:
            i, j = choice
        touched = list(dict.fromkeys(factors[i][1] + factors[j][1]))
        keep = set(required)
        for lab in touched:
            fids = index.get(lab, ())
            if len(fids) - (i in fids) - (j in fids) > 0:
                keep.add(lab)
        arr, labs = _contract_pair(D, factors[i], factors[j], keep)
        for lab in touched:
            fids = index.get(lab)
            if fids is not None:
                fids.discard(i)
                fids.discard(j)
                if not fids:
                    del index[lab]
        live.discard(j)
        factors[j] = (None, [])
        factors[i] = (arr, labs)
        for lab in set(labs):
            index.setdefault(lab, set()).add(i)
            if lab in hub_heaps:
                heapq.heappush(hub_heaps[lab], (len(labs), i))
        for lab in touched:
            entry = label_cost(lab)
            if entry is not None:
                seq += 1
                heapq.heappush(heap, (entry[0], seq, lab))

    (last,) = live
    arr, labs = factors[last]
    names = {lab: k for k, lab in enumerate(labs)}
    target = [names[l] for l in boundary_labels]
    res = _einsum(D, _dense(arr), [names[l] for l in labs], target)
    return Tensor(D, d.n_inputs, d.n_outputs, res.reshape((D,) * (d.n_outputs + d.n_inputs)))


# =====================================================================
# Composition and adjoint
# =====================================================================


def compose_parallel(a: Diagram, b: Diagram) -> Diagram:
    """Disjoint union; b's boundary positions follow a's."""
    if a.dim != b.dim:
        raise DiagramError("dimension mismatch")
    a2, b2 = a.with_fresh_ids("a."), b.with_fresh_ids("b.")

    def shift(p: Port) -> Port:
        if p[0] == "in":
            return ("in", p[1] + a.n_inputs)
        if p[0] == "out":
            return ("out", p[1] + a.n_outputs)
        return p

    edges = a2.edges + tuple((shift(x), shift(y)) for x, y in b2.edges)
    return Diagram(
        a.dim,
        {**a2.nodes, **b2.nodes},
        edges,
        a.n_inputs + b.n_inputs,
        a.n_outputs + b.n_outputs,
    )


def _splice(halves: list[tuple[Any, Any]], nodes: dict[str, Generator], loop_prefix: str) -> list[Edge]:
    """Join half-edges through their junctions into edges.

    A half-edge end is ``("T", port)``, a port that stays, or
    ``("J", key)``, a junction where a wire was cut at a seam.  Every
    junction must sit on exactly two half-edge ends, so each chain of
    junctions is either a path between two ports, which becomes one
    edge, or a closed cycle: a free wire loop, worth a scalar D.  Each
    loop becomes a self-looped white dot (which evaluates to exactly D)
    named ``loop_prefix`` plus a count, added to ``nodes``.
    """
    adj: dict[Any, list[Any]] = {}
    for u, v in halves:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for u, nbrs in adj.items():
        if u[0] == "J" and len(nbrs) != 2:
            raise DiagramError(f"cut point {u[1]} is wired {len(nbrs)} times, expected 2")

    visited: set[Any] = set()

    def follow(cur: Any, back: Any) -> Any:
        # walk the chain from junction `cur`, entered from `back`, to its
        # far port, or around a cycle back to `cur`
        start = cur
        while True:
            visited.add(cur)
            nbrs = list(adj[cur])
            nbrs.remove(back)
            cur, back = nbrs[0], cur
            if cur[0] != "J" or cur == start:
                return cur

    edges: list[Edge] = []
    for u, v in halves:
        if u[0] == "T" and v[0] == "T":
            edges.append((u[1], v[1]))
        for t_end, j_end in ((u, v), (v, u)):
            if t_end[0] == "T" and j_end[0] == "J" and j_end not in visited:
                edges.append((t_end[1], follow(j_end, t_end)[1]))
    loops = 0
    for u, v in halves:
        for j_end in (u, v):
            if j_end[0] == "J" and j_end not in visited:
                follow(j_end, adj[j_end][1])
                name = f"{loop_prefix}{loops}"
                loops += 1
                while name in nodes:
                    name += "_"
                nodes[name] = Generator.white(1, 1)
                edges.append(((name, 0), (name, 1)))
    return edges


def compose_serial(a: Diagram, b: Diagram) -> Diagram:
    """Run a, then b: a's outputs are fused pairwise to b's inputs."""
    if a.dim != b.dim:
        raise DiagramError("dimension mismatch")
    if a.n_outputs != b.n_inputs:
        raise DiagramError(f"cannot fuse {a.n_outputs} outputs into {b.n_inputs} inputs")
    a2, b2 = a.with_fresh_ids("a."), b.with_fresh_ids("b.")

    # terminals keep their identity; a junction glues a.out:k to b.in:k
    def a_end(p: Port):
        return ("J", p) if p[0] == "out" else ("T", p)

    def b_end(p: Port):
        return ("J", ("out", p[1])) if p[0] == "in" else ("T", p)

    halves = [(a_end(x), a_end(y)) for x, y in a2.edges]
    halves += [(b_end(x), b_end(y)) for x, y in b2.edges]
    ends = {end for half in halves for end in half}
    for k in range(a.n_outputs):
        if ("J", ("out", k)) not in ends:
            raise DiagramError(f"cut point {('out', k)} is wired 0 times, expected 2")
    nodes = {**a2.nodes, **b2.nodes}
    edges = _splice(halves, nodes, "loop")
    out = Diagram(a.dim, nodes, tuple(edges), a.n_inputs, b.n_outputs)
    out.validate()
    return out


def adjoint(d: Diagram) -> Diagram:
    """Swap inputs with outputs and conjugate every node."""

    def flip(p: Port) -> Port:
        if p[0] == "in":
            return ("out", p[1])
        if p[0] == "out":
            return ("in", p[1])
        return p

    nodes = {k: g.conjugate(d.dim) for k, g in d.nodes.items()}
    edges = tuple((flip(a), flip(b)) for a, b in d.edges)
    return Diagram(d.dim, nodes, edges, d.n_outputs, d.n_inputs)


# =====================================================================
# JSON file format
# =====================================================================


def _port_str(p: Port) -> str:
    return f"{p[0]}:{p[1]}"


def _parse_port(s: str) -> Port:
    owner, _, idx = s.rpartition(":")
    if not owner:
        raise DiagramError(f"bad port reference {s!r}")
    return (owner, int(idx))


def to_json_obj(d: Diagram) -> dict[str, Any]:
    nodes: dict[str, Any] = {}
    for name, gen in d.nodes.items():
        entry: dict[str, Any] = {"kind": gen.kind, "legs": gen.degree}
        if gen.amp is not None:
            entry["amp"] = amp_to_json(gen.amp)
        if gen.kind == "not":
            entry["c"] = gen.c
        nodes[name] = entry
    return {
        "dimension": d.dim,
        "nodes": nodes,
        "edges": [[_port_str(a), _port_str(b)] for a, b in d.edges],
        "inputs": [f"in:{i}" for i in range(d.n_inputs)],
        "outputs": [f"out:{i}" for i in range(d.n_outputs)],
    }


def from_json_obj(obj: dict[str, Any]) -> Diagram:
    dim = int(obj["dimension"])
    nodes: dict[str, Generator] = {}
    for name, entry in obj.get("nodes", {}).items():
        kind = entry["kind"]
        legs = int(entry["legs"])
        amp = amp_from_json(entry["amp"]) if "amp" in entry and entry["amp"] is not None else None
        c = int(entry.get("c", 0))
        nodes[name] = Generator(kind, 0, legs, amp=amp, c=c)
    edges = [tuple(map(_parse_port, pair)) for pair in obj.get("edges", [])]
    inputs = [str(x) for x in obj.get("inputs", [])]
    outputs = [str(x) for x in obj.get("outputs", [])]
    # boundary lists may reference node ports directly; turn those into edges
    for pos, ref in enumerate(inputs):
        port = _parse_port(ref)
        if port[0] != "in":
            edges.append((("in", pos), port))
    for pos, ref in enumerate(outputs):
        port = _parse_port(ref)
        if port[0] != "out":
            edges.append((("out", pos), port))
    d = Diagram(dim, nodes, tuple(edges), len(inputs), len(outputs))
    d.validate()
    return d


def dump_json(d: Diagram) -> str:
    return json.dumps(to_json_obj(d), indent=1)


def load_json(text: str) -> Diagram:
    return from_json_obj(json.loads(text))
