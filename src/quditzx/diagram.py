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
Red and gray dots depend only on the sum of their legs mod D, so a dot
is also a sum over one character index t: w(sum x) = sum_t c(t) prod_j
omega^(t x_j).  A dot with more than ``_SPLIT_ABOVE`` dense entries
enters split this way, as the vector c and one D x D phase matrix per
leg, all on t; the planner can then merge its legs one at a time
instead of carrying a rank-deg block through every step.  Other dense
factors larger than ``_MAX_DENSE`` are refused.

Contraction order is greedy: always merge a pair of factors sharing an
index so that the merged rank is minimal.  Scalars come first: every
factor of rank 0 (a scalar box, a closed loop, a dot with no legs) is
folded into the lowest-rank factor that has an index before the greedy
loop starts, since a scalar shares no index and would otherwise be
merged last, against the full-size result.  For each index the
candidate pair is its two lowest-rank factors; an index shared by
three or more factors (a hub, such as a fan-out dot) keeps them in a
lazy min-heap instead of sorting its factors on every step.  The
planner reads only ranks, so dense node factors are built only when a
contraction first needs their array and are dropped once merged; a
fan-out's many selector boxes never all exist at once.  Every
contraction result is checked against
``_MAX_RESULT`` entries before it is allocated, and a larger one raises
``OverflowGuardError``.

Each pairwise step runs on one of two kernels, picked by its size; the
order and the budget check are the same for both.  A step over u
distinct labels loops over D^u entries.  From ``_MATMUL_MIN`` entries on
it runs as one batched ``np.matmul`` (``_pairwise``): the labels split
into batch, summed and free ones, each operand is transposed and
reshaped to three axes, and BLAS does the sums.  A smaller step runs as
one ``np.einsum`` call, which has a lower fixed cost and reads the
operands in place, where matmul first copies them.  Steps on one
factor (sum, trace, reorder) always use ``np.einsum``.  Both kernels
get the same operands in the same contraction order, so their tensors
differ only by rounding: BLAS sums in another order.

The plan depends on the diagram's shape alone, so it is made once per
shape and cached.  The key (``_structure``) is exact, not a hash: the
boundary sizes, each node's degree and factor kind (diagonal, dense, or
split, which is where D and ``_SPLIT_ABOVE`` enter) in node order, and the
edges as port numbers; generator parameters, node names and ``nu`` are
not in it.  The cache holds at most ``_MAX_PLAN_STEPS`` steps
over all plans, dropping the oldest first, and only integers, never a
diagram or an array.  Every call, cached plan or not, builds the factor
arrays from the context and checks each step's result against the
budget.  Each diagram instance is validated once: ``validate`` marks a
diagram that passes, so ``evaluate`` checks a hand-made diagram on its
first call and a built or loaded one not again.  Within one call, equal
parameter-free generators (white, gray, not, hplus, hminus) share one
factor array; factors with an amplitude are built per node.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
from array import array
from dataclasses import dataclass
from typing import Any

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
from quditzx.tensor import Tensor, strict_int

Port = tuple[str, int]
Edge = tuple[Port, Port]

_RESERVED = ("in", "out")
_MAX_DENSE = 2_000_000  # entries; a larger dense factor (not red or gray) is refused
# entries; a red or gray dot with more is split by characters.  From 64
# to 4096 the soundness matrix at D=2..9 ran equally fast within noise;
# from 10^5 it ran slower at D=2..6, and from 7^7 ZH-O's gray hub stays
# dense at D=7, where it costs ten times its output
_SPLIT_ABOVE = 512
_MAX_RESULT = 1 << 26  # entries (1 GiB of complex128) in any contraction result
_MAX_PLAN_STEPS = 1 << 15  # steps in all cached contraction plans
# loop entries D^u from which a pairwise step runs as matmul.  Warm,
# matmul wins from about 2^12; but below 2^17 (a normal form's widest
# steps at D=4 are 2^16) its operand copies cost more in fresh pages
# than BLAS saves.  In the soundness matrix at D=2..9, only the last hub
# step of each side of ZH-O and ZH-ZPL at D=5..7 reaches it
_MATMUL_MIN = 1 << 17

# how a node's factor is made: its diagonal, its dense array, or its
# character decomposition (red and gray dots above _SPLIT_ABOVE entries)
_DIAGONAL, _DENSE, _SPLIT = range(3)


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
        """Raise ``DiagramError`` unless every leg and boundary position is wired once.

        A diagram that passes is marked and not checked again, so its
        node dict must not change after that.
        """
        if getattr(self, "_valid", False):
            return
        seen: dict[Port, int] = {}
        for edge in self.edges:
            if len(edge) != 2:
                raise DiagramError(f"edge {edge!r} does not join two ports")
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
        object.__setattr__(self, "_valid", True)

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


def _factor_mode(name: str, gen: Generator, dim: int) -> int:
    """How a node enters the contraction: diagonal, dense, or split by characters."""
    deg = gen.degree
    if gen.kind in ("green", "white"):
        return _DIAGONAL
    if gen.kind in ("hplus", "hminus", "not", "hbox"):
        if dim**deg > _MAX_DENSE:
            raise OverflowGuardError(f"node {name!r}: {gen.kind} of degree {deg} too large at D={dim}")
        return _DENSE
    if gen.kind in ("red", "gray"):
        return _SPLIT if dim**deg > _SPLIT_ABOVE else _DENSE
    raise AssertionError(f"unexpected kind {gen.kind}")


def _structure(d: Diagram) -> list[int]:
    """The diagram's shape as integers: all that its contraction plan reads.

    ``[n_inputs, n_outputs, n_nodes]``, then ``3 * degree + mode`` for
    each node in order, then the two port numbers of each edge in order.
    Ports are numbered leg by leg through the nodes in order, then the
    outputs, then the inputs.  For a valid diagram this is a one-to-one
    encoding of its shape, so equal lists always mean equal plans.
    """
    first: dict[str, int] = {}
    codes = [d.n_inputs, d.n_outputs, len(d.nodes)]
    n = 0
    for name, gen in d.nodes.items():
        first[name] = n
        n += gen.degree
        codes.append(3 * gen.degree + _factor_mode(name, gen, d.dim))
    first["out"] = n
    first["in"] = n + d.n_outputs
    for a, b in d.edges:
        codes.append(first[a[0]] + a[1])
        codes.append(first[b[0]] + b[1])
    return codes


def _plan(codes: list[int]) -> tuple[int, array]:
    """Greedy contraction plan for the shape ``codes`` (see ``_structure``).

    Factor slots are numbered in the order ``_execute`` makes them: each
    node's factors in node order (a split node gives its coefficient
    vector, then one phase matrix per leg), then one boundary delta per
    output and per input.  Returns the number of steps and the
    steps, flat: each step is ``i, j`` followed by its sublists, each
    preceded by its length.  With ``j >= 0`` the step contracts slots i
    and j into slot i (three sublists); with ``j == -1`` it sums or
    reorders slot i alone (two sublists).  The last step leaves the
    result in its slot.
    """
    n_in, n_out, n_nodes = codes[:3]
    node_codes = codes[3 : 3 + n_nodes]
    ports = codes[3 + n_nodes :]
    E = len(ports) // 2
    port_edge = [0] * len(ports)
    for k, port in enumerate(ports):
        port_edge[port] = k // 2
    wires: list[list[int]] = []
    port = 0
    for code in node_codes:
        wires.append(port_edge[port : port + code // 3])
        port += code // 3

    # diagonal dots unify all their wires into one index
    uf = _UnionFind(E)
    for code, legs in zip(node_codes, wires):
        if code % 3 == _DIAGONAL:
            for other in legs[1:]:
                uf.union(legs[0], other)

    # each factor slot's labels; its rank is len(labels)
    labels: list[list[int]] = []
    fresh = itertools.count(1)
    for code, legs in zip(node_codes, wires):
        mode = code % 3
        if mode == _DIAGONAL:
            labels.append([uf.find(legs[0])] if legs else [])
        elif mode == _DENSE:
            labels.append([uf.find(w) for w in legs])
        else:
            t_label = -next(fresh)  # negative, disjoint from wire labels
            labels.append([t_label])
            labels.extend([t_label, uf.find(w)] for w in legs)

    # boundary deltas give every output/input its own final axis label
    boundary_labels = [E + 1_000_000 + k for k in range(n_out + n_in)]
    for b, port in zip(boundary_labels, range(len(ports) - n_out - n_in, len(ports))):
        labels.append([b, uf.find(port_edge[port])])

    steps = array("i")
    if not labels:
        return 0, steps
    n_steps = 0

    def emit(i: int, j: int, *sublists: list[int]) -> None:
        nonlocal n_steps
        n_steps += 1
        steps.extend((i, j))
        for sub in sublists:
            steps.append(len(sub))
            steps.extend(sub)

    required = set(boundary_labels)
    live = set(range(len(labels)))

    def build_index() -> dict[int, set[int]]:
        index: dict[int, set[int]] = {}
        for i in live:
            for lab in set(labels[i]):
                index.setdefault(lab, set()).add(i)
        return index

    # trace or sum out labels that occur only inside one factor
    index = build_index()
    keep_global = required | {lab for lab, fids in index.items() if len(fids) >= 2}
    for i in list(live):
        labs = labels[i]
        out_labels: list[int] = []
        for lab in labs:
            if lab not in out_labels and lab in keep_global:
                out_labels.append(lab)
        if out_labels != labs:
            relabel = {lab: k for k, lab in enumerate(dict.fromkeys(labs))}
            emit(i, -1, [relabel[l] for l in labs], [relabel[l] for l in out_labels])
            labels[i] = out_labels
    index = build_index()

    # fold every scalar into the lowest-rank labelled factor now: it shares
    # no label, so the greedy loop would merge it last, as an outer
    # product with the full-size result
    ranked = sorted(live, key=lambda k: (len(labels[k]), k))
    scalars = [k for k in ranked if not labels[k]]
    if len(scalars) < len(ranked):
        target = ranked[len(scalars)]
        names = list(range(len(labels[target])))
        for k in scalars:
            emit(target, k, names, [], names)
            live.discard(k)

    def rank(k: int) -> int:
        return len(labels[k])

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
        for lab in dict.fromkeys(labels[i] + labels[j]):
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
            ri, rj = len(labels[si]), len(labels[sj])
            if (rj, sj) < (ri, si):
                si, sj, ri, rj = sj, si, rj, ri
        else:
            hub = 1
            si, sj = hub_pair(lab, fids)
            ri, rj = len(labels[si]), len(labels[sj])
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
        la, lb = labels[i], labels[j]
        touched = list(dict.fromkeys(la + lb))
        keep = set(required)
        for lab in touched:
            fids = index.get(lab, ())
            if len(fids) - (i in fids) - (j in fids) > 0:
                keep.add(lab)
        names = {lab: k for k, lab in enumerate(touched)}
        labs = [l for l in touched if l in keep]
        emit(i, j, [names[l] for l in la], [names[l] for l in lb], [names[l] for l in labs])
        for lab in touched:
            fids = index.get(lab)
            if fids is not None:
                fids.discard(i)
                fids.discard(j)
                if not fids:
                    del index[lab]
        live.discard(j)
        labels[j] = []
        labels[i] = labs
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
    labs = labels[last]
    names = {lab: k for k, lab in enumerate(labs)}
    emit(last, -1, [names[l] for l in labs], [names[l] for l in boundary_labels])
    return n_steps, steps


class _PlanCache:
    """Plans by shape, oldest out first, at most ``_MAX_PLAN_STEPS`` steps in all.

    A plan larger than the whole budget is not stored.
    """

    def __init__(self) -> None:
        self.plans: dict[bytes, tuple[int, array]] = {}
        self.steps = 0
        self._lock = threading.Lock()

    def put(self, key: bytes, plan: tuple[int, array]) -> None:
        size = plan[0]
        with self._lock:
            if size > _MAX_PLAN_STEPS or key in self.plans:
                return
            while self.steps + size > _MAX_PLAN_STEPS:
                self.steps -= self.plans.pop(next(iter(self.plans)))[0]
            self.plans[key] = plan
            self.steps += size

    def clear(self) -> None:
        with self._lock:
            self.plans.clear()
            self.steps = 0


_PLANS = _PlanCache()


def _split_factors(ctx: MeasureContext, gen: Generator) -> list[np.ndarray]:
    """A red or gray node by its character decomposition.

    Entry w(sum of legs) = sum_t c(t) prod_j omega^(t x_j): the vector
    c, then the matrix omega^(t x) once per leg, all on one index t.
    """
    D, deg = ctx.dim, gen.degree
    sv = ctx.residues()
    if gen.kind == "red":
        w = red_weight_vector(ctx, gen.amp, deg)
    else:
        w = np.where(sv % D == 0, complex(ctx.nu ** (deg - 2)), 0j)
    phase = ctx._omega_table()[np.outer(sv, sv) % D]  # [t, s] = omega^(t s)
    coeff = (phase.conj() @ w) / D  # c(t) = (1/D) sum_s w(s) omega^(-t s)
    return [coeff] + [phase] * deg


def _pairwise(dim: int, a: np.ndarray, sa: list[int], b: np.ndarray, sb: list[int], so: list[int]) -> np.ndarray:
    """``np.einsum(a, sa, b, sb, so)``, as one batched ``np.matmul`` if the step is large.

    The planner numbers a step's labels 0..u-1, so it loops over D^u
    entries; below ``_MATMUL_MIN`` of them it runs as one ``np.einsum``.
    The matmul path needs what the planner's steps give: distinct labels
    in each operand, and every label in ``so`` or in both operands.  The
    labels split into batch (shared, kept), summed (shared, dropped) and
    free in a or in b; a becomes ``(batch, free a, summed)``, b becomes
    ``(batch, summed, free b)``, and the product comes back as a view in
    the order ``so``.  The reshaped copies replace a and b, so an
    operand the caller has let go of is freed before the product is
    allocated.
    """
    # D^(len(sa) + len(sb)) >= D^u is cheaper to get and settles most small steps
    if dim ** (len(sa) + len(sb)) < _MATMUL_MIN or dim ** (max(sa + sb, default=-1) + 1) < _MATMUL_MIN:
        return np.einsum(a, sa, b, sb, so)
    in_a, in_b, keep = set(sa), set(sb), set(so)
    batch = [l for l in sa if l in in_b and l in keep]
    summed = [l for l in sa if l in in_b and l not in keep]
    free_a = [l for l in sa if l not in in_b]
    free_b = [l for l in sb if l not in in_a]
    nb, ns = dim ** len(batch), dim ** len(summed)
    a = a.transpose([sa.index(l) for l in batch + free_a + summed]).reshape(nb, -1, ns)
    b = b.transpose([sb.index(l) for l in batch + summed + free_b]).reshape(nb, ns, -1)
    order = batch + free_a + free_b
    c = np.matmul(a, b).reshape((dim,) * len(order))
    return c.transpose([order.index(l) for l in so])


def _execute(steps: array, node_codes: list[int], d: Diagram, ctx: MeasureContext) -> Tensor:
    """Build the factors of ``d`` in slot order and run the plan's steps."""
    D = d.dim
    if not steps:
        return Tensor(D, d.n_inputs, d.n_outputs, np.asarray(1.0 + 0j))
    # a dense factor stays its Generator until a step first needs its array.
    # Equal parameter-free generators, keyed by their fields, share one
    # array: a diagonal one for the whole call, a dense one until its last
    # slot has taken it.  Factors with an amplitude are built per node
    factors: list[Any] = []
    shared: dict[tuple, np.ndarray] = {}
    slots_left: dict[tuple, int] = {}
    for gen, code in zip(d.nodes.values(), node_codes):
        mode = code % 3
        if mode == _DIAGONAL:
            if gen.amp is None:
                key = (gen.kind, gen.m, gen.n, gen.c)
                arr = shared.get(key)
                if arr is None:
                    arr = shared[key] = diagonal_weight(ctx, gen)
            else:
                arr = diagonal_weight(ctx, gen)
            factors.append(arr)
        elif mode == _DENSE:
            factors.append(gen)
            if gen.amp is None:
                key = (gen.kind, gen.m, gen.n, gen.c)
                slots_left[key] = slots_left.get(key, 0) + 1
        else:
            factors.extend(_split_factors(ctx, gen))
    factors.extend([np.eye(D, dtype=complex)] * (d.n_outputs + d.n_inputs))

    def operand(k: int) -> np.ndarray:
        # the slot lets go, so a step's kernel holds the last reference
        gen, factors[k] = factors[k], None
        if not isinstance(gen, Generator):
            return gen
        if gen.amp is not None:
            return generator_entries(ctx, gen)
        key = (gen.kind, gen.m, gen.n, gen.c)
        arr = shared.get(key)
        if arr is None:
            arr = shared[key] = generator_entries(ctx, gen)
        slots_left[key] -= 1
        if not slots_left[key]:
            del shared[key]
        return arr

    pos = 0

    def sublist() -> list[int]:
        nonlocal pos
        n = steps[pos]
        pos += n + 1
        return steps[pos - n : pos].tolist()

    while pos < len(steps):
        i, j = steps[pos], steps[pos + 1]
        pos += 2
        sa = sublist()
        sb = sublist() if j >= 0 else None
        so = sublist()
        if D ** len(so) > _MAX_RESULT:
            raise OverflowGuardError(
                f"contraction result of rank {len(so)} at D={D} exceeds {_MAX_RESULT} entries"
            )
        if sb is None:
            factors[i] = np.einsum(operand(i), sa, so)
        else:
            factors[i] = _pairwise(D, operand(i), sa, operand(j), sb, so)
    return Tensor(D, d.n_inputs, d.n_outputs, factors[i].reshape((D,) * (d.n_outputs + d.n_inputs)))


def evaluate(d: Diagram, ctx: MeasureContext) -> Tensor:
    """Contract the diagram to its tensor; boundary order follows positions."""
    if ctx.dim != d.dim:
        raise DiagramError(f"context dimension {ctx.dim} != diagram dimension {d.dim}")
    d.validate()
    codes = _structure(d)
    key = array("i", codes).tobytes()
    plan = _PLANS.plans.get(key)
    if plan is None:
        plan = _plan(codes)
        _PLANS.put(key, plan)
    return _execute(plan[1], codes[3 : 3 + codes[2]], d, ctx)


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


def _parse_port(s: Any) -> Port:
    """``"owner:index"`` as a port; anything else is a ``DiagramError``."""
    owner, _, idx = s.rpartition(":") if isinstance(s, str) else ("", "", "")
    if owner:
        try:
            return (owner, int(idx))
        except ValueError:
            pass
    raise DiagramError(f"bad port reference {s!r}")


def _json_block(items: list[str], level: int, brackets: str = "[]") -> str:
    """Encoded items as ``json.dumps(..., indent=1)`` lays out a container at depth ``level``."""
    if not items:
        return brackets
    pad = "\n" + " " * level
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}{pad[:-1]}{brackets[1]}"


def from_json_obj(obj: dict[str, Any]) -> Diagram:
    dim = strict_int(obj["dimension"], "dimension", DiagramError)
    if dim < 2:
        raise DiagramError(f"dimension must be at least 2, got {dim}")
    nodes: dict[str, Generator] = {}
    for name, entry in obj.get("nodes", {}).items():
        kind = entry["kind"]
        legs = strict_int(entry["legs"], f"legs of node {name!r}", DiagramError)
        amp = amp_from_json(entry["amp"]) if "amp" in entry and entry["amp"] is not None else None
        c = strict_int(entry.get("c", 0), f"c of node {name!r}", DiagramError)
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
    """The diagram file: the bytes of ``json.dumps(obj, indent=1)`` for its object.

    An indent makes the json module use its pure-Python encoder, so the
    fixed layout is written here; strings and amplitudes still go
    through json.  Ints go through ``int.__repr__``, which refuses
    non-ints as json did.
    """
    enc = json.encoder.encode_basestring_ascii
    nodes = []
    for name, gen in d.nodes.items():
        text = enc(name) + ': {\n   "kind": ' + enc(gen.kind) + ',\n   "legs": ' + int.__repr__(gen.degree)
        if gen.amp is not None:
            # nested three deep; a JSON string never holds a raw newline
            text += ',\n   "amp": ' + json.dumps(amp_to_json(gen.amp), indent=1).replace("\n", "\n   ")
        if gen.kind == "not":
            text += ',\n   "c": ' + int.__repr__(gen.c)
        nodes.append(text + "\n  }")
    edges = [
        "[\n   " + enc(f"{a[0]}:{a[1]}") + ",\n   " + enc(f"{b[0]}:{b[1]}") + "\n  ]" for a, b in d.edges
    ]
    return _json_block(
        [
            '"dimension": ' + int.__repr__(d.dim),
            '"nodes": ' + _json_block(nodes, 2, "{}"),
            '"edges": ' + _json_block(edges, 2),
            '"inputs": ' + _json_block([f'"in:{i}"' for i in range(d.n_inputs)], 2),
            '"outputs": ' + _json_block([f'"out:{i}"' for i in range(d.n_outputs)], 2),
        ],
        1,
        "{}",
    )


def load_json(text: str) -> Diagram:
    return from_json_obj(json.loads(text))
