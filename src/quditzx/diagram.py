"""Open-graph diagrams of generators and their evaluation by contraction.

A diagram is a multigraph: nodes are generators (identified by string
ids), edges are wires joining two ports, and the boundary is an ordered
list of input and output positions.  A port is a pair ``(owner, index)``
where ``owner`` is a node id or one of the reserved names ``"in"`` /
``"out"`` (boundary sides) and ``index`` is a leg number or boundary
position.  Every generator leg and every boundary position must appear
in exactly one edge endpoint; self-loops and parallel edges are
allowed.

Ports are numbered legs node by node, then the outputs, then the
inputs, and a diagram's wiring is its port table: the two numbers of
each edge, in edge order, in an ``array('i')`` that ``_structure``
reads.  A diagram is made in two places only, and checked there once:
``DiagramBuilder`` numbers each end as it wires it, and the loader
(``from_json_obj``) each ``"owner:index"`` as it parses it.  A reference
to no port is set aside as it is met, so the table holds only numbers in
range, and ``_port_table`` checks it by a count; only where the count
fails does it name ports, to say which one is repeated or unwired.  The
writer (``dump_json``, which hands the file's object to ``json.dumps``
as ``tensor.dump_json`` does, so a file is one line) and ``==`` work
from the table too.  ``edges``, the ``(owner, index)`` pairs, is derived
from the table each time something reads it (``repr``, the benchmark's
tracer, tests).

Wires carry no weight (they are plain deltas), so evaluation sums every
internal wire index over the residue window with no extra measure
factor; all normalization lives in the generator tensors.  Each
generator's entries carry a fixed power nu^k of the measure weight (see
``generators``), so a diagram's tensor is its tensor at nu = 1 times
nu^K, K the sum of its nodes' powers.  Every factor is built at nu = 1,
and nu^K is multiplied in once: into the operand with fewer labels of
a last merge that runs on matmul, and else into the result, where
np.einsum, which traps no overflow, has made it.  So powers that cancel
over a side never leave the float range one factor at a time, and a
product with nu^K past it is refused, not carried on as inf; a wide side
pays one multiply over an operand, not one per tile.  The diagrams of
a batch share K (``_runs``), so a batch entry and its diagram alone scale
the same array, as a wide side's tiles and its whole result on matmul do.

Evaluation notes: white and green dots are diagonal, so instead of
materializing a dense rank-deg tensor the evaluator unifies all wires
incident to such a dot into a single summation index carrying the dot's
diagonal weight.  This keeps very high-degree copy dots (the
normal-form synthesizer builds copy dots of degree D^(m+n-1)+2) cheap.
A not dot says x_b = -x_a - c (mod D), so where it joins two classes of
wires it is a relabelling, not a factor: one class reads the other's
index through the map x -> -x - c.  The classes joined this way form a
tree, one index at its root, and every other class reads the root
through a map x -> s * x + t whose sign s the plan holds and whose
offset t comes from each diagram's not constants.  A not dot that would
close a cycle stays a dense factor.  Every factor is built on the
distinct indices its legs read, from each leg's residues under its map:
an H-box evaluates its amplitude at their product, the other dense
kinds at their sum or product, a diagonal dot at its index's mapped
residues, and a repeated index gives the diagonal directly.  So a
normal form's selector box, whose 2(m+n) legs all read the m+n fan
indices through not dots, has D^(m+n) entries, not D^(2(m+n)).
Red and gray dots depend only on the sum of their legs mod D, so a dot
is also a sum over one character index t: w(sum x) = sum_t c(t) prod_j
omega^(t x_j).  A dot with more than ``_SPLIT_ABOVE`` dense entries
enters split this way, as the vector c and one D x D phase matrix per
leg, all on t, where that is smaller than its dense build; the planner
can then merge its legs one at a time instead of carrying a rank-deg
block through every step.

Contraction order is greedy: always merge a pair of factors sharing an
index so that the merged rank is minimal.  Scalars come first: every
factor of rank 0 (a scalar box, a closed loop, a dot with no legs) is
folded into the lowest-rank factor that has an index before the greedy
loop starts, since a scalar shares no index and would otherwise be
merged last, against the full-size result.  For each index the
candidate pair is its two lowest-rank factors; an index shared by
three or more factors (a hub, such as a fan-out dot) keeps them in a
lazy min-heap instead of sorting its factors on every step.  The
planner reads only ranks, so a factor with an amplitude is built only
when a contraction first needs its array and is dropped once merged; a
fan-out's many selector boxes never all exist at once.

Each pairwise step (a merge) runs on one of two kernels, picked by its
size; the order is the same for both.  A step over u distinct labels
loops over D^u entries.  From ``_MATMUL_MIN`` entries on it runs as the
one block of ``_blocks``: the labels split into batch, summed and free
ones, each operand is laid out contiguously on three axes, and BLAS
does the sums in one batched ``np.matmul``, or one broadcast
``np.multiply`` forms the products where nothing is summed.  A smaller
step runs as one ``np.einsum`` call, which has a lower fixed cost and
reads the operands in place, where matmul first copies them.  Steps on
one factor (sum, reorder) always use ``np.einsum``.  Both kernels get
the same operands in the same contraction order, so their tensors
differ only by rounding: BLAS sums in another order.

The plan depends on the diagram's shape alone, so it is made once per
shape and cached.  The key (``_structure``) is exact, not a hash: the
boundary sizes, each node's degree and factor kind (diagonal, dense,
split, which is where D and ``_SPLIT_ABOVE`` enter, or not) in node order,
and the port table, which ``_structure`` reads; generator parameters, not
constants, node names and ``nu`` are not in it.  A step is a tuple that
``_execute`` runs as it is: ``(i, j, sa, sb, so)`` contracts slots i and
j, ``(i, -1, sa, so)`` sums or reorders slot i, and equal sublists (tuples
of ints) are stored once per plan.  The cache holds plans of at most
``_MAX_PLAN_SIZE`` entries in all (steps, chain entries, node layouts and
deltas, so an absorbed not dot counts too), dropping the oldest first, and
only integers, never a diagram or an array.  Every call, cached plan or not, checks the plan's sizes
against ``_MAX_RESULT`` and ``_MAX_DENSE`` before it builds any factor
array from the context.  Within one call, equal parameter-free
generators (white, gray, not, hplus, hminus) on equal legs share one
factor array: it is built once, as the first node that holds it is set
up, every slot that holds it refers to it, and reference counting frees
it when the last slot lets go.  Factors with an amplitude are built per
node.

Rule sides are compared in one fold (``max_abs_diffs``), the only code
that batches: consecutive pairs whose left sides share a shape, and
whose right sides do, run one plan a side together (``_runs``).  A
soundness cell's draws, say, change only node parameters, and running
each alone spends most of its time on per-step Python work, not on
arithmetic.  A node whose generator, and the offsets of whose legs'
maps, are equal (``==``) in every diagram of the batch keeps one factor
array; any other factor, a boundary delta included, is stacked on a
leading batch axis, and so is every array made from one.  The batch axis
belongs to the arrays, not to the call: each step reads it off its
operands, as one axis more than the step's sublist.  Every ``np.einsum``
has ``Ellipsis`` leading each sublist, and a matmul-size step runs as
one ``np.matmul`` or ``np.multiply`` (``_blocks``), so on either kernel
an operand without the batch axis broadcasts.  So a batched result
equals what its diagram gives alone up to rounding, not always bit for
bit: a pairwise ``np.einsum`` over the batch may sum in another order
than the same step alone (at D=2, a 3-leg red dot with Phase(0.6), legs
0 and 2 joined through an hplus and leg 1 the output, gives
0.10385606474349275-0.3357384233970552j at output 0 alone and
0.10385606474349275-0.33573842339705506j in a batch after the same
diagram with One()).  One-factor steps over the batch, sums and
reorders, give each entry the bits it gets alone, and every rule side
of the soundness matrix at D=2..6 comes out bit for bit.  A batch holds
at most ``_TILE`` entries in any array (batch times D^max(top, rank of the
widest dense factor)), and at least one diagram: past that the per-call
overhead is small next to the arithmetic, and a larger batch only costs
memory.  So a side of more than ``_TILE`` entries runs alone, and only a
whole result, one tile, carries a batch axis.  ``evaluate`` runs one
diagram.

A wide pair, one of sides of more than ``_TILE`` entries, is compared
without building either side: each side runs every step before its last
merge once (see ``_plan``: a plan with a merge ends in it, and that
merge writes the boundary order), and the fold takes one of two paths.
Where both sides end in a merge, and the two merges split the boundary
alike (``_alike``: the same batch positions and the same free positions
in each operand, up to swapping the right side's operands; the summed
labels may differ), each merge is laid out as ``_blocks`` lays it out,
A as (batch, rows, summed) and B as (batch, summed, columns), and a
block of L - R is one ``np.matmul`` of ``[A_l | -A_r]`` against ``[B_l ;
B_r]``, stacked along the summed axis (``_stacked``): neither side's
result is written and no subtraction runs.  Its error may round apart
from the whole sides' in the last bits, as the stacked product sums in
another order.  Any other pair streams each side's results as tiles
(``_tiles``) that the fold zips and subtracts.  A result of at most
``_TILE`` entries is one tile, the whole result, with the batch axis in
front where it has one.  A wider side runs alone, and its tiles have one
shape: a run of values of boundary position 0, as many as fit in
``_TILE`` entries and at least one, then one value each of positions
1..k-1, k the fewest that leave at most ``_TILE`` entries a value of
position 0 (``_cut``).  The two sides' streams come in one order, so
they zip.  A wide side's tiles are its last merge's blocks (``_blocks``,
the same layout and kernels as a whole matmul-size step); a side with no
merge, one dense factor, is built whole and its tiles are views of
slices of it.  On either path the size budget is the whole result's, so
a pair past ``_MAX_RESULT`` is refused before any step runs.  In the
soundness matrix at D=2..9 only ZH-O and ZH-ZPL at D=6 and D=7 are wider
than one tile (6^7 and 7^8 entries, 4.3 and 88 MiB a side), and their
last merges split alike; past D=9, many sides of two to five legs are
wide, on either path.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import operator
import threading
from array import array
from collections import Counter
from dataclasses import FrozenInstanceError
from typing import Any, Container, Iterable, Iterator, Sequence

import numpy as np

from quditzx.generators import (
    _MAX_DENSE,
    KINDS,
    Generator,
    amp_from_json,
    amp_to_json,
    check_amp_dim,
    diagonal_weight,
    generator_entries,
)
from quditzx.measure import MeasureContext, OverflowGuardError, dimension
from quditzx.tensor import ShapeError, Tensor, finite, strict_int

Port = tuple[str, int]
Edge = tuple[Port, Port]

_RESERVED = ("in", "out")
# entries; a red or gray dot with more is split by characters where
# that is smaller (see _factor_mode).  From 64
# to 4096 the soundness matrix at D=2..9 ran equally fast within noise;
# from 10^5 it ran slower at D=2..6, and from 7^7 ZH-O's gray hub stays
# dense at D=7, where it costs ten times its output
_SPLIT_ABOVE = 512
_MAX_RESULT = 1 << 26  # entries (1 GiB of complex128) in any array but a dense node's
_MAX_PLAN_SIZE = 1 << 15  # steps, chain entries, layouts and deltas in all cached contraction plans
# loop entries D^u from which a pairwise step runs as matmul.  Warm,
# matmul wins from about 2^12; but below 2^17 its operand copies cost
# more in fresh pages than BLAS saves, as measured on normal forms when
# their widest steps at D=4 were 2^16 (they are 2^8 since their selector
# boxes are built on the fan labels).  In the soundness matrix at
# D=2..9 no step of a whole side reaches it (D=5's widest is 5^7, and
# the wider sides at D=6 and 7 are tiled); sides at D >= 10 do, from a
# few steps at D=10..16 to dozens at D=64.  It picks the kernel only:
# batches are sized by _TILE
_MATMUL_MIN = 1 << 17
# entries in a tile of a compared rule side (a run of values of boundary
# position 0, then one value each of the next positions it cuts) and in
# a block of a stacked comparison: the widest side compared whole, and
# the most entries in any array of a batch (see _checked_plan), so a
# wider side runs alone.  Zipped, checking ZH-O at D=7 peaked at 3.9 MiB
# of arrays with tiles of 7^5, 8.9 MiB with 7^6 (2^17), and 40 MiB with
# one block per value of boundary position 0; at D=6, at 2.9 MiB with
# tiles of 6^6, and at 9.6 MiB with its two whole sides.  Stacked, it
# peaks at 3.9 and 2.0 MiB
_TILE = 1 << 16

# how a node enters the contraction: as its diagonal, its dense array,
# its character decomposition (red and gray dots; see ``_factor_mode``),
# or, for a not dot, as a relabelling of a wire where it joins two
# classes of wires and as a dense array where it closes a cycle
_DIAGONAL, _DENSE, _SPLIT, _NOT = range(4)
_PLAIN = ((), ())  # the layout of a node whose legs read labels of their own, in order, with no map
_EYE = (None, _PLAIN, ())  # the recipe of a boundary delta with no map: the identity
_Plan = tuple[tuple[tuple, ...], int, int, int, tuple, tuple, tuple]  # what ``_plan`` returns


class DiagramError(ValueError):
    """Malformed diagram (dangling leg, double-used port, bad reference)."""


class Diagram:
    """Immutable open graph, made by :class:`DiagramBuilder` or the loader (``load_json``, ``from_json_obj``).

    Its wiring is its port table ``_ports``, an ``array('i')`` of two
    port numbers per edge, in edge order; ports are numbered legs node by
    node, then the outputs, then the inputs.  The builder and the loader
    make the table as they wire and check it there (``_port_table``), so
    a diagram is born valid and holds no edge tuples.  ``edges``, the same
    wiring as ``(owner, index)`` pairs, is derived from the table on each
    read, for ``repr`` and the benchmark's tracer.
    """

    def __init__(self, dim: int, nodes: dict[str, Generator], ports: array, n_inputs: int, n_outputs: int) -> None:
        vars(self).update(dim=dim, nodes=nodes, _ports=ports, n_inputs=n_inputs, n_outputs=n_outputs)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    __hash__ = None

    @property
    def edges(self) -> tuple[Edge, ...]:
        return _derive_edges(self)

    def __eq__(self, other: object) -> bool:
        """Equal by what a diagram file holds: the dimension, the boundary, the port table and the nodes in order.

        A node compares by name, kind, degree, amplitude and ``c``, not by
        its in/out split.  No edge tuples are derived.
        """
        if type(other) is not type(self):
            return NotImplemented
        held = [(d.dim, d.n_inputs, d.n_outputs, d._ports,
                 [(name, g.kind, g.degree, g.amp, g.c) for name, g in d.nodes.items()]) for d in (self, other)]
        return held[0] == held[1]

    def __repr__(self) -> str:
        return (f"Diagram(dim={self.dim!r}, nodes={self.nodes!r}, edges={self.edges!r}, "
                f"n_inputs={self.n_inputs!r}, n_outputs={self.n_outputs!r})")

    def validate(self) -> None:
        """Return at once: a diagram was checked where it was made, by the builder or the loader.

        The name stays because the benchmark's tracer (``bench/tracer.py``)
        patches ``Diagram.validate`` and counts its calls.
        """


def _port_index(ref: Any) -> int:
    """The index of the explicit port ``ref``, an ``(owner, index)`` pair; else ``DiagramError``.

    The owner must be a non-empty str and the index an int, read with
    ``operator.index``: a float or a str is refused, and so is a bool, as
    ``measure.dimension`` refuses one.
    """
    owner, idx = ref if isinstance(ref, tuple) and len(ref) == 2 else (None, None)
    if isinstance(owner, str) and owner and hasattr(idx, "__index__") and not isinstance(idx, bool):
        return operator.index(idx)
    raise DiagramError(f"bad port reference {ref!r}")


def _port_error(owner: str, idx: int, spans: Container[str]) -> DiagramError:
    """The error for the port ``(owner, idx)``, which no owner in ``spans`` has."""
    if owner in _RESERVED:
        return DiagramError(f"{'input' if owner == 'in' else 'output'} position {idx} out of range")
    if owner in spans:
        return DiagramError(f"leg {idx} out of range for node {owner!r}")
    return DiagramError(f"edge references unknown node {owner!r}")


def _port_table(ports: list[int], bad: list[DiagramError], nodes: dict[str, Generator], n_outputs: int,
                n_inputs: int, n_legs: int) -> array:
    """``ports``, the port numbers of a diagram's references in order, as its port table.

    ``bad`` holds the errors for the references to no port, which
    ``ports`` leaves out, in reference order; ``n_legs`` is the nodes'
    legs in all.  Faults raise ``DiagramError`` in this order: a node
    named like a boundary side, or more ports than an ``array('i')`` of
    port numbers and ``4 * degree + mode`` codes holds; the first of
    ``bad``; the first repeated port; the lowest unwired port.  A valid
    table costs a count.  Ports are named only on failure, by a walk no
    longer than ``ports``.
    """
    n_ports = n_legs + n_outputs + n_inputs
    for side in _RESERVED:
        if side in nodes:
            raise DiagramError(f"node name {side!r} is reserved for the boundary")
    if n_ports > 1 << 29:
        raise DiagramError(f"the diagram has {n_ports} ports, more than {1 << 29}")
    if n_ports == 1 << 29:  # a node may hold every port
        for name, gen in nodes.items():
            if gen.degree == n_ports:
                raise DiagramError(f"node {name!r} has {n_ports} legs, more than {n_ports - 1}")
    if bad:
        raise bad[0]
    if len(ports) == n_ports == len(set(ports)):
        return array("i", ports)
    sizes = [(name, gen.degree) for name, gen in nodes.items()]
    port = _port_names(sizes + [("out", n_outputs), ("in", n_inputs)])
    seen = Counter(ports)
    for p, count in seen.items():
        if count > 1:
            raise DiagramError(f"port {port(p)} used {count} times")
    owner, idx = port(next(p for p in itertools.count() if p not in seen))
    what = f"boundary port {owner}:{idx}" if owner in _RESERVED else f"leg {idx} of node {owner!r}"
    raise DiagramError(f"{what} is dangling")


def _port_names(sizes: Iterable[tuple[str, int]]) -> Any:
    """The port of each port number, for owners of the given sizes in port order."""
    starts: list[int] = []
    owners: list[str] = []
    n = 0
    for owner, size in sizes:
        starts.append(n)
        owners.append(owner)
        n += size

    def port(p: int) -> Port:
        k = bisect.bisect_right(starts, p) - 1
        return owners[k], p - starts[k]

    return port


def _derive_edges(d: Diagram) -> tuple[Edge, ...]:
    """The edges that the port table of ``d`` holds."""
    sizes = [(name, gen.degree) for name, gen in d.nodes.items()]
    ends = list(map(_port_names(sizes + [("out", d.n_outputs), ("in", d.n_inputs)]), d._ports))
    return tuple(zip(ends[::2], ends[1::2]))


class DiagramBuilder:
    """Mutable assembly surface for diagrams.

    Ports passed to :meth:`wire` may be explicit ``(node_id, leg)``
    pairs, a bare node id (the next unwired leg is allocated), or the
    strings ``"in"`` / ``"out"`` (the next boundary position is
    allocated).  ``wire`` writes each end's port number as it resolves
    it; a boundary end, whose number depends on the nodes still to come,
    or an end whose node is not there yet or has no such leg, is kept as
    its port, and ``build`` numbers these once.  An explicit port takes
    an int index only; anything else, or a list or dict end, raises in
    ``wire``, which then leaves the builder as it was.  What a file
    cannot hold is refused too, with ``DiagramError``: a dimension that
    is not an int (read as ``MeasureContext`` reads one) or is below 2,
    a node that is not a ``Generator``, and a node name that is not a
    non-empty str without a colon.
    ``build`` then checks the table as the loader does (``_port_table``),
    so the first bad port names the error.

    Two shapes that gadgets and rule sides share are built here:
    :meth:`chain` (every input into the first piece, one wire from each
    piece to the next, every output from the last) and :meth:`multiedge`
    (a copy dot and a sum dot joined by k parallel wires).  Pieces get
    the given names, else automatic ids.
    """

    def __init__(self, dim: int):
        try:
            self.dim = dimension(dim)
        except TypeError as exc:
            raise DiagramError(str(exc)) from None
        if self.dim < 2:
            raise DiagramError(f"dimension must be at least 2, got {self.dim}")
        self._nodes: dict[str, Generator] = {}
        self._legs: dict[str, list[int]] = {}  # each node's first port number, degree and next unwired leg
        self._n_legs = 0
        self._ends: list[int | Port] = []  # two per wire: a leg's port number, else the port
        self._held: list[int] = []  # where _ends holds a port
        self._n_in = 0
        self._n_out = 0
        self._counter = 0

    def node(self, gen: Generator, name: str | None = None) -> str:
        if type(gen) is not Generator:
            raise DiagramError(f"a node must be a Generator, got {gen!r}")
        if name is None:
            name = f"{gen.kind}{self._counter}"
            self._counter += 1
        if not isinstance(name, str) or not name or name in self._nodes or name in _RESERVED or ":" in name:
            raise DiagramError(f"bad or duplicate node name {name!r}")
        deg = gen.degree
        self._nodes[name] = gen
        self._legs[name] = [self._n_legs, deg, 0]
        self._n_legs += deg
        return name

    def _resolve(self, ref) -> int | Port:
        if not isinstance(ref, tuple):
            legs = self._legs.get(ref)
            if legs is not None:  # a node id: its next unwired leg
                first, deg, idx = legs
                legs[2] = idx + 1
                return first + idx if idx < deg else (ref, idx)
            if ref == "in":
                self._n_in += 1
                return ("in", self._n_in - 1)
            if ref == "out":
                self._n_out += 1
                return ("out", self._n_out - 1)
            raise DiagramError(f"unknown wire endpoint {ref!r}")
        owner, idx = ref[0], _port_index(ref)
        if owner == "in":
            self._n_in = max(self._n_in, idx + 1)
        elif owner == "out":
            self._n_out = max(self._n_out, idx + 1)
        legs = self._legs.get(owner)
        return legs[0] + idx if legs is not None and 0 <= idx < legs[1] else (owner, idx)

    def wire(self, a, b) -> None:
        # _resolve refuses an end before it moves a counter, so reading b
        # first leaves the builder as it was when either end is refused
        try:
            if isinstance(b, tuple):
                _port_index(b)
            elif b not in self._legs and b not in _RESERVED:
                raise DiagramError(f"unknown wire endpoint {b!r}")
            a, b = self._resolve(a), self._resolve(b)
        except TypeError:  # an unhashable end, b read first, is no node's id
            raise DiagramError(f"unknown wire endpoint {b if type(b).__hash__ is None else a!r}") from None
        if type(a) is tuple:
            self._held.append(len(self._ends))
        if type(b) is tuple:
            self._held.append(len(self._ends) + 1)
        self._ends += a, b

    def chain(self, gens: list[Generator], names: Iterable[str] = ()) -> list[str]:
        """Every input into the first piece, one wire from each piece to
        the next, every output of the last piece out; an empty chain is a
        bare wire.  Returns the pieces' ids."""
        names = list(names) or [None] * len(gens)
        ids = [self.node(gen, name) for gen, name in zip(gens, names)]
        if not ids:
            self.wire("in", "out")
            return ids
        for _ in range(gens[0].m):
            self.wire("in", ids[0])
        for a, c in zip(ids, ids[1:]):
            self.wire(a, c)
        for _ in range(gens[-1].n):
            self.wire(ids[-1], "out")
        return ids

    def multiedge(
        self, copy: Generator, total: Generator, names: Iterable[str] = (), tail: bool = False
    ) -> str:
        """in -> copy (1 -> k) -(k parallel wires)-> total (k -> 1); the
        total's last leg goes out unless `tail`, in which case the caller
        wires it.  Returns the total's id."""
        names = list(names) or [None, None]
        g, r = self.node(copy, names[0]), self.node(total, names[1])
        self.wire("in", g)
        for _ in range(copy.n):
            self.wire(g, r)
        if not tail:
            self.wire(r, "out")
        return r

    def build(self) -> Diagram:
        n_legs, n_in, n_out = self._n_legs, self._n_in, self._n_out
        ports, bad = self._ends.copy(), []
        boundary = {"out": (n_legs, n_out), "in": (n_legs + n_out, n_in)}
        for k in self._held:  # numbered now that the legs are
            owner, idx = ports[k]
            span = boundary.get(owner) or self._legs.get(owner)  # a node may come after its end
            if span is not None and 0 <= idx < span[1]:
                ports[k] = span[0] + idx
            else:
                bad.append(_port_error(owner, idx, self._legs))
        table = _port_table(ports, bad, self._nodes, n_out, n_in, n_legs)
        return Diagram(self.dim, dict(self._nodes), table, n_in, n_out)


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


def _factor_mode(gen: Generator, dim: int) -> int:
    """How a node enters the contraction: diagonal, dense, split by characters, or as a not dot.

    A red or gray dot with more than ``_SPLIT_ABOVE`` dense entries is
    split where its split form, D + deg * D^2 entries, is smaller than
    what its dense build holds: the D^deg entries, and for a red dot also
    its D x D character table and weight vector.  So a gray dot of degree
    2 or less, or a red one of degree 2, is split only where its dense
    form would pass ``_MAX_DENSE``.
    """
    if gen.kind in ("green", "white"):
        return _DIAGONAL
    if gen.kind in ("red", "gray") and dim**gen.degree > _SPLIT_ABOVE:
        dense = dim**gen.degree + (dim * dim + dim if gen.kind == "red" else 0)
        if dim + gen.degree * dim * dim < dense or dim**gen.degree > _MAX_DENSE:
            return _SPLIT
    return _NOT if gen.kind == "not" else _DENSE


def _structure(d: Diagram) -> array:
    """The diagram's shape as integers: all that its contraction plan reads.

    ``[n_inputs, n_outputs, n_nodes]``, then ``4 * degree + mode`` for
    each node in order, then the port table of ``d``.  This is a
    one-to-one encoding of the diagram's shape, so equal lists always
    mean equal plans.
    """
    codes = array("i", [d.n_inputs, d.n_outputs, len(d.nodes)])
    codes.extend([4 * gen.degree + _factor_mode(gen, d.dim) for gen in d.nodes.values()])
    return codes + d._ports


def _plan(codes: array) -> _Plan:
    """Greedy contraction plan for the shape ``codes`` (see ``_structure``).

    Wires are first grouped into labels.  A diagonal dot unifies its
    wires into one class.  A not dot whose two wires lie in different
    classes is absorbed: it says x_b = -x_a - c (mod D), so one class
    reads the other's label through a map x -> s * x + t.  The classes
    so joined form a tree whose root class gives the label; every other
    class has a map, numbered in the order the tree walk reaches it.  A
    not dot that would close a cycle of classes (a self-loop included)
    stays a dense factor.  The root of a tree is the class of its first
    boundary position, outputs then inputs, where it has one.

    A boundary position is the open end of its wire, so it takes the
    wire's label as its final axis and needs no factor of its own.  It
    gets a boundary delta ``[b, w]``, with a fresh label ``b``, only where
    no factor carries the wire's label ``w`` yet (a bare wire, a cup or a
    cap), where an earlier position already took it (a diagonal dot with
    two boundary legs), or where its wire reads ``w`` through a map (two
    boundary positions joined by not dots), which makes the delta a
    permutation.

    Factor slots are numbered in the order ``_execute`` makes them: each
    node's factors in node order (a split node gives its coefficient
    vector, then one phase matrix per leg; an absorbed not dot keeps an
    empty slot), then the boundary deltas, in boundary order (outputs,
    then inputs).  A node's factor has one axis per distinct label of its
    legs, in the order the legs first reach them.  Returns ``(steps, top,
    dense, node, chain, layouts, deltas)``.  ``top`` is the highest rank
    of any array held but a dense node's, and at least 1 with any factor,
    since each has or sums over D entries; ``dense`` is the rank of the
    widest factor of a node kept dense (a dense node, or a not dot the
    plan does not absorb), the number of distinct labels it is built on,
    and ``node`` the index of the first such node of that rank (-1 if
    none).  ``steps`` is a tuple of steps:
    ``(i, j, sa, sb, so)`` contracts slots i and j into slot i, and ``(i,
    -1, sa, so)`` sums or reorders slot i alone.  Each sublist is a tuple
    of ints, and equal sublists are one object.  The last step leaves the
    result in its slot, in boundary order: a plan with a merge ends in its
    last merge, which writes that order itself, and a plan with none ends
    in a reorder where its factor is not in that order already, so a
    diagram of one such factor has no steps at all.
    ``chain`` gives map i (from 1; map 0 is the identity) as ``(parent,
    node)``: the map of the class it is reached from and the absorbed not
    dot between them.  ``layouts`` gives each node's ``(positions,
    maps)``: per leg, its label's axis and its map, each ``()`` where it is
    ``range(degree)`` or all zero; it is ``()`` for an absorbed not dot.
    ``deltas`` gives each boundary delta's map.
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
        wires.append(port_edge[port : port + (code >> 2)])
        port += code >> 2

    # diagonal dots unify all their wires into one index
    uf = _UnionFind(E)
    for code, legs in zip(node_codes, wires):
        if code & 3 == _DIAGONAL:
            for other in legs[1:]:
                uf.union(legs[0], other)

    # a not dot joining two classes links them; `joined` tracks the trees
    joined = _UnionFind(E)
    links: dict[int, list[tuple[int, int]]] = {}
    for k, (code, legs) in enumerate(zip(node_codes, wires)):
        if code & 3 == _NOT:
            a, b = uf.find(legs[0]), uf.find(legs[1])
            if joined.find(a) != joined.find(b):
                joined.union(a, b)
                links.setdefault(a, []).append((b, k))
                links.setdefault(b, []).append((a, k))
    boundary = [uf.find(port_edge[port]) for port in range(len(ports) - n_out - n_in, len(ports))]
    roots: dict[int, int] = {}  # each tree's root class
    for c in boundary + list(links):
        if c in links:
            roots.setdefault(joined.find(c), c)
    label_of: dict[int, int] = {}  # a linked class's label: its root class
    map_of: dict[int, int] = {}
    chain: list[tuple[int, int]] = []
    for root in roots.values():
        label_of[root], map_of[root] = root, 0
        walk = [root]
        for c in walk:
            for other, k in links[c]:
                if other not in map_of:
                    chain.append((map_of[c], k))
                    label_of[other], map_of[other] = root, len(chain)
                    walk.append(other)
    absorbed = {k for _, k in chain}

    def place(edge: int) -> tuple[int, int]:
        # the label an edge reads and its map
        c = uf.find(edge)
        return label_of.get(c, c), map_of.get(c, 0)

    # each factor slot's labels, None for an absorbed not; its rank is len(labels)
    labels: list[list[int] | None] = []
    layouts: list[tuple] = []
    fresh = itertools.count(1)
    top = max(n_in + n_out, 1)  # the result's; a delta (rank 2) only comes with two boundary positions
    dense = (0, -1)  # distinct labels and node
    for k, (code, legs) in enumerate(zip(node_codes, wires)):
        mode = code & 3
        if k in absorbed:
            labels.append(None)
            layouts.append(())
            continue
        placed = [place(w) for w in legs]
        maps = tuple(m for _, m in placed)
        maps = maps if any(maps) else ()
        positions: tuple[int, ...] = ()
        if mode == _DIAGONAL:
            labels.append([placed[0][0]] if legs else [])
            maps = maps[:1]
        elif mode == _SPLIT:
            t_label = -next(fresh)  # negative, disjoint from wire labels
            labels.append([t_label])
            labels.extend([t_label, lab] for lab, _ in placed)
            top = max(top, 2 if legs else 1)  # its phase matrices
        else:
            axes: dict[int, int] = {}
            for lab, _ in placed:
                axes.setdefault(lab, len(axes))
            labels.append(list(axes))
            if len(axes) > dense[0]:
                dense = (len(axes), k)
            if len(axes) < len(legs):
                positions = tuple(axes[lab] for lab, _ in placed)
        layouts.append((positions, maps) if positions or maps else _PLAIN)

    # each output, then each input, takes its wire's label as its final
    # axis; a delta gives it a fresh one where no factor carries the
    # wire's label, an earlier position took it, or the wire maps it
    carried = {lab for labs in labels if labs for lab in labs}
    taken: set[int] = set()
    boundary_labels: list[int] = []
    deltas: list[int] = []
    for k, port in enumerate(range(len(ports) - n_out - n_in, len(ports))):
        w, m = place(port_edge[port])
        if not m and w in carried and w not in taken:
            taken.add(w)
            boundary_labels.append(w)
        else:
            b = E + 1_000_000 + k
            boundary_labels.append(b)
            labels.append([b, w])
            deltas.append(m)
            carried.add(w)

    live = {k for k, labs in enumerate(labels) if labs is not None}
    if not live:
        return (), 0, *dense, tuple(chain), tuple(layouts), tuple(deltas)
    steps: list[tuple] = []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # each distinct sublist, stored once

    def emit(i: int, j: int, *sublists: list[int]) -> None:
        nonlocal top
        top = max(top, len(sublists[-1]))
        steps.append((i, j, *[shared.setdefault(sub, sub) for sub in map(tuple, sublists)]))

    required = set(boundary_labels)

    def build_index() -> dict[int, set[int]]:
        index: dict[int, set[int]] = {}
        for i in live:
            for lab in set(labels[i]):
                index.setdefault(lab, set()).add(i)
        return index

    # sum out labels that occur only inside one factor first: _blocks
    # needs every label of a merge to be in its output or in both operands
    index = build_index()
    keep_global = required | {lab for lab, fids in index.items() if len(fids) >= 2}
    for i in list(live):
        labs = labels[i]
        kept = [k for k, lab in enumerate(labs) if lab in keep_global]
        if len(kept) < len(labs):
            emit(i, -1, range(len(labs)), kept)
            labels[i] = [labs[k] for k in kept]
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

    def survivors(i: int, j: int) -> list[int]:
        # the labels of the factor made by merging i and j, in order: those
        # of i then j that the boundary or another factor still reads
        labs = []
        for lab in dict.fromkeys(labels[i] + labels[j]):
            fids = index[lab]
            if lab in required or len(fids) - (i in fids) - (j in fids) > 0:
                labs.append(lab)
        return labs

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
        return (hub, len(survivors(si, sj)), ri + rj), si, sj

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
        labs = survivors(i, j)
        names = {lab: k for k, lab in enumerate(touched)}
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

    # the last merge writes the result in boundary order; with no merge,
    # a reorder of the last factor does
    (last,) = live
    labs = labels[last]
    if labs != boundary_labels:
        axes = tuple(range(len(labs)))
        i, j, *subs, so = steps.pop() if steps and steps[-1][1] >= 0 else (last, -1, axes, axes)
        emit(i, j, *subs, [so[labs.index(l)] for l in boundary_labels])
    return tuple(steps), top, *dense, tuple(chain), tuple(layouts), tuple(deltas)


def _plan_size(plan: _Plan) -> int:
    """What a plan holds: its steps, chain entries, node layouts and deltas, and at least one."""
    steps, _, _, _, chain, layouts, deltas = plan
    return max(len(steps) + len(chain) + len(layouts) + len(deltas), 1)


class _PlanCache:
    """Plans by shape, oldest out first, at most ``_MAX_PLAN_SIZE`` entries in all.

    A plan's size is ``_plan_size``: a chain of absorbed not dots plans
    one step but holds a chain entry and a layout per dot.  A plan counts
    at least one, so the budget also bounds the number of plans.  A plan
    larger than the whole budget is not stored.
    """

    def __init__(self) -> None:
        self.plans: dict[bytes, _Plan] = {}
        self.size = 0
        self._lock = threading.Lock()

    def put(self, key: bytes, plan: _Plan) -> None:
        size = _plan_size(plan)
        with self._lock:
            if size > _MAX_PLAN_SIZE or key in self.plans:
                return
            while self.size + size > _MAX_PLAN_SIZE:
                self.size -= _plan_size(self.plans.pop(next(iter(self.plans))))
            self.plans[key] = plan
            self.size += size


_PLANS = _PlanCache()


def _split_factors(ctx: MeasureContext, gen: Generator, legs: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """A red or gray node by its character decomposition.

    Unit entry w(sum of legs) = sum_t c(t) prod_j omega^(t x_j): the
    vector c, then the matrix omega^(t x) once per leg, all on one index
    t.  From the generator formulas, c(t) = A(t) for a red dot and 1 / D
    for a gray one.  ``legs`` holds the residues x of each leg over its
    label, the window by default; legs that hold one array share one
    matrix.
    """
    D, deg = ctx.dim, gen.degree
    sv = ctx.residues()
    coeff = gen.amp.eval_arr(ctx, sv) if gen.kind == "red" else np.full(D, 1 / D, dtype=complex)
    legs = [sv] * deg if legs is None else legs
    phases: dict[int, np.ndarray] = {}
    for x in legs:
        if id(x) not in phases:
            phases[id(x)] = ctx._omega_table()[np.outer(sv, x) % D]  # [t, s] = omega^(t x(s))
    return [coeff] + [phases[id(x)] for x in legs]


def _split(sa: Sequence, sb: Sequence, so: Sequence, cut: Sequence, order: Any) -> tuple[list, list, list, list]:
    """The labels of the merge of ``sa`` and ``sb`` into ``so``: ``(batch, summed, free_a, free_b)``.

    Batch labels are in both operands and in ``so``, summed ones in both
    and not in ``so``, and free ones in one operand and in ``so``; labels
    of ``cut`` are none of these.  Summed labels come in a's order, and
    the others sorted by the key ``order``, ties in their operand's order.
    """
    kept = [l for l in so if l not in cut]
    batch = sorted([l for l in sa if l in sb and l in kept], key=order)
    summed = [l for l in sa if l not in so]
    free_a = sorted([l for l in sa if l not in sb and l in kept], key=order)
    free_b = sorted([l for l in sb if l not in sa and l in kept], key=order)
    return batch, summed, free_a, free_b


def _laid_out(x: np.ndarray, sx: Sequence, labels: list, lead: int, shape: tuple) -> np.ndarray:
    """The operand ``x`` (sublist ``sx``) with its axes in the order of ``labels``, contiguous.

    Axes past the batch axis, if ``x`` has one, and the first ``lead``
    labels are reshaped to ``shape``.  The copy is made before the
    caller lets go of ``x``, so ``x`` and its copy are held at once only
    while it is made.
    """
    k = x.ndim - len(sx)  # 1 where the operand has a batch axis
    x = np.ascontiguousarray(x.transpose([*range(k), *(k + sx.index(l) for l in labels)]))
    return x.reshape(x.shape[: k + lead] + shape)


def _blocks(dim: int, a: np.ndarray, sa: Sequence, b: np.ndarray, sb: Sequence, so: Sequence, cut: Sequence,
            run: int) -> Iterator[np.ndarray]:
    """The merge ``np.einsum(a, (..., *sa), b, (..., *sb), (..., *so))`` as batched ``np.matmul``, in blocks.

    A block fixes one value of each label in ``cut`` (labels of ``so``)
    and, with ``run`` > 0, a run of ``run`` values of ``so[0]``, the last
    run shorter where ``run`` does not divide D; it has the axes of the
    other labels of ``so``, in order.  Blocks come in the row-major order
    of (run, cut values); with no cut and ``run`` 0 there is one, the
    whole merge.  The labels split once into batch (shared, kept),
    summed (shared, dropped) and free in a or in b, and each operand is
    laid out contiguously once, behind its batch axis if it has one: a
    as ``(cut, batch, free a, summed)``, b as ``(cut, batch, summed, free
    b)``, ``so[0]`` leading its matmul axis so that a run is one block of
    rows, columns or batches.  A block is then one ``np.matmul`` of slabs
    into a buffer, one per run length, or one broadcast ``np.multiply``
    where nothing is summed, and comes as a view of that buffer, which
    the next block of its run length overwrites.  An operand with one
    axis more than its sublist has a leading batch axis, and so then has
    each block; one without it broadcasts.  The steps of ``_plan`` give
    what this needs: distinct labels in each operand, and every label in
    ``so`` or in both operands.  The copies replace a and b, so an operand
    the caller has let go of before the first block is freed before any
    block is allocated.  The split of the labels (``_split``) and the
    layout (``_laid_out``) are those ``_stacked`` uses, there with no cut,
    batch and free labels in boundary order.
    """
    first = so[0] if run else None
    batch, summed, free_a, free_b = _split(sa, sb, so, cut, lambda l: l != first)  # so[0] first
    cut_a, cut_b = [l for l in cut if l in sa], [l for l in cut if l in sb]
    nb, ns = dim ** len(batch), dim ** len(summed)
    a = _laid_out(a, sa, cut_a + batch + free_a + summed, len(cut_a), (nb, -1, ns))
    b = _laid_out(b, sb, cut_b + batch + summed + free_b, len(cut_b), (nb, ns, -1))
    axis = 0 if first in batch else 1 if first in free_a else 2
    unit = (nb, a.shape[-2], b.shape[-1])[axis] // dim  # batches, rows or columns of one value of so[0]
    order = batch + free_a + free_b
    kernel = np.matmul if summed else np.multiply
    at_a, at_b = [cut.index(l) for l in cut_a], [cut.index(l) for l in cut_b]
    part = [slice(None)] * 3
    buffers: dict = {}
    for lo, *idx in itertools.product(range(0, dim, run or dim), *[range(dim)] * len(cut)):
        hi = min(lo + (run or dim), dim)
        part[axis] = slice(lo * unit, hi * unit) if run else slice(None)
        x = a[(..., *(idx[p] for p in at_a), part[0], part[1], slice(None))]
        y = b[(..., *(idx[p] for p in at_b), part[0], slice(None), part[2])]
        if hi - lo in buffers:
            kernel(x, y, out=buffers[hi - lo][0])
        else:
            out = kernel(x, y)
            k = out.ndim - 3
            sizes = (*out.shape[:k], *(hi - lo if l == first else dim for l in order))
            axes = [*range(k), *(k + order.index(l) for l in so if l not in cut)]
            buffers[hi - lo] = out, out.reshape(sizes).transpose(axes)
        yield buffers[hi - lo][1]


def _on_einsum(dim: int, sa: Sequence, sb: Sequence) -> bool:
    """Whether a merge of the sublists ``sa`` and ``sb`` runs as one ``np.einsum``: below ``_MATMUL_MIN`` entries.

    The planner numbers a step's labels 0..u-1, so a merge loops over
    D^u entries.
    """
    # D^(len(sa) + len(sb)) >= D^u is cheaper to get and settles most small steps
    return dim ** (len(sa) + len(sb)) < _MATMUL_MIN or dim ** (max(sa + sb, default=-1) + 1) < _MATMUL_MIN


def _pairwise(dim: int, a: np.ndarray, sa: Sequence, b: np.ndarray, sb: Sequence, so: Sequence) -> np.ndarray:
    """``np.einsum(a, (..., *sa), b, (..., *sb), (..., *so))``, as the one block of ``_blocks`` if the step is large.

    A step below ``_MATMUL_MIN`` entries runs as one ``np.einsum``
    (``_on_einsum``).  An operand with one axis more than its sublist has a leading batch
    axis, and then so has the result; an operand without it broadcasts,
    on either kernel.
    """
    if _on_einsum(dim, sa, sb):
        return np.einsum(a, (..., *sa), b, (..., *sb), (..., *so))
    blocks = _blocks(dim, a, sa, b, sb, so, (), 0)
    del a, b
    return next(blocks)


def _execute(
    steps: tuple, layout: tuple, ds: Sequence[Diagram], ctx: MeasureContext, split_last: bool = False
) -> list[np.ndarray]:
    """Build the factors of the same-shape diagrams ``ds`` in slot order and run the plan's steps.

    ``layout`` is the node codes, the plan's chain, layouts and deltas
    (see ``_plan``), and K, the sum of the nodes' powers of nu, which the
    diagrams share (see ``_checked_plan``).  Each diagram's not constants give each map
    its offset t, so that a map reads the residue s * v + t (mod D) at
    value v of its label.  A factor whose generator or offsets differ
    between the diagrams is stacked on a leading batch axis, and so is
    every array a step makes from one (see the module notes); the others
    are built once.  Returns the result alone, in boundary order, with
    the batch axis in front if it has one; with ``split_last``, where the
    plan ends in a merge (see ``_plan``), the two operands of that merge
    instead, slot i then slot j.  A plan of no steps leaves its one factor
    as the result; with no factor at all the result is the scalar 1.

    Factors are built at nu = 1 (see ``generators``), and nu^K is
    multiplied in once: into the operand with fewer labels of a last
    merge that runs on matmul (``_blocks``), as it does with
    ``split_last``, and else into the result, so that np.einsum, which
    traps no overflow, never meets the product.  A nu^K past the float
    range, or a product with it, raises ``OverflowGuardError`` naming K
    and nu.  Parameter-free factors
    are built as their first node is set up, one array for each equal
    recipe, which every slot holding it refers to; it is freed when the
    last of them lets go.  Other factors are built when a step first
    reads them.  Factors and steps run under ``np.errstate(over="raise")``,
    so an entry past the float range, from Python or from a numpy ufunc
    or ``np.matmul``, raises ``OverflowGuardError``; ``np.einsum`` ignores
    that setting, so an einsum step gives inf or NaN instead, which the
    callers catch (``tensor.finite`` in ``evaluate``, a non-finite error
    in ``rewrite.check_all``).  One in a factor's build, whose error says
    only that it left the range, is named by the node (of the first
    diagram) whose factor it was building, the first in node order that
    holds it; one in a step's kernel keeps numpy's text, and an
    ``OverflowGuardError`` its own.
    """
    D = ctx.dim
    if not ds[0].nodes and not ds[0].n_outputs + ds[0].n_inputs:
        return [np.asarray(1.0 + 0j)]
    node_codes, chain, layouts, deltas, power = layout
    try:
        scale = ctx.nu**power
    except OverflowError:
        raise OverflowGuardError(f"a side's power of nu, nu^{power} at nu={ctx.nu!r}, leaves the float range") from None
    # each map's sign, and per diagram each map's offset
    signs, offsets = [1], [[0] for _ in ds] if chain else [()] * len(ds)
    rows = [list(d.nodes.values()) for d in ds] if chain else ()
    for parent, k in chain:
        signs.append(-signs[parent])
        for row, ts in zip(rows, offsets):
            ts.append((-ts[parent] - row[k].c) % D)
    # the residues of each (sign, offset), and the legs of the dense
    # factors by degree, or by layout, offsets and degree
    built: dict[Any, Any] = {}

    def mapped(m: int, t: int) -> np.ndarray:
        # the window residue of s * v + t for v = L_D..U_D, map m's sign s
        key = (signs[m], t)
        x = built.get(key)
        if x is None:
            low = ctx.lower
            x = built[key] = ctx.residues() if key == (1, 0) else (key[0] * ctx.residues() + t - low) % D + low
        return x

    # a factor is its recipe until a step first needs its array: the
    # tuple (generator, (positions, maps), offsets), where a delta's
    # generator is None.  A node whose legs read labels of their own, in
    # order, with no map has the layout _PLAIN and no offsets, and so has
    # a white dot, whose weight is the same at every residue.  np.array
    # stacks equal-shape arrays as np.stack does, at a quarter of its
    # cost.  Equal recipes of parameter-free generators share one array,
    # built as the first node that holds it is set up; factors with an
    # amplitude are built per node
    def entries(r: tuple) -> np.ndarray:
        gen, lay, offs = r
        if gen is None:  # a boundary delta [b, w]: 1 where b is w's residue
            delta = np.eye(D, dtype=complex)
            return delta[:, mapped(lay[1][0], offs[0]) - ctx.lower] if offs else delta
        if gen.kind in ("green", "white"):
            return diagonal_weight(ctx, gen, mapped(lay[1][0], offs[0])) if offs else diagonal_weight(ctx, gen)
        deg = gen.degree
        key = (lay, offs, deg)
        legs = built.get(key)
        if legs is None:  # each leg's residues along its label's axis
            positions, maps = lay
            n = max(positions) + 1 if positions else deg
            xs = [mapped(m, t) for m, t in zip(maps, offs)] if maps else [mapped(0, 0)] * deg
            legs = built[key] = [
                x.reshape((D,) + (1,) * (n - 1 - (positions[j] if positions else j))) for j, x in enumerate(xs)
            ]
        return generator_entries(ctx, gen, legs)

    def split(r: tuple) -> list[np.ndarray]:
        gen, (_, maps), offs = r
        return _split_factors(ctx, gen, [mapped(m, t) for m, t in zip(maps, offs)] if maps else None)

    factors: list[Any] = []
    shares: dict[tuple, np.ndarray] = {}
    starts: list[int] = []  # each node's first slot
    building = None  # the slot whose factor is being built, if any

    def operand(k: int) -> np.ndarray:
        # the slot lets go, so a step's kernel holds the last reference
        nonlocal building
        building, f, factors[k] = k, factors[k], None
        # a list holds one recipe per diagram, a tuple is one recipe
        arr = np.array([entries(r) for r in f]) if type(f) is list else entries(f) if type(f) is tuple else f
        building = None
        return arr

    def scaled(x: np.ndarray) -> np.ndarray:
        try:
            return x * scale if scale != 1 else x
        except FloatingPointError:
            raise OverflowGuardError(f"a side times nu^{power} at nu={ctx.nu!r} leaves the float range") from None

    try:
        with np.errstate(over="raise"):
            for code, col, lay in zip(node_codes, zip(*[d.nodes.values() for d in ds]), layouts):
                building = len(factors)
                starts.append(building)
                if not lay:  # an absorbed not dot
                    factors.append(None)
                    continue
                gen = col[0]
                if gen.kind == "white":
                    lay = _PLAIN
                # each diagram's offsets of the legs' maps; a plain node has none
                offs = [()] * len(ds) if lay is _PLAIN else [tuple(ts[m] for m in lay[1]) for ts in offsets]
                first = (gen, lay, offs[0])
                batch = None  # one recipe per diagram where they differ
                if ds[1:] and not (all(map(gen.__eq__, col[1:])) and all(map(offs[0].__eq__, offs[1:]))):
                    batch = list(zip(col, itertools.repeat(lay), offs))
                if code & 3 == _SPLIT:
                    pieces = split(first)
                    # the coefficient vector stacks where the generators
                    # differ, leg j's matrix where its offset does
                    if batch:
                        others = [split(r) for r in batch[1:]]
                        parts = [(r[0], *r[2]) for r in batch]
                        for j in range(len(pieces)):
                            if any(p[j : j + 1] != parts[0][j : j + 1] for p in parts):
                                pieces[j] = np.array([pieces[j]] + [o[j] for o in others])
                    factors.extend(pieces)
                elif batch or gen.amp is not None:
                    factors.append(batch or first)
                else:
                    share = shares.get(first)
                    if share is None:
                        share = shares[first] = entries(first)
                    factors.append(share)
            # each slot now holds its shared array, which is freed when the last lets go
            shares.clear()
            # the boundary deltas, each built when a step reads it
            for m in deltas:
                if not m:
                    factors.append(_EYE)
                    continue
                batch = [(None, ((), (m,)), (ts[m],)) for ts in offsets]
                factors.append(batch[0] if all(map(batch[0].__eq__, batch[1:])) else batch)
            # a plan of no steps has one factor, its result
            i = 0 if steps else next(k for k, f in enumerate(factors) if f is not None)
            end = len(steps) - (bool(steps) and steps[-1][1] >= 0)  # the last merge, where the plan ends in one
            for i, j, *subs in steps[:end]:
                if j < 0:
                    x, (sa, so) = operand(i), subs
                    factors[i] = np.einsum(x, (..., *sa), (..., *so))
                else:
                    sa, sb, so = subs
                    factors[i] = _pairwise(D, operand(i), sa, operand(j), sb, so)
            if end == len(steps):
                return [scaled(operand(i))]
            i, j, sa, sb, so = steps[end]
            out = [operand(i), operand(j)]
            if split_last or not _on_einsum(D, sa, sb):  # into the operand with fewer labels
                out[len(sb) < len(sa)] = scaled(out[len(sb) < len(sa)])
                return out if split_last else [_pairwise(D, out.pop(0), sa, out.pop(), sb, so)]
            return [scaled(_pairwise(D, out.pop(0), sa, out.pop(), sb, so))]
    except (OverflowError, FloatingPointError) as exc:  # a Python power or a numpy product
        if building is None and type(exc) is OverflowGuardError:  # a side times its nu^K
            raise
        what = str(exc)
        if building is not None and type(exc) is not OverflowGuardError:  # in a factor's build
            name, gen = list(ds[0].nodes.items())[bisect.bisect_right(starts, building) - 1]
            what = f"node {name!r}: {gen.kind} of degree {gen.degree} leaves the float range at D={D}"
        raise OverflowGuardError(f"a factor entry is out of range: {what}") from exc


def _checked_plan(d: Diagram, ctx: MeasureContext) -> tuple[bytes, tuple, tuple, int]:
    """The shape key of ``d``, its plan's steps (cached) and layout, and its batch size.

    The layout is what ``_execute`` reads besides the steps: the node
    codes, then the plan's chain, node layouts and deltas, then K, the
    sum of the nodes' powers of nu.

    The batch size is how many diagrams of this shape ``_runs`` puts in
    one batch: at most ``_TILE`` entries in any array, and at least one
    diagram.  The plan's top is at least the boundary rank, so a result
    of more than ``_TILE`` entries runs alone and only a whole result, one
    tile, carries a batch axis.  A size past a budget raises
    ``OverflowGuardError``.
    """
    if ctx.dim != d.dim:
        raise DiagramError(f"context dimension {ctx.dim} != diagram dimension {d.dim}")
    # the plan's top is never below the boundary rank, so a side whose
    # result is too wide is refused before it is planned
    top = d.n_inputs + d.n_outputs
    if d.dim**top <= _MAX_RESULT:
        codes = _structure(d)
        key = codes.tobytes()
        plan = _PLANS.plans.get(key)
        if plan is None:
            plan = _plan(codes)
            _PLANS.put(key, plan)
        steps, top, dense, node, chain, layouts, deltas = plan
    if d.dim**top > _MAX_RESULT:
        raise OverflowGuardError(f"an array of rank {top} at dimension D={d.dim} exceeds {_MAX_RESULT} entries")
    if d.dim**dense > _MAX_DENSE:
        name = list(d.nodes)[node]
        gen = d.nodes[name]
        on = f" on {dense} label{'s' * (dense > 1)}" if dense < gen.degree else ""
        raise OverflowGuardError(f"node {name!r}: {gen.kind} of degree {gen.degree}{on} too large at D={d.dim}")
    size = max(_TILE // d.dim ** max(top, dense), 1)
    power = sum(gen.nu_power for gen in d.nodes.values())
    return key, steps, (codes[3 : 3 + codes[2]], chain, layouts, deltas, power), size


def _runs(items: Iterable[tuple[Diagram, ...]], ctx: MeasureContext) -> Iterator[tuple[list[list[Diagram]], list]]:
    """Runs of consecutive tuples of diagrams whose k-th diagrams share a shape and a K, in order, with their plans.

    A run is one list per position k, of the tuples' k-th diagrams, and
    each position's ``(steps, layout)`` (see ``_checked_plan``), so that
    one nu^K scales each batch (see ``_execute``).  It holds
    at most the smallest batch size of its diagrams.  The caller empties
    the lists once it has run them, so that neither holds a diagram it has
    handed on.  ``items`` is read as the runs are asked for, so one run is
    held at a time (and, where a shape changes, the next tuple), and a size
    past a budget raises ``OverflowGuardError`` when its diagram is read.
    """
    columns: list[list[Diagram]] = []
    for item in items:
        checked = [_checked_plan(d, ctx) for d in item]
        keys = [(key, layout[-1]) for key, _, layout, _ in checked]  # the shape and K
        if columns and keys != run_keys:
            yield columns, plans
            columns = []
        if not columns:
            columns, run_keys = [[] for _ in item], keys
            plans = [(steps, layout) for _, steps, layout, _ in checked]
            size = min(batch for *_, batch in checked)
        for column, d in zip(columns, item):
            column.append(d)
        del item, d
        if len(columns[0]) >= size:
            yield columns, plans
            columns = []
    if columns:
        yield columns, plans


def evaluate(d: Diagram, ctx: MeasureContext) -> Tensor:
    """Contract the diagram to its tensor, in boundary order.

    A size past a budget raises ``OverflowGuardError``, and so does a
    NaN or infinite entry of the result (``tensor.finite``): numpy's
    einsum does not trap an overflow, so a step can give inf or NaN.
    """
    _, steps, layout, _ = _checked_plan(d, ctx)
    (data,) = _execute(steps, layout, [d], ctx)
    return finite(Tensor(ctx.dim, d.n_inputs, d.n_outputs, data))


def _cut(dim: int, n: int) -> tuple[int, int]:
    """How a result of ``n`` boundary legs is tiled: ``(k, run)``, or ``(0, 0)`` where it is one tile.

    A result of more than ``_TILE`` entries is cut at its first k >= 1
    positions, the fewest that leave at most ``_TILE`` entries a value of
    position 0, and takes ``run`` values of position 0 a tile, as many as
    fit and at least one.
    """
    if dim**n <= _TILE:
        return 0, 0
    return next(k for k in range(1, n + 1) if dim ** (n - k) <= _TILE), max(_TILE // dim ** (n - 1), 1)


def _tiles(ds: list[Diagram], plan: tuple, ctx: MeasureContext) -> Iterator[np.ndarray]:
    """The tiles of the results of the same-shape diagrams ``ds`` under their plan ``(steps, layout)``, in one order.

    The fold reads tiles for every pair but a wide one whose last merges
    split alike, which ``_stacked`` compares without them.
    A result of at most ``_TILE`` entries is one tile, the whole result,
    as ``_execute`` gives it.  A wider one is cut as ``_cut`` says: a tile
    is ``data[lo:lo + run, i1, ..., i(k-1)]``, and tiles come in the
    row-major order of (lo, i1, ..., i(k-1)), only the last run shorter.
    A run lets one matmul reuse an operand over many rows of the other,
    where with one value a tile a side of two legs at D=1024 would read
    its whole 1024 x 1024 operand once per value.  A wide result is one
    diagram's (see ``_checked_plan``), so only a whole result can have
    the batch axis in front.

    A plan with a merge ends in it, and that merge writes the boundary
    order (see ``_plan``): every step before it runs once, when the first
    tile is asked for, and a wide result's tiles are its blocks
    (``_blocks``), cut at positions 1..k-1 in runs of position 0, so that
    on matmul a tile has the bits of the whole result's slice.  A plan
    with no merge gives views of slices of its whole result.  Either way
    the caller may write into a tile, until it asks for the next one.
    Sizes are checked as ``evaluate`` checks them, against the whole
    result.  ``ds`` is emptied once the plan has run.
    """
    steps, layout = plan
    D, n = ctx.dim, ds[0].n_inputs + ds[0].n_outputs
    k, run = _cut(D, n)
    out = _execute(steps, layout, ds, ctx, split_last=bool(k))
    ds.clear()
    if len(out) == 2:  # a wide result's last merge
        _, _, sa, sb, so = steps[-1]
        yield from _blocks(D, out.pop(0), sa, out.pop(), sb, so, so[1:k], run)
        return
    whole = out.pop()
    if not k:
        yield np.asarray(whole)  # np.einsum gives a legless side as a scalar
        return
    for lo, *idx in itertools.product(range(0, D, run), *[range(D)] * (k - 1)):
        yield whole[(slice(lo, lo + run), *idx)]


def _alike(lsteps: tuple, rsteps: tuple, dim: int) -> list | None:
    """How ``_stacked`` lays out two sides' last merges where they split the boundary alike; else None.

    Both plans must end in a merge (see ``_plan``), and the merges must
    have the same batch positions of the boundary and the same free
    positions in each operand (``_split``), up to swapping the right
    side's two operands; their summed labels may differ.  Returns per
    side ``(swap, a labels, a shape, b labels, b shape)``: a as (batch,
    free, summed) and b as (batch, summed, free), batch and free labels
    in boundary order, so that the two sides' rows and columns agree.
    """
    sides = []
    for steps in (lsteps, rsteps):
        if not steps or steps[-1][1] < 0:
            return None
        _, _, sa, sb, so = steps[-1]
        sides.append((*_split(sa, sb, so, (), so.index), so))

    def positions(side: tuple, swap: bool) -> list:
        batch, _, free_a, free_b, so = side
        return [[so.index(l) for l in ls] for ls in (batch, *((free_b, free_a) if swap else (free_a, free_b)))]

    want = positions(sides[0], False)
    swap = positions(sides[1], False) != want
    if positions(sides[1], swap) != want:
        return None
    layouts = []
    for (batch, summed, free_a, free_b, _), flip in zip(sides, (False, swap)):
        if flip:
            free_a, free_b = free_b, free_a
        nb, ns = dim ** len(batch), dim ** len(summed)
        layouts.append((flip, batch + free_a + summed, (nb, -1, ns), batch + summed + free_b, (nb, ns, -1)))
    return layouts


def _stacked(runs: list, lay: list, ctx: MeasureContext) -> float:
    """max |L - R| over a wide pair whose last merges split alike (``_alike``), as one product a block.

    ``runs`` is each side's one diagram, in a list, with its plan.  Each
    side runs every step before its last merge (``_execute``), and lays
    out that merge's operands as ``_blocks`` does, A as (batch, rows,
    summed) and B as (batch, summed, columns).  A block of L - R is then
    one ``np.matmul`` of ``[A_l | -A_r]`` against ``[B_l ; B_r]``, stacked
    along the summed axis, so neither side's result is made and no
    subtraction runs.  A block has at most ``_TILE`` entries, and at least
    one column: a run of batch values where one value's rows and columns
    fit, else a run of columns of one batch value.  The stacked A is made
    once a run of batch values and the stacked B once a block, so neither
    is held whole.  ``np.maximum`` folds each block's max of ``|.|``,
    carrying a NaN to the end.  The stacked product sums in another
    order than L and R made whole, so the error may round apart from
    theirs.
    """
    ops = []
    with np.errstate(invalid="ignore", over="ignore"):
        for (ds, (steps, layout)), (swap, la, shape_a, lb, shape_b) in zip(runs, lay):
            a, b = _execute(steps, layout, ds, ctx, split_last=True)
            ds.clear()
            _, _, sa, sb, _ = steps[-1]
            if swap:
                a, b, sa, sb = b, a, sb, sa
            a = _laid_out(a, sa, la, 0, shape_a)
            b = _laid_out(b, sb, lb, 0, shape_b)
            ops.append((a, b))
        (a_l, b_l), (a_r, b_r) = ops
        nb, rows, _ = a_l.shape
        cols = b_l.shape[2]
        run, width = (_TILE // (rows * cols), cols) if rows * cols <= _TILE else (1, max(_TILE // rows, 1))
        # one buffer for the widest block, of which each block is a prefix,
        # and |.| half a block at a time: with a whole block's magnitudes
        # beside it, ZH-O's check at D=7 peaked at 3.96 MiB in the fold,
        # against 3.7 MiB with halves and a 4 MiB bound in the tests
        block = np.empty(min(run, nb) * rows * width, complex)
        mag = np.empty(-(-block.size // 2))
        worst = np.float64(-np.inf)
        for lo in range(0, nb, run):
            x = np.concatenate((a_l[lo : lo + run], np.negative(a_r[lo : lo + run])), axis=2)
            for c in range(0, cols, width):
                y = np.concatenate((b_l[lo : lo + run, :, c : c + width], b_r[lo : lo + run, :, c : c + width]), axis=1)
                size = y.shape[0] * rows * y.shape[2]
                np.matmul(x, y, out=block[:size].reshape(y.shape[0], rows, -1))
                half = -(-size // 2)
                for piece in (block[:half], block[half:size]):
                    np.abs(piece, out=mag[: piece.size])
                    worst = np.maximum(worst, mag[: piece.size].max(initial=-np.inf))
    return float(worst)


def max_abs_diffs(pairs: Iterable[tuple[Diagram, Diagram]], ctx: MeasureContext) -> Iterator[float]:
    """``max_abs_diff(evaluate(lhs, ctx), evaluate(rhs, ctx))`` for each pair, in order, block by block.

    The pairs run in batches (``_runs``), a side wider than one tile
    alone, so that no such side is built whole.  A wide pair whose sides'
    last merges split the boundary alike (``_alike``) is compared as one
    stacked product a block (``_stacked``), which writes neither side's
    result.  Every other batch streams each side's results as tiles
    (``_tiles``), and the two streams zip; each right tile is subtracted
    from the left one in place, or the left from the right where only the
    right has the batch axis, its abs goes into a buffer laid out as that
    tile, and ``np.maximum`` folds in each diagram's max (over all but
    the batch axis of a batched tile).  Both paths carry a NaN to the
    end.  An error may round apart from ``max_abs_diff``'s where a whole
    side's step runs on einsum, where a batch sums in another order, or
    where the stacked product does.  Entries past the float range give
    inf or NaN with no warning.  Sides whose boundaries differ raise
    ``ShapeError``.  ``pairs`` is read as the errors are asked for, so one
    batch of sides is held at a time.
    """
    for (left, right), (lplan, rplan) in _runs(pairs, ctx):
        boundary, count = (left[0].n_inputs, left[0].n_outputs), len(left)
        if boundary != (right[0].n_inputs, right[0].n_outputs):
            raise ShapeError("the diagrams differ in their boundary")
        lay = _cut(ctx.dim, sum(boundary))[0] and _alike(lplan[0], rplan[0], ctx.dim)
        if lay:
            yield _stacked([(left, lplan), (right, rplan)], lay, ctx)
            continue
        worst, mag = np.full(count, -np.inf), None
        with np.errstate(invalid="ignore", over="ignore"):
            for x, y in zip(_tiles(left, lplan, ctx), _tiles(right, rplan, ctx)):
                if y.ndim > x.ndim:
                    x, y = y, x
                np.subtract(x, y, out=x)
                if mag is None or mag.shape != x.shape:
                    mag = np.empty_like(x, dtype=float)
                    axes = tuple(range(1, mag.ndim)) if mag.ndim > sum(boundary) else None
                np.abs(x, out=mag)
                np.maximum(worst, mag.max(axis=axes), out=worst)
        del x, y, mag  # not held while the next run is evaluated
        yield from worst.tolist()


# =====================================================================
# JSON file format
# =====================================================================


def _file_port(ref: Any) -> Port:
    """A file's reference ``"owner:index"`` as a port; a malformed one raises ``DiagramError``.

    The owner is all before the last colon, and is never ``""``; the
    index must be an int's text.  The loader reads the entries of inputs
    and outputs through this, and an edge's reference only where it
    cannot number it.
    """
    owner, _, idx = ref.rpartition(":") if isinstance(ref, str) else ("", "", "")
    if owner:
        try:
            return owner, int(idx)
        except ValueError:
            pass
    raise DiagramError(f"bad port reference {ref!r}")


def from_json_obj(obj: Any) -> Diagram:
    """The diagram a parsed diagram file holds; a malformed one raises ``DiagramError``.

    Each ``"owner:index"`` is numbered as it is parsed, in file order:
    the edges, then the inputs, then the outputs, where an entry that
    names a node port adds the edge from its position.  A malformed pair
    or reference raises at once; the first reference to no port is set
    aside, and ``_port_table`` names it after the layout checks.
    """
    if not isinstance(obj, dict):
        raise DiagramError("a diagram file must hold a JSON object")
    if "dimension" not in obj:
        raise DiagramError("the diagram has no 'dimension'")
    dim = strict_int(obj["dimension"], "dimension", DiagramError)
    if dim < 2:
        raise DiagramError(f"dimension must be at least 2, got {dim}")
    entries = obj.get("nodes", {})
    if not isinstance(entries, dict):
        raise DiagramError("nodes must be an object of node entries")
    lists = {key: obj.get(key, []) for key in ("edges", "inputs", "outputs")}
    for key, value in lists.items():
        if not isinstance(value, list):
            raise DiagramError(f"{key} must be a list")
    nodes: dict[str, Generator] = {}
    spans: dict[str, tuple[int, int]] = {}  # each owner's first port number and port count
    n_ports = 0
    # the generator of the first amplitude-free node of each (kind, legs, c),
    # shared by the later ones; only a kind that passes Generator's own
    # check (in KINDS) forms a key, so a list or dict kind fails there as before
    shared: dict[tuple[str, int, int], Generator] = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise DiagramError(f"node {name!r} must be an object")
        try:
            kind, legs = entry["kind"], entry["legs"]
        except KeyError as exc:
            raise DiagramError(f"node {name!r} has no {exc.args[0]!r}") from None
        if type(legs) is not int:
            legs = strict_int(legs, f"legs of node {name!r}", DiagramError)
        if "c" in entry and kind != "not":
            raise DiagramError(f"node {name!r}: only a 'not' node takes a 'c'")
        c = entry.get("c", 0)
        if type(c) is not int:
            c = strict_int(c, f"c of node {name!r}", DiagramError)
        try:
            amp = amp_from_json(entry["amp"]) if entry.get("amp") is not None else None
            if amp is not None:
                check_amp_dim(amp, dim)
                gen = Generator(kind, 0, legs, amp=amp, c=c)
            else:
                gen = shared.get((kind, legs, c)) if kind in KINDS else None
                if gen is None:
                    gen = shared[kind, legs, c] = Generator(kind, 0, legs, c=c)
            nodes[name] = gen
        except (TypeError, ValueError) as exc:
            raise DiagramError(f"node {name!r}: {exc}") from None
        spans[name] = (n_ports, legs)
        n_ports += legs
    n_in, n_out = len(lists["inputs"]), len(lists["outputs"])
    spans.pop("", None)  # "" is never an owner, so ":0" is a bad reference
    spans["out"], spans["in"] = (n_ports, n_out), (n_ports + n_out, n_in)
    # an entry of inputs or outputs that names a port of another owner is
    # an edge from its position; one of its own side only counts it.  Read
    # lazily, after the edges, so that its faults come after theirs
    wired = ([f"{side}:{pos}", ref] for side, key in (("in", "inputs"), ("out", "outputs"))
             for pos, ref in enumerate(lists[key]) if _file_port(ref)[0] != side)
    ports: list[int] = []
    append, bad = ports.append, []
    for pair in itertools.chain(lists["edges"], wired):
        if type(pair) is not list or len(pair) != 2:
            raise DiagramError(f"edge {pair!r} does not join two ports")
        for ref in pair:
            try:
                owner, _, idx = ref.rpartition(":")
                start, size = spans[owner]
                i = int(idx)
                if 0 <= i < size:
                    append(start + i)
                    continue
            except (AttributeError, KeyError, TypeError, ValueError):
                pass
            bad.append(_port_error(*_file_port(ref), spans))
    table = _port_table(ports, bad, nodes, n_out, n_in, n_ports)
    return Diagram(dim, nodes, table, n_in, n_out)


def dump_json(d: Diagram) -> str:
    """The diagram file: ``json.dumps`` of its object, on one line.

    The edges are read from the port table of ``d`` through one list of
    port labels, each ``"owner:index"``, in port order.  A NaN or
    infinite amplitude raises json's ``ValueError``.
    """
    nodes: dict[str, dict[str, Any]] = {}
    labels: list[str] = []  # each port's label, in port order
    for name, gen in d.nodes.items():
        entry: dict[str, Any] = {"kind": gen.kind, "legs": gen.degree}
        if gen.amp is not None:
            entry["amp"] = amp_to_json(gen.amp)
        if gen.kind == "not":
            entry["c"] = gen.c
        nodes[name] = entry
        labels += [f"{name}:{i}" for i in range(gen.degree)]
    outputs = [f"out:{i}" for i in range(d.n_outputs)]
    inputs = [f"in:{i}" for i in range(d.n_inputs)]
    labels += outputs + inputs
    ends = iter([labels[p] for p in d._ports])
    obj = {"dimension": d.dim, "nodes": nodes, "edges": list(zip(ends, ends)), "inputs": inputs, "outputs": outputs}
    return json.dumps(obj, allow_nan=False)


def load_json(text: str) -> Diagram:
    return from_json_obj(json.loads(text))
