"""Wire generators, tensor algebra, and the dump format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditzx.measure import MeasureContext, OverflowGuardError
from quditzx.tensor import ShapeError, Tensor, dump_json, from_dump, load_json, max_abs_diff

from oracles import adjoint, cap, compose, cup, identity_wire, tensor_product


def random_tensor(rng, dim, m, n):
    shape = (dim,) * (n + m)
    return Tensor(dim, m, n, rng.normal(size=shape) + 1j * rng.normal(size=shape))


# ---------------------------------------------------------------- wires


def test_identity_is_eye():
    assert np.allclose(identity_wire(MeasureContext(3)).data, np.eye(3))


def test_cap_after_cup_is_trace_of_identity():
    ctx = MeasureContext(2)
    loop = compose(cup(ctx), cap(ctx))
    assert loop.in_legs == loop.out_legs == 0
    assert abs(complex(loop.data) - 2.0) < 1e-12


@pytest.mark.parametrize("D", [2, 3, 5])
def test_snake_equation(D):
    # (cup ; id x cap-style bending) straightens to the identity wire
    ctx = MeasureContext(D)
    ident = identity_wire(ctx)
    left = tensor_product(cup(ctx), ident)  # 1 -> 3
    right = tensor_product(ident, cap(ctx))  # 3 -> 1
    assert max_abs_diff(compose(left, right), ident) < 1e-12


# ---------------------------------------------------------------- algebra


def test_tensor_product_scalars():
    t = tensor_product(Tensor.scalar(2, 2.0), Tensor.scalar(2, 3j))
    assert abs(complex(t.data) - 6j) < 1e-12


def test_tensor_product_projectors():
    # |0><0| (x) |1><1| at D=2 projects onto |0,1>
    D = 2
    p0 = np.zeros((D, D))
    p0[0, 0] = 1
    p1 = np.zeros((D, D))
    p1[1, 1] = 1
    t = tensor_product(Tensor(D, 1, 1, p0), Tensor(D, 1, 1, p1))
    expect = np.zeros((D, D, D, D))
    expect[0, 1, 0, 1] = 1
    assert np.allclose(t.data, expect)


def test_compose_identity_neutral():
    rng = np.random.default_rng(7)
    ctx = MeasureContext(3)
    t = random_tensor(rng, 3, 1, 1)
    assert max_abs_diff(compose(identity_wire(ctx), t), t) < 1e-12
    assert max_abs_diff(compose(t, identity_wire(ctx)), t) < 1e-12


def test_compose_cup_cap_scalar_D():
    ctx = MeasureContext(5)
    val = compose(cup(ctx), cap(ctx))
    assert abs(complex(val.data) - 5.0) < 1e-12


def test_shape_errors():
    rng = np.random.default_rng(0)
    a = random_tensor(rng, 2, 1, 2)
    b = random_tensor(rng, 2, 1, 1)
    c = random_tensor(rng, 3, 1, 1)
    with pytest.raises(ShapeError):
        compose(a, a)  # 2 outputs into 1 input
    with pytest.raises(ShapeError):
        tensor_product(b, c)
    with pytest.raises(ShapeError):
        max_abs_diff(a, b)
    with pytest.raises(ShapeError, match=r"^entries shape \(3,\) != expected \(2, 2\)$"):
        Tensor(2, 1, 1, np.zeros(3))


NAN, INF = float("nan"), float("inf")
# (edits to a, edits to b): (entry, value) with entry 0 the first, -1 the last
DIFF_EDITS = [
    ([], []),
    ([(0, NAN)], []),
    ([(-1, NAN)], []),
    ([], [(0, NAN)]),
    ([], [(-1, NAN)]),
    ([(-1, INF)], []),
    ([(0, -INF)], [(0, INF)]),
    ([(-1, INF)], [(-1, INF)]),  # inf - inf is NaN
    ([(0, complex(1, -INF))], []),
    ([], [(-1, complex(0, NAN))]),
]


@pytest.mark.parametrize("rank", [0, 8])
@pytest.mark.parametrize("layouts", ["CC", "CT", "TC", "TT"])
@pytest.mark.parametrize("edits", DIFF_EDITS, ids=range(len(DIFF_EDITS)))
def test_max_abs_diff_is_the_one_shot_formula_bit_for_bit(rank, layouts, edits):
    # on any memory layout, the one-shot max: the same bits, and NaN
    # wherever a NaN occurs
    dim = 5
    rng = np.random.default_rng(rank)
    perm = rng.permutation(rank)

    def operand(layout, changes):
        shape = (dim,) * rank
        base = np.asarray(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        arr = base.transpose(perm) if layout == "T" else base
        for entry, value in changes:
            arr[(entry,) * rank] = value
        return Tensor(dim, 0, rank, arr)

    a, b = operand(layouts[0], edits[0]), operand(layouts[1], edits[1])
    if rank:
        assert a.data.flags.c_contiguous == (layouts[0] == "C")
    with np.errstate(invalid="ignore"):  # inf - inf
        got = max_abs_diff(a, b)
        want = float(np.max(np.abs(a.data - b.data)))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    has_nan = any(np.isnan(complex(v)) for side in edits for _, v in side)
    assert np.isnan(got) == (has_nan or edits == DIFF_EDITS[7])


@pytest.mark.parametrize("dim,m,n", [(1, 1, 1), (0, 0, 0), (-2, 0, 0), (3, -1, 1), (3, 1, -1)])
def test_rejects_small_dimension_and_negative_legs(dim, m, n):
    with pytest.raises(ShapeError):
        Tensor(dim, m, n, np.ones(()))
    with pytest.raises(ShapeError):
        load_json(f'{{"dim": {dim}, "in_legs": {m}, "out_legs": {n}, "entries": [[1, 0]]}}')


@pytest.mark.parametrize("legs", [4_000_000, 10**12])
def test_from_dump_refuses_huge_leg_counts_before_the_power(legs):
    # dim^legs would be a huge integer; the leg count is bounded first
    for dim in (3, -3):
        with pytest.raises(ShapeError, match="legs need more"):
            from_dump({"dim": dim, "in_legs": legs, "out_legs": 0, "entries": [[1, 0]]})
        with pytest.raises(ShapeError, match="legs need more"):
            from_dump({"dim": dim, "in_legs": 1, "out_legs": legs, "entries": [[1, 0]] * 9})


@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_interchange_law(D, seed):
    rng = np.random.default_rng(seed)
    a = random_tensor(rng, D, 1, 1)
    b = random_tensor(rng, D, 2, 1)
    c = random_tensor(rng, D, 1, 2)
    d = random_tensor(rng, D, 1, 1)
    lhs = compose(tensor_product(a, b), tensor_product(c, d))
    rhs = tensor_product(compose(a, c), compose(b, d))
    assert max_abs_diff(lhs, rhs) < 1e-10


@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_cup_transposes_legs(D, seed):
    # feeding T into one side of a cup equals feeding its transpose into the other
    ctx = MeasureContext(D)
    rng = np.random.default_rng(seed)
    t = random_tensor(rng, D, 1, 1)
    tt = Tensor(D, 1, 1, t.data.T)
    ident = identity_wire(ctx)
    lhs = compose(cup(ctx), tensor_product(ident, t))
    rhs = compose(cup(ctx), tensor_product(tt, ident))
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_adjoint_is_conjugate_transpose():
    rng = np.random.default_rng(3)
    t = random_tensor(rng, 3, 2, 1)
    ta = adjoint(t)
    assert (ta.in_legs, ta.out_legs) == (1, 2)
    assert np.allclose(ta.as_matrix(), t.as_matrix().conj().T)


# ---------------------------------------------------------------- dump format


@pytest.mark.parametrize("shape", [(2, 0, 0), (3, 1, 1), (2, 2, 1), (4, 0, 2)])
def test_dump_round_trip(shape):
    D, m, n = shape
    rng = np.random.default_rng(11)
    t = random_tensor(rng, D, m, n)
    back = load_json(dump_json(t))
    assert max_abs_diff(t, back) < 1e-15


def test_dump_axis_order_is_outputs_major():
    # 1->1 at D=2: flat order must be (out=L..U) major, (in=L..U) minor
    t = Tensor(2, 1, 1, np.array([[1, 2], [3, 4]], dtype=complex))
    entries = [complex(re, im) for re, im in __import__("json").loads(dump_json(t))["entries"]]
    assert entries == [1, 2, 3, 4]


BAD_ENTRIES = ['["x"]', '"ab"', "5", "[1, 2, 3]", "[1e400, 0]", "[0, -1e400]", "[NaN, 0]", "[0, Infinity]",
               "[true, 0]", '[1, "2"]', "[null, 0]", f"[{10**400}, 0]"]


@pytest.mark.parametrize("entry", BAD_ENTRIES)
@pytest.mark.parametrize("at", [0, 3])
def test_load_refuses_an_entry_that_is_not_a_finite_pair(entry, at):
    entries = ["[1, 0]"] * 4
    entries[at] = entry
    text = f'{{"dim": 2, "in_legs": 1, "out_legs": 1, "entries": [{", ".join(entries)}]}}'
    with pytest.raises(ShapeError, match=rf"^entry {at} must be a pair of finite real numbers, got "):
        load_json(text)


def test_load_reads_integer_and_float_parts_exactly():
    t = load_json('{"dim": 2, "in_legs": 0, "out_legs": 1, "entries": [[1, -0.0], [5e-324, 1.7976931348623157e308]]}')
    assert t.data.tolist() == [complex(1, -0.0), complex(5e-324, 1.7976931348623157e308)]


@pytest.mark.parametrize("value", [complex("nan"), complex(0, float("inf")), complex(float("-inf"), 1)])
def test_dump_refuses_a_non_finite_entry(value):
    data = np.zeros((3, 3), dtype=complex)
    data[2, 1] = value
    with pytest.raises(OverflowGuardError, match=r"^entry 7 of the tensor is not finite: "):
        dump_json(Tensor(3, 1, 1, data))


@pytest.mark.parametrize("text, message", [
    ("[1, 2, 3]", "a tensor dump must hold a JSON object"),
    ('"entries"', "a tensor dump must hold a JSON object"),
    ('{"in_legs": 0, "out_legs": 0, "entries": [[1, 0]]}', "the tensor dump has no 'dim'"),
    ('{"dim": 2, "out_legs": 0, "entries": [[1, 0]]}', "the tensor dump has no 'in_legs'"),
    ('{"dim": 2, "in_legs": 0, "entries": [[1, 0]]}', "the tensor dump has no 'out_legs'"),
    ('{"dim": 2, "in_legs": 0, "out_legs": 0}', "the tensor dump has no 'entries'"),
    ('{"dim": 2, "in_legs": 0, "out_legs": 0, "entries": 5}', "entries must be a list"),
    ('{"dim": 2, "in_legs": 0, "out_legs": 1, "entries": {"0": [1, 0]}}', "entries must be a list"),
    ('{"dim": 2, "in_legs": 1, "out_legs": 0, "entries": [[0, 0]]}', "entry count 1 != 2^1"),
])
def test_load_names_the_bad_field(text, message):
    with pytest.raises(ShapeError) as err:
        load_json(text)
    assert str(err.value) == message
