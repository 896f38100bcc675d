import ast
import importlib
import inspect
import pkgutil
import weakref
from pathlib import Path

import numpy as np
import pytest

import reference_ops as ref
import trajkit
from trajkit import gradcore as gc
from trajkit.gradcore import tensor
from trajkit.gradcore.tensor import Tensor, _is_basic_key, _make


def test_square_gradient():
    value, grads = gc.grad(lambda x: gc.mul(x, x), [3.0])
    assert value == 9.0
    assert grads[0] == 6.0


def test_three_layer_network_against_finite_differences():
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(5, 8)) * 0.5
    w2 = rng.normal(size=(8, 8)) * 0.5
    w3 = rng.normal(size=(8, 1)) * 0.5
    x = rng.normal(size=(4, 5))

    def loss(a, b, c):
        h = gc.sigmoid(ref.matmul(Tensor(x), a))
        h = gc.gelu(ref.matmul(h, b))
        out = gc.sigmoid(ref.matmul(h, c))
        return gc.tmean(ref.square(gc.add(out, -0.3)))

    err = gc.grad_check(loss, [w1, w2, w3])
    assert err < 1e-6


def test_grad_check_linear_map_is_exact():
    w = np.arange(6.0).reshape(2, 3)
    err = gc.grad_check(lambda a: gc.tsum(gc.mul(a, 2.5)), [w])
    assert err < 1e-10


# public functions of gradcore.tensor that no finite-difference check applies to
NOT_DIFFERENTIABLE = {"as_tensor": "a type conversion", "backward": "the reverse pass itself"}


def _public(module) -> set:
    return {name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


# the ops of reference_ops, each checked as a primitive is, under `ref.<name>`:
# its references that return a Tensor (the others are plain numpy), but the chains
REFERENCE_OPS = {name for name in _public(ref) if not name.endswith("_chain")
                 and inspect.signature(getattr(ref, name)).return_annotation is Tensor}


def _transposed(y):
    """A (3, 4) operand as its (4, 3) transpose."""
    return gc.regroup(y, (3, 4), (1, 0), (4, 3))


def _primitive_cases(rng) -> dict:
    """One scalar function of two (3, 4) inputs per differentiable primitive
    and per reference op."""
    m = rng.random((3, 4)) > 0.5
    target, weight = rng.normal(size=(3, 1, 2)), np.array([[True], [False], [True]])
    sq_target, sq_weight = rng.normal(size=(3, 2, 1, 2)), rng.uniform(0.0, 2.0, size=(3, 2, 1))
    hb_target, hb_weight = rng.normal(size=(3, 2, 2)), rng.uniform(0.0, 2.0, size=(3, 2))
    return {
        "add": lambda x, y: gc.tsum(gc.add(x, y)),
        "mul": lambda x, y: gc.tsum(gc.mul(x, y)),
        "div": lambda x, y: gc.tsum(gc.div(x, y)),
        "ref.matmul": lambda x, y: gc.tsum(gc.sigmoid(ref.matmul(x, _transposed(y)))),
        "linear": lambda x, y: gc.tsum(gc.sigmoid(gc.linear(x, _transposed(y), y[:, 0]))),
        "ref.linear": lambda x, y: gc.tsum(gc.sigmoid(ref.linear(x, y, y[0], 0))),
        "residual_mlp": lambda x, y: gc.tsum(gc.sigmoid(
            gc.residual_mlp(x, _transposed(y), y[0, :3], gc.add(y, -2.5), y[1]))),
        "exp": lambda x, y: gc.tsum(gc.exp(gc.mul(x, 0.3))),
        "sigmoid": lambda x, y: gc.tsum(gc.sigmoid(x)),
        "softplus": lambda x, y: gc.tsum(gc.softplus(x)),
        "gelu": lambda x, y: gc.tsum(gc.gelu(x)),
        "ref.absolute": lambda x, y: gc.tsum(ref.absolute(x)),
        "ref.square": lambda x, y: gc.tsum(gc.mul(ref.square(x), y)),
        "ref.where": lambda x, y: gc.tsum(ref.where(m, x, y)),
        "huber": lambda x, y: gc.tsum(gc.sigmoid(
            gc.huber(gc.reshape(x, (3, 2, 2)), hb_target, hb_weight, 0.7))),
        "tsum": lambda x, y: gc.mul(gc.tsum(x), gc.tsum(ref.square(y))),
        "ref.tsum": lambda x, y: gc.tsum(ref.square(ref.tsum(x, 1))),
        "tmean": lambda x, y: gc.tmean(gc.mul(x, y)),
        "reshape": lambda x, y: gc.tsum(ref.square(gc.reshape(x, (4, 3)))),
        "regroup": lambda x, y: gc.tsum(gc.mul(gc.regroup(x, (3, 2, 2), (1, 0, 2), (2, 6)),
                                               gc.reshape(y, (2, 6)))),
        "concat": lambda x, y: gc.tsum(ref.square(gc.concat([x, y], axis=1))),
        "getitem": lambda x, y: gc.tsum(ref.square(x[1:, :2])),
        "shift_l1": lambda x, y: gc.tsum(gc.sigmoid(
            gc.shift_l1(gc.reshape(x, (3, 2, 2)), 1, 1, target, weight))),
        "weighted_sq": lambda x, y: gc.tsum(gc.sigmoid(
            gc.weighted_sq(gc.reshape(x, (3, 2, 1, 2)), sq_target, sq_weight))),
    }


@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients_random_seeds(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4)) * 0.8
    b = rng.normal(size=(3, 4)) * 0.8 + 2.5  # keep div away from zero
    for name, f in _primitive_cases(rng).items():
        assert gc.grad_check(f, [a, b]) < 1e-4, name


def test_every_differentiable_primitive_has_a_gradient_check():
    public = _public(tensor)
    assert set(_primitive_cases(np.random.default_rng(0))) == \
        public - set(NOT_DIFFERENTIABLE) | {f"ref.{name}" for name in REFERENCE_OPS}
    assert set(NOT_DIFFERENTIABLE) <= public


def test_every_exported_name_is_used_by_the_package():
    """Outside gradcore a use is `gc.name` or an import from gradcore; inside
    it, any read of the name."""
    init = Path(gc.__file__)
    used = set()
    for path in init.parents[1].rglob("*.py"):
        inside = path.parent == init.parent
        if path == init:  # the export list itself
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if inside and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "gc"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and "gradcore" in (node.module or ""):
                used.update(alias.name for alias in node.names)
    assert set(gc.__all__) - used == set()


def test_every_public_function_and_class_is_read_by_the_package_or_a_demo():
    """The check above for every module: each public module-level def or class
    of src/trajkit is read in src/trajkit or demos/, as a name, an attribute
    or a from-import; a package `__init__`'s re-exports are not reads."""
    package = Path(trajkit.__file__).parent
    defined, used = [], set()
    for path in [*package.rglob("*.py"), *(Path(__file__).parents[1] / "demos").glob("*.py")]:
        tree = ast.parse(path.read_text())
        if path.is_relative_to(package):
            defined += [(f"{path.stem}.{node.name}", node.name) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                used.update(alias.name for alias in node.names)
    assert [where for where, name in defined if name not in used] == []


OPTIONS_SET_BY_TESTS_ONLY = {
    # criterion 04 sweeps the moving share and the motion of its variance scenes
    ("mixed_region_tracks", "moving_fraction"), ("mixed_region_tracks", "oscillate"),
}


def _trajkit_names(path: Path, tree: ast.Module) -> dict:
    """The names through which a file reaches trajkit: a module of the
    package sees its own globals, any other file what it imports from
    trajkit."""
    src = Path(trajkit.__file__).parents[1]
    if path.is_relative_to(src):
        name = ".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
        return vars(importlib.import_module(name))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "trajkit":
                    names[alias.asname or "trajkit"] = importlib.import_module(
                        alias.name if alias.asname else "trajkit")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trajkit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _callee(f: ast.expr, names: dict):
    """What `f` of a call `f(...)` is, when it is a name from `names` or an
    attribute of a trajkit module reached that way; else None."""
    if isinstance(f, ast.Name):
        return names.get(f.id)
    if isinstance(f, ast.Attribute):
        base = _callee(f.value, names)
        if inspect.ismodule(base) and base.__name__.split(".")[0] == "trajkit":
            return getattr(base, f.attr, None)
    return None


def test_every_option_of_the_package_is_set_by_the_package():
    """Each defaulted parameter of a public module-level function of trajkit
    is set, by keyword or by position, by a call in src/, perfbench/ or
    demos/ whose callee is that function: a name imported from its module
    (or its own module's), or an attribute of a trajkit module alias such as
    `gc.name(...)` or `flowgen.name(...)`."""
    root = Path(__file__).parents[1]
    calls = {}
    for path in [p for top in ("src", "perfbench", "demos") for p in (root / top).rglob("*.py")]:
        tree = ast.parse(path.read_text())
        names = _trajkit_names(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and inspect.isfunction(fn := _callee(node.func, names)):
                calls.setdefault(fn, []).append(node)
    unset = set()
    for info in pkgutil.walk_packages(trajkit.__path__, "trajkit."):
        module = importlib.import_module(info.name)
        for name, fn in vars(module).items():
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                continue
            for i, param in enumerate(inspect.signature(fn).parameters.values()):
                if param.default is not inspect.Parameter.empty and not any(
                        len(call.args) > i or any(k.arg == param.name for k in call.keywords)
                        for call in calls.get(fn, [])):
                    unset.add((name, param.name))
    assert unset == OPTIONS_SET_BY_TESTS_ONLY


def _constant_calls(rng) -> dict:
    """Each differentiable primitive and reference op on two (3, 4) operands,
    with no other primitive between it and its output; a tuple where its
    code has more than one path."""
    m = rng.random((3, 4)) > 0.5
    target, weight = rng.normal(size=(3, 1, 2)), np.array([[True], [False], [True]])
    sq_target, sq_weight = rng.normal(size=(3, 2, 1, 2)), rng.uniform(0.0, 2.0, size=(3, 2, 1))
    hb_target, hb_weight = rng.normal(size=(3, 2, 2)), rng.uniform(0.0, 2.0, size=(3, 2))
    return {
        "add": gc.add,
        "mul": gc.mul,
        "div": gc.div,
        "ref.matmul": lambda x, y: ref.matmul(x, _transposed(y)),
        "linear": lambda x, y: gc.linear(x, _transposed(y), y[:, 0]),
        "ref.linear": lambda x, y: (ref.linear(x, y, y[0], 0),
                                    ref.linear(x, _transposed(y), y[:, 0], -1)),
        "residual_mlp": lambda x, y: (
            gc.residual_mlp(x, y[:, :3], y[0, :3], y[:, 1:], y[1, :3], axis=0),
            gc.residual_mlp(x, _transposed(y), y[0, :3], y, y[1])),
        "exp": lambda x, y: gc.exp(x),
        "sigmoid": lambda x, y: gc.sigmoid(x),
        "softplus": lambda x, y: gc.softplus(x),
        "gelu": lambda x, y: gc.gelu(x),
        "ref.absolute": lambda x, y: ref.absolute(x),
        "ref.square": lambda x, y: ref.square(x),
        "ref.where": lambda x, y: ref.where(m, x, y),
        "huber": lambda x, y: gc.huber(gc.reshape(x, (3, 2, 2)), hb_target, hb_weight, 0.7),
        "tsum": lambda x, y: gc.tsum(x),
        "ref.tsum": lambda x, y: ref.tsum(x, 1),
        "tmean": lambda x, y: gc.tmean(x),
        "reshape": lambda x, y: gc.reshape(x, (4, 3)),
        "regroup": lambda x, y: gc.regroup(x, (3, 2, 2), (1, 0, 2), (2, 6)),
        "concat": lambda x, y: gc.concat([x, y], axis=1),
        "getitem": lambda x, y: x[1:, :2],
        "shift_l1": lambda x, y: gc.shift_l1(gc.reshape(x, (3, 2, 2)), 1, 1, target, weight),
        "weighted_sq": lambda x, y: gc.weighted_sq(gc.reshape(x, (3, 2, 1, 2)), sq_target,
                                                   sq_weight),
    }


def test_every_differentiable_primitive_has_a_constant_call():
    assert set(_constant_calls(np.random.default_rng(0))) == \
        set(_primitive_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("name", sorted(_constant_calls(np.random.default_rng(0))))
def test_constant_operands_record_nothing(name, monkeypatch):
    """No operand requires a gradient: the output is a constant, no VJP is
    handed to the tape, and the value has the bytes of the recorded call."""
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)) + 2.5
    call = _constant_calls(rng)[name]
    recorded = []
    monkeypatch.setattr(tensor, "_make", lambda *args: recorded.append(args[3]))
    outs = call(Tensor(a), Tensor(b))
    monkeypatch.undo()
    outs = outs if isinstance(outs, tuple) else (outs,)
    assert recorded == []
    for out in outs:
        assert not out.requires_grad and out._parents == () and out._vjps == ()
    for grad_arg in (0, 1):
        args = [Tensor(a), Tensor(b)]
        args[grad_arg] = Tensor(args[grad_arg].data, requires_grad=True)
        taped = call(*args)
        taped = taped if isinstance(taped, tuple) else (taped,)
        if grad_arg == 0:  # every call reads x
            assert all(t.requires_grad and t._vjps for t in taped)
        for out, t in zip(outs, taped, strict=True):
            assert out.data.dtype == t.data.dtype and out.shape == t.shape
            assert out.data.tobytes() == t.data.tobytes()


def test_constant_subexpression_feeding_a_tape_node_passes_grad_check():
    rng = np.random.default_rng(12)
    k, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 3)) * 0.5, rng.normal(size=3)

    def f(x):
        c = gc.gelu(gc.linear(Tensor(k), Tensor(w), Tensor(b)))
        c = gc.concat([c, ref.absolute(Tensor(k[:, :1]))], axis=1)  # (3, 4), built off the tape
        assert not c.requires_grad and c._parents == ()
        h = gc.linear(gc.mul(x, c), Tensor(w), c[0, :3])
        return gc.tsum(gc.sigmoid(gc.add(h, gc.regroup(c[:, :3], (3, 3), (1, 0), (3, 3)))))

    assert gc.grad_check(f, [rng.normal(size=(3, 4))]) < 1e-4


def test_abs_gradient_away_from_kink():
    a = np.array([0.5, -1.5, 2.0])
    assert gc.grad_check(lambda x: gc.tsum(ref.absolute(x)), [a]) < 1e-10


def test_broadcasting_unbroadcast():
    a = np.ones((3, 4))
    b = np.full((4,), 2.0)
    value, grads = gc.grad(lambda x, y: gc.tsum(gc.mul(x, y)), [a, b])
    assert value == 24.0
    assert np.all(grads[0] == 2.0)
    assert np.all(grads[1] == 3.0)  # summed over the broadcast rows


def test_shape_error_names_primitive_and_shapes():
    with pytest.raises(gc.ShapeError) as exc:
        gc.mul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    assert "mul" in str(exc.value)
    assert "(2, 3)" in str(exc.value)


def test_grad_check_negative_control_detects_wrong_adjoint():
    # Hand-built primitive with a deliberately wrong vjp (factor 3 instead of 2).
    def bad_square(t):
        t = gc.as_tensor(t)
        return _make(t.data ** 2, (t,), (lambda g: g * 3.0 * t.data,), "bad_square")

    err = gc.grad_check(lambda x: gc.tsum(bad_square(x)), [np.array([1.0, 2.0])])
    assert err > 1e-2


def test_grad_check_nonfinite_probe_raises():
    # exp overflows above log(max float) = 709.78271289...; the upper probe crosses it
    with (pytest.warns(RuntimeWarning, match="overflow encountered in exp"),
          pytest.raises(gc.GradCheckError)):
        gc.grad_check(lambda x: gc.tsum(gc.exp(x)), [np.array([709.78271])])


def _steep(x):
    """Finite at +-STEP from 0, but (up - dn) overflows: a non-finite difference."""
    return gc.tsum(gc.mul(gc.mul(x, 1e157), 1.2e156))


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: gc.grad_check(_steep, [np.zeros(1)]), gc.GradCheckError,
                 "non-finite probe at input 0, coordinate 0", id="grad_check-difference"),
    pytest.param(lambda: gc.optim_step({"w": np.ones(2)}, {"w": np.ones(3)},
                                       gc.optim_init({"w": np.ones(2)}, lr=0.1)),
                 ValueError, "optim_step: grad shape (3,) != param shape (2,) for 'w'",
                 id="optim_step-grad-shape"),
    pytest.param(lambda: gc.reshape(np.ones(6), (4,)), gc.ShapeError,
                 "reshape: incompatible shapes (6,) vs (4,)", id="reshape"),
    pytest.param(lambda: gc.concat([np.ones((2, 3)), np.ones((2, 4))], axis=0), gc.ShapeError,
                 "concat: incompatible shapes (2, 3) vs (2, 4)", id="concat"),
    pytest.param(lambda: gc.backward(Tensor(np.ones(2), requires_grad=True), []), gc.ShapeError,
                 "backward: incompatible shapes (2,)", id="backward-non-scalar"),
])
def test_refusals_name_their_cause(call, error, message):
    with np.errstate(over="ignore"), pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_disconnected_input_gets_zero_gradient():
    _, grads = gc.grad(lambda x, y: gc.tsum(ref.square(x)), [np.ones(3), np.ones(2)])
    assert np.all(grads[1] == 0.0)


def _linear_at(axis):
    """gc.linear for the last axis, else the package's `_linear` at `axis`,
    the path residual_mlp takes."""
    return gc.linear if axis == -1 else lambda x, w, b: ref.linear(x, w, b, axis)


@pytest.mark.parametrize("x_shape,axis", [((5, 3), -1), ((2, 3, 4, 3), -1), ((2, 3, 3, 4), 2),
                                         ((3, 2, 4), 0)])
def test_linear_gradients(x_shape, axis):
    rng = np.random.default_rng(3)
    fan_in = x_shape[axis]
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(fan_in, 2)) * 0.5
    b = rng.normal(size=2)
    f = lambda x_, w_, b_: gc.tsum(gc.sigmoid(_linear_at(axis)(x_, w_, b_)))
    assert gc.grad_check(f, [x, w, b]) < 1e-4


@pytest.mark.parametrize("axis", [-1, 0, 1, 2])
def test_linear_bit_equal_to_reshape_matmul_add_chain(axis):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 5, 6))
    fan_in = x.shape[axis]
    w = rng.normal(size=(fan_in, 7))
    b = rng.normal(size=7)
    out_shape = list(x.shape)
    out_shape[axis] = 7
    cot = rng.normal(size=out_shape)  # a generic cotangent for every output entry
    prim, chain = _linear_at(axis), lambda *a: ref.linear_chain(*a, axis)

    assert np.array_equal(prim(x, w, b).data, chain(x, w, b).data)
    _, g_prim = gc.grad(lambda *a: gc.tsum(gc.mul(prim(*a), cot)), [x, w, b])
    _, g_chain = gc.grad(lambda *a: gc.tsum(gc.mul(chain(*a), cot)), [x, w, b])
    for gp, gch in zip(g_prim, g_chain):
        assert np.array_equal(gp, gch)


def test_shared_part_is_made_once_per_adjoint_and_dropped_by_its_last_reader():
    made = []
    part = tensor._shared(lambda g: made.append(g) or np.ones(3), 3)
    g = np.zeros(2)
    first = part(g)
    ref = weakref.ref(first)
    assert part(g) is first and len(made) == 1
    del first
    assert ref() is not None  # one reader still to come
    part(g)
    assert ref() is None and len(made) == 1
    part(np.zeros(2))  # another output adjoint: made again
    assert len(made) == 2


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_residual_mlp_gradients(axis):
    rng = np.random.default_rng(5)
    h = rng.normal(size=(2, 3, 4, 3))
    n = h.shape[axis]
    w1, b1 = rng.normal(size=(n, 5)) * 0.5, rng.normal(size=5)
    w2, b2 = rng.normal(size=(5, n)) * 0.5, rng.normal(size=n)
    f = lambda *a: gc.tsum(gc.sigmoid(gc.residual_mlp(*a, axis=axis)))
    assert gc.grad_check(f, [h, w1, b1, w2, b2]) < 1e-4


@pytest.mark.parametrize("axis", [2, -1, 0])
def test_residual_mlp_bit_equal_to_linear_gelu_add_chain(axis):
    """Forward bytes and every adjoint, h's two contributions included, with h
    also read by a consumer of its own, as in a model step."""
    rng = np.random.default_rng(6)
    h = rng.normal(size=(2, 3, 5, 6))
    n = h.shape[axis]
    w1, b1 = rng.normal(size=(n, 7)) * 0.5, rng.normal(size=7)
    w2, b2 = rng.normal(size=(7, n)) * 0.5, rng.normal(size=n)
    cot = rng.normal(size=h.shape)

    def loss(node):
        return lambda *a: gc.add(gc.tsum(gc.mul(ref.square(a[0]), 0.3)),
                                 gc.tsum(gc.mul(node(*a, axis), cot)))

    args = [h, w1, b1, w2, b2]
    assert gc.residual_mlp(*args, axis=axis).data.tobytes() == \
        ref.residual_chain(*args, axis).data.tobytes()
    _, g_prim = gc.grad(loss(lambda *a: gc.residual_mlp(*a[:5], axis=a[5])), args)
    _, g_chain = gc.grad(loss(ref.residual_chain), args)
    for gp, gch in zip(g_prim, g_chain, strict=True):
        assert gp.tobytes() == gch.tobytes()


@pytest.mark.parametrize("axis", [2, -1, 0])
def test_residual_mlp_writes_into_no_array_another_node_reads(axis):
    """The output adds h into the outer linear's fresh output in place, and the
    inner adjoint scales dx2's fresh output in place: h, which a second
    consumer also reads, keeps its bytes, and so does that consumer's gradient,
    also when the tape is replayed twice."""
    rng = np.random.default_rng(16)
    h0 = rng.normal(size=(2, 3, 5, 6))
    n = h0.shape[axis]
    w1, b1 = rng.normal(size=(n, 7)) * 0.5, rng.normal(size=7)
    w2, b2 = rng.normal(size=(7, n)) * 0.5, rng.normal(size=n)
    cot = rng.normal(size=h0.shape)
    h = Tensor(h0.copy(), requires_grad=True)
    c = Tensor(np.zeros(h0.shape), requires_grad=True)
    out = gc.residual_mlp(h, w1, b1, w2, b2, axis=axis)
    loss = gc.add(gc.tsum(gc.mul(out, cot)), gc.tsum(gc.mul(h, c)))
    assert not np.shares_memory(out.data, h.data) and h.data.tobytes() == h0.tobytes()
    g_h, g_c = gc.backward(loss, [h, c])
    assert h.data.tobytes() == h0.tobytes() and g_c.tobytes() == h0.tobytes()
    again = gc.backward(loss, [h, c])
    assert again[0].tobytes() == g_h.tobytes() and again[1].tobytes() == h0.tobytes()


def _assert_refused(op, call, monkeypatch):
    """call() raises a ShapeError naming `op` and hands nothing to the tape."""
    recorded = []
    monkeypatch.setattr(tensor, "_make", lambda *args: recorded.append(args[3]))
    with pytest.raises(gc.ShapeError, match=f"^{op}: "):
        call()
    assert recorded == []


@pytest.mark.parametrize("h_grad", [False, True])
@pytest.mark.parametrize("shapes,axis", [
    (((3, 2), (2,), (2, 3), (3,)), -1), (((4, 2), (2,), (2, 3), (3,)), -1),
    (((4, 2), (3,), (2, 4), (4,)), -1), (((4, 2), (2,), (2, 4), (1, 4)), -1),
    (((4,), (), (4,), ()), -1),  # w1 of rank 1, every other shape matching it
    (((4, 2, 1), (2, 1), (1, 2, 4), (2, 4)), -1),  # w1 of rank 3
    (((4, 2), (2,), (2, 4, 1), (4, 1)), -1),  # w2 of rank 3
    (((4, 2), (2,), (2, 4), (4,)), 2), (((4, 2), (2,), (2, 4), (4,)), -3)])
def test_residual_mlp_shape_error_names_residual_mlp(shapes, axis, h_grad, monkeypatch):
    h = Tensor(np.ones((5, 4)), requires_grad=h_grad)
    _assert_refused("residual_mlp", lambda: gc.residual_mlp(h, *(np.ones(s) for s in shapes),
                                                            axis=axis), monkeypatch)


@pytest.mark.parametrize("delta", [1.0, 0.3])
def test_huber_bit_equal_to_the_ten_node_chain(delta):
    """Forward bytes and x's adjoint, with x also read by a consumer of its
    own, at differences on and next to the branch edges and at a weight with
    zeros and fractional entries."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4, 5, 2)) * 1.5
    target = rng.normal(size=x.shape)
    edges = [delta, -delta, 0.0, -0.0, np.nextafter(delta, 0), -np.nextafter(delta, 0), 1e-310]
    target.reshape(-1)[:len(edges)] = 0.0
    x.reshape(-1)[:len(edges)] = edges
    target.reshape(-1)[10:12] = [delta, -delta]  # x - target is +-delta exactly
    x.reshape(-1)[10:12] = [2 * delta, -2 * delta]
    weight = rng.uniform(0.0, 1.0, size=x.shape[:-1])
    weight[0, 0, :3] = 0.0
    weight[1] = 0.0
    cot = rng.normal(size=x.shape[0])

    def loss(node):  # x's own consumer replays first, so x's adjoint sums in the chain's order
        return lambda x_: gc.add(gc.tsum(gc.mul(x_, 0.1)),
                                 gc.tsum(gc.mul(node(x_, target, weight, delta), cot)))

    assert gc.huber(x, target, weight, delta).data.tobytes() == \
        ref.huber_chain(x, target, weight, delta).data.tobytes()
    _, (g_prim,) = gc.grad(loss(gc.huber), [x])
    _, (g_chain,) = gc.grad(loss(ref.huber_chain), [x])
    assert g_prim.tobytes() == g_chain.tobytes()


def test_huber_bit_equal_to_the_chain_at_edges_on_each_plane():
    """Value and adjoint bytes match the chain with the edge cases on one
    coordinate plane at a time: d = +-0.0 and |d| exactly delta, a NaN
    target (its instance's value is NaN) and zero weights."""
    delta = 0.5
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 3, 5, 2))
    target = rng.normal(size=x.shape)
    for row, plane in ((0, 0), (1, 1)):
        x[0, row, :4, plane] = [0.0, -0.0, 2 * delta, -2 * delta]
        target[0, row, :4, plane] = [0.0, 0.0, delta, -delta]
    target[1, 2, 3, 0] = np.nan
    target[2, 0, 1, 1] = np.nan
    weight = rng.uniform(size=x.shape[:-1])
    weight[0, 2] = 0.0
    weight[3] = 0.0
    cot = rng.normal(size=x.shape[0])

    def value_and_adjoint(node):
        value = node(x, target, weight, delta).data
        _, (g,) = gc.grad(lambda x_: gc.tsum(gc.mul(node(x_, target, weight, delta), cot)), [x])
        return value, g

    value, g = value_and_adjoint(gc.huber)
    value_chain, g_chain = value_and_adjoint(ref.huber_chain)
    assert np.isnan(value).tolist() == [False, True, True, False]
    assert value.tobytes() == value_chain.tobytes()
    assert g.tobytes() == g_chain.tobytes()


def test_huber_linear_branch_beyond_delta():
    # per coordinate delta * (|d| - delta / 2) = 0.5 * (2 - 0.25); two coordinates
    out = gc.huber(np.full((1, 1, 2), 2.0), np.zeros((1, 1, 2)), np.ones((1, 1)), 0.5)
    assert out.data.tolist() == [pytest.approx(2 * 0.5 * (2.0 - 0.25))]


def test_huber_gradients_on_both_sides_of_delta():
    d = np.array([-2.0, -0.8, -0.2, 0.1, 0.5, 1.7, 0.59, -0.61]).reshape(2, 2, 2)
    target = np.random.default_rng(9).normal(size=d.shape)
    weight = np.array([[0.5, 1.0], [2.0, 0.25]])
    f = lambda x_: gc.tsum(gc.mul(gc.huber(x_, target, weight, 0.6), np.array([1.0, -0.7])))
    assert gc.grad_check(f, [d + target]) < 1e-8


@pytest.mark.parametrize("x_shape,target_shape,weight_shape", [
    ((2, 3, 3), (2, 3, 3), (2, 3)), ((2,), (2,), ()), ((2, 3, 2), (2, 3, 1), (2, 3)),
    ((2, 3, 2), (2, 3, 2), (2, 1)), ((2, 3, 2), (2, 3, 2), (2, 3, 2))],
    ids=["three-coordinates", "no-batch-axis", "target", "weight", "per-coordinate-weight"])
def test_huber_shape_error_names_huber(x_shape, target_shape, weight_shape):
    with pytest.raises(gc.ShapeError, match="^huber: "):
        gc.huber(np.ones(x_shape), np.ones(target_shape), np.ones(weight_shape), 1.0)


def _weighted_sq_listing_x_twice(x, target, weights):
    """weighted_sq's value with `x` listed twice, one square adjoint t each, so
    backward adds t and t into x's adjoint one after the other."""
    d, c = x.data - target, x.shape[3]
    t = lambda g: ((g * (1.0 / c))[:, None, None] * weights)[..., None] * d
    return _make(gc.weighted_sq(x.data, target, weights).data, (x, x), (t, t), "weighted_sq")


@pytest.mark.parametrize("nan_target", [False, True], ids=["finite", "nan-target"])
def test_weighted_sq_bit_equal_to_the_seven_node_chain(nan_target):
    """Value and adjoint bytes match the chain; at a NaN target too, whose
    adjoint NaN has the sign bit of the chain's x + -target."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 4, 5, 6))
    targets = rng.normal(size=(2, *x.shape))
    if nan_target:
        targets[0, 1, 2, 3, 4] = np.nan
    weights = rng.uniform(0.0, 2.0, size=x.shape[:3])
    weights[0, 0, :2] = 0.0
    cot = rng.normal(size=(2, 3))

    def loss(node):  # x read by two weighted errors and once more, as a rollout velocity is
        return lambda x_: gc.add(gc.tsum(gc.mul(x_, 0.3)), gc.add(
            gc.tsum(gc.mul(node(x_, targets[0], weights), cot[0])),
            gc.tsum(gc.mul(node(x_, targets[1], weights), cot[1]))))

    assert gc.weighted_sq(x, targets[0], weights).data.tobytes() == \
        ref.weighted_sq_chain(x, targets[0], weights).data.tobytes()
    _, (g_prim,) = gc.grad(loss(gc.weighted_sq), [x])
    _, (g_chain,) = gc.grad(loss(ref.weighted_sq_chain), [x])
    assert np.isnan(g_prim).any() == nan_target
    assert g_prim.tobytes() == g_chain.tobytes()
    # the inputs tell the one-contribution form from one that lists x twice
    _, (g_twice,) = gc.grad(loss(_weighted_sq_listing_x_twice), [x])
    assert g_twice.tobytes() != g_chain.tobytes()


@pytest.mark.parametrize("x_shape,target_shape,weights_shape", [
    ((2, 3, 4), (2, 3, 4), (2, 3)), ((2, 3, 4, 2), (2, 3, 4, 1), (2, 3, 4)),
    ((2, 3, 4, 2), (2, 3, 4, 2), (2, 3, 1)), ((2, 3, 4, 2), (2, 3, 4, 2), (2, 3, 4, 2))],
    ids=["rank-3", "target", "weights", "per-channel-weights"])
def test_weighted_sq_shape_error_names_weighted_sq(x_shape, target_shape, weights_shape):
    with pytest.raises(gc.ShapeError, match="^weighted_sq: "):
        gc.weighted_sq(np.ones(x_shape), np.ones(target_shape), np.ones(weights_shape))


# the VAE's four token regroups at desk shapes, batch 2: _patchify,
# _unpatchify, vae_encode's temporal compress and vae_decode's expand
VAE_REGROUPS = [
    ((2, 8, 32, 32, 2), (2, 8, 4, 8, 4, 8, 2), (0, 1, 2, 4, 3, 5, 6), (2, 8, 16, 128)),
    ((2, 8, 16, 128), (2, 8, 4, 4, 8, 8, 2), (0, 1, 2, 4, 3, 5, 6), (2, 8, 32, 32, 2)),
    ((2, 8, 16, 64), (2, 2, 4, 16, 64), (0, 1, 3, 2, 4), (2, 2, 16, 256)),
    ((2, 2, 16, 256), (2, 2, 16, 4, 64), (0, 1, 3, 2, 4), (2, 8, 16, 64)),
]


@pytest.mark.parametrize("shape,split,axes,out_shape", VAE_REGROUPS)
def test_regroup_bytes_equal_numpy_reshape_transpose_reshape(shape, split, axes, out_shape):
    rng = np.random.default_rng(13)
    a, g = rng.normal(size=shape), rng.normal(size=out_shape)
    out = gc.regroup(Tensor(a, requires_grad=True), split, axes, out_shape)
    moved = a.reshape(split).transpose(axes)
    assert out.shape == out_shape and out.data.tobytes() == moved.reshape(out_shape).tobytes()
    adjoint = out._vjps[0](g)
    want = g.reshape(moved.shape).transpose(np.argsort(axes)).reshape(shape)
    assert adjoint.shape == shape and adjoint.tobytes() == want.tobytes()


@pytest.mark.parametrize("split,axes,shape", [((3, 5), (1, 0), (5, 3)),
                                              ((3, 2, 2), (1, 0), (12,)),
                                              ((3, 2, 2), (1, 0, 2), (5, 2))])
def test_regroup_shape_error_names_regroup(split, axes, shape):
    with pytest.raises(gc.ShapeError, match="regroup"):
        gc.regroup(Tensor(np.ones((3, 4))), split, axes, shape)


@pytest.mark.parametrize("x_grad", [False, True])
@pytest.mark.parametrize("w_shape,b_shape", [((4, 2), (2,)), ((3, 2), (3,)), ((3, 2), (1, 2))])
def test_linear_shape_error_names_linear(w_shape, b_shape, x_grad, monkeypatch):
    x = Tensor(np.ones((5, 3)), requires_grad=x_grad)
    _assert_refused("linear", lambda: gc.linear(x, np.ones(w_shape), np.ones(b_shape)),
                    monkeypatch)


@pytest.mark.parametrize("x_grad", [False, True])
@pytest.mark.parametrize("x_shape", [(2, 3, 4), ()])
def test_linear_mixes_the_last_axis_only(x_shape, x_grad, monkeypatch):
    """A (3, 2) weight takes x's last axis of 3 and no other, and a 0-d x has none."""
    x = Tensor(np.ones(x_shape), requires_grad=x_grad)
    _assert_refused("linear", lambda: gc.linear(x, np.ones((3, 2)), np.ones(2)), monkeypatch)


def test_backward_sets_grad_on_wrt_only():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = gc.sigmoid(x)
    out = gc.tsum(ref.square(hidden))
    (gx,) = gc.backward(out, [x])
    assert x.grad is gx
    assert hidden.grad is None and out.grad is None


def test_backward_never_writes_into_an_aliased_first_adjoint():
    """x gets three adjoints; the first is c's own adjoint array, passed on by
    `add`, which is also the .grad of the intermediate wrt tensors c and a."""
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    cot = np.arange(1.0, 13.0).reshape(4, 3)  # small integers: every sum below is exact
    a = gc.mul(x, 2.0)
    b = gc.getitem(x, slice(1, 3))  # a slice contribution
    c = gc.add(x, gc.add(gc.tsum(b), a))  # c replays first; on this tape b's slice comes next
    gx, ga, gcc = gc.backward(gc.tsum(gc.mul(c, cot)), [x, a, c])
    ref = cot + 2.0 * cot
    ref[1:3] += cot.sum()
    assert np.array_equal(gx, ref)
    assert c.grad is gcc and np.array_equal(gcc, cot) and np.array_equal(ga, cot)


def test_zero_d_leaf_used_four_times():
    s = Tensor(np.array(1.5), requires_grad=True)
    v = np.arange(1.0, 7.0).reshape(2, 3)
    out = gc.add(gc.add(gc.add(gc.tsum(gc.mul(v, s)), gc.mul(s, s)), gc.mul(s, 4.0)), s)
    (gs,) = gc.backward(out, [s])
    assert np.ndim(gs) == 0
    assert gs == v.sum() + 2 * 1.5 + 4.0 + 1.0


def _shift_l1_inputs(seed, hop, axis, shape=(2, 5, 6, 7, 2)):
    """x, a target for its hop-difference and a bool weight with zeros in it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    n = list(shape)
    n[axis] -= hop
    weight = rng.random(n[:-1]) < 0.7
    return x, rng.normal(size=n), weight


@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("hop", [1, 2, 4])
def test_shift_l1_gradients(axis, hop):
    x, target, weight = _shift_l1_inputs(6, hop, axis)
    f = lambda x_: gc.tsum(gc.sigmoid(gc.shift_l1(x_, hop, axis, target, weight)))
    assert gc.grad_check(f, [x]) < 1e-4


@pytest.mark.parametrize("axis,hop", [(1, 1), (2, 2), (3, 4)])
def test_shift_diff_bit_equal_to_getitem_mul_add_chain(axis, hop):
    """The hop-difference shift_l1 takes is the getitem/mul/add chain's, bit for bit:
    with that chain's difference as target, every mismatch and its sign is exactly 0."""
    x = np.random.default_rng(7).normal(size=(2, 5, 6, 7, 2))
    lead = (slice(None),) * axis
    diff = gc.add(x[lead + (slice(hop, None),)], gc.mul(x[lead + (slice(None, -hop),)], -1.0))
    ones = np.ones(diff.shape[:-1], dtype=bool)
    assert np.array_equal(gc.shift_l1(x, hop, axis, diff.data, ones).data, np.zeros(2))
    _, (g,) = gc.grad(lambda x_: gc.tsum(gc.shift_l1(x_, hop, axis, diff.data, ones)), [x])
    assert np.array_equal(g, np.zeros_like(x))
    # one ulp off the chain in one entry is a nonzero mismatch
    off = diff.data.copy()
    off[(0,) * off.ndim] = np.nextafter(off[(0,) * off.ndim], np.inf)
    assert gc.shift_l1(x, hop, axis, off, ones).data[0] > 0


@pytest.mark.parametrize("nan_target", [False, True], ids=["finite", "nan-target"])
@pytest.mark.parametrize("axis,hop", [(1, 1), (2, 2), (3, 4)])
def test_shift_l1_bit_equal_to_masked_l1_chain(axis, hop, nan_target):
    """Value and adjoint bytes match the chain; at a NaN target too, whose
    adjoint NaN has the sign bit of the chain's diff + -target."""
    x, target, weight = _shift_l1_inputs(7, hop, axis)
    if nan_target:
        target[(1,) * target.ndim] = np.nan
        weight[(1,) * weight.ndim] = True
    cot = np.array([0.7, -1.3])
    t1, w1 = _shift_l1_inputs(8, 1, 1)[1:]

    def loss(node):  # x enters directly and through two differences, as in the VAE loss
        return lambda x_: gc.add(gc.tsum(gc.mul(ref.square(x_), 0.3)),
                                 gc.add(gc.tsum(gc.mul(node(x_, hop, axis, target, weight), cot)),
                                        gc.tsum(node(x_, 1, 1, t1, w1))))

    assert gc.shift_l1(x, hop, axis, target, weight).data.tobytes() == \
        ref.shift_l1_chain(x, hop, axis, target, weight).data.tobytes()
    _, (g_prim,) = gc.grad(loss(gc.shift_l1), [x])
    _, (g_chain,) = gc.grad(loss(ref.shift_l1_chain), [x])
    assert np.isnan(g_prim).any() == nan_target
    assert g_prim.tobytes() == g_chain.tobytes()


@pytest.mark.parametrize("requires_grad", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, np.int64])
def test_shift_l1_refuses_a_weight_that_is_not_bool(dtype, requires_grad):
    """A 0/1 weight of any other dtype is a TypeError naming shift_l1."""
    x, target, weight = _shift_l1_inputs(12, 1, 1)
    with pytest.raises(TypeError, match=f"^shift_l1: weight dtype {np.dtype(dtype)}, not bool$"):
        gc.shift_l1(Tensor(x, requires_grad=requires_grad), 1, 1, target, weight.astype(dtype))


@pytest.mark.parametrize("axis", [1, 2])
def test_shift_l1_hop_1_adjoint_bytes_equal_full_size_adds_in_tape_order(axis):
    """At hop 1 the two slices overlap in all but one row.  x also feeds a
    full-size consumer that replays first, so x's adjoint is that consumer's
    array plus the zero-padded hi and lo scatters, added in this order."""
    x, target, weight = _shift_l1_inputs(9, 1, axis)
    cot = np.random.default_rng(10).normal(size=x.shape)
    xt = Tensor(x, requires_grad=True)
    s = gc.tsum(gc.shift_l1(xt, 1, axis, target, weight))
    (g,) = gc.backward(gc.tsum(gc.mul(gc.mul(xt, s), cot)), [xt])  # mul(x, s) depends on s

    lead = (slice(None),) * axis
    hi, lo = lead + (slice(1, None),), lead + (slice(None, -1),)
    g_s = np.sum(cot * x)
    scaled = np.sign(x[hi] - x[lo] - target) * (weight * g_s)[..., None]
    add_hi, sub_lo = np.zeros(x.shape), np.zeros(x.shape)
    add_hi[hi] += scaled
    sub_lo[lo] -= scaled
    ref = cot * s.data + add_hi + sub_lo
    assert g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("hop,axis", [(0, 1), (-1, 1), (3, 1), (5, 2), (1, 3), (1, -4)])
def test_shift_l1_shape_error_names_shift_l1(hop, axis):
    with pytest.raises(gc.ShapeError, match="^shift_l1: "):
        gc.shift_l1(np.ones((2, 3, 4, 2)), hop, axis, np.ones((2, 2, 4, 2)),
                    np.ones((2, 2, 4), dtype=bool))


@pytest.mark.parametrize("bad", [
    {"hop": 1.0}, {"hop": True}, {"axis": 1.0}, {"target": np.ones((2, 3, 4, 2))},
    {"weight": np.ones((2, 2, 4, 1), dtype=bool)},
    {"a": np.ones((2, 3, 4, 3)), "target": np.ones((2, 2, 4, 3))}],
    ids=["float-hop", "bool-hop", "float-axis", "target", "weight", "three-channels"])
def test_shift_l1_rejects_bad_operands(bad):
    args = {"a": np.ones((2, 3, 4, 2)), "hop": 1, "axis": 1, "target": np.ones((2, 2, 4, 2)),
            "weight": np.ones((2, 2, 4), dtype=bool), **bad}
    with pytest.raises(gc.ShapeError, match="^shift_l1: "):
        gc.shift_l1(**args)


@pytest.mark.parametrize("name", ["huber", "weighted_sq", "shift_l1"])
def test_loss_nodes_compute_in_the_dtype_of_their_operand(name):
    """A float32 operand with a float64 target and weight gives a float32
    value and a float32 adjoint through backward."""
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(3, 4, 2, 2)).astype(np.float32), requires_grad=True)
    target, weight = rng.normal(size=(3, 4, 2, 2)), rng.random((3, 4, 2))
    out = {"huber": lambda: gc.huber(x, target, weight, 0.7),
           "weighted_sq": lambda: gc.weighted_sq(x, target, weight),
           "shift_l1": lambda: gc.shift_l1(x, 1, 1, target[:, 1:], weight[:, 1:] > 0.5)}[name]()
    (g,) = gc.backward(gc.tsum(out), [x])
    assert (out.dtype, g.dtype) == (np.float32, np.float32)


def test_gelu_matches_closed_form_into_the_tails():
    x = np.linspace(-8.0, 8.0, 4001)
    c = np.sqrt(2.0 / np.pi)
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))
    # atol: in the left tail 1 + tanh cancels, so one ulp of tanh is already a
    # relative 3e-13 of the output at x = -3.5 in any formula; the absolute gap
    # stays below 1e-15.
    np.testing.assert_allclose(gc.gelu(x).data, ref, rtol=1e-13, atol=1e-15)
    assert gc.grad_check(lambda x_: gc.tsum(gc.gelu(x_)), [x]) < 1e-4


GELU_EDGES = [0.0, -0.0, -40.0, 40.0, 1e-300, np.inf, -np.inf, np.nan, 1e300, -1e300]


def _gelu_grid(size):
    """`size` points: a grid into both tails with GELU_EDGES at each end."""
    grid = np.linspace(-12.0, 12.0, size - 2 * len(GELU_EDGES))
    return np.concatenate([GELU_EDGES, grid, GELU_EDGES[::-1]])


def _gelu_layouts():
    """(name, array) pairs: one chunk and less, then arrays of more than one
    chunk and not a multiple of it, contiguous and in the layouts gelu meets
    or could meet: a transposed view of a fresh product, a reversed view, a
    strided slice and a broadcast."""
    small = _gelu_grid(4811)
    n = 2 * tensor.CHUNK + 4811
    big = _gelu_grid(n)
    big[tensor.CHUNK - 5:tensor.CHUNK + 5] = GELU_EDGES  # across a chunk boundary
    moved = _gelu_grid(13 * 17 * 401).reshape(13, 17, 401).swapaxes(1, 2).copy().swapaxes(1, 2)
    return [("one-chunk", small), ("chunks", big), ("transposed", moved),
            ("reversed", big[::-1]), ("strided", _gelu_grid(2 * n)[::2]),
            ("broadcast", np.broadcast_to(small[:, None], (small.size, 15)))]


@pytest.mark.parametrize("name,x", _gelu_layouts(), ids=[n for n, _ in _gelu_layouts()])
def test_gelu_bytes_equal_the_closed_form_expression(name, x):
    """Forward and VJP bytes are those of the plain expressions, in their
    association order, on a grid into both tails with signed zeros,
    infinities, NaN and overflowing cubes, and a generic cotangent; the
    constant path gives the taped path's output bytes."""
    cot = np.random.default_rng(11).normal(size=x.shape)
    c = np.sqrt(2.0 / np.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        th = np.tanh(c * (x + 0.044715 * (x * x * x)))
        out = 0.5 * x * (1.0 + th)
        adj = cot * (0.5 * (1.0 + th)
                     + 0.5 * x * (1.0 - th * th) * (c * (1.0 + 3 * 0.044715 * x * x)))
        constant = gc.gelu(x).data
        taped = gc.gelu(Tensor(x, requires_grad=True)).data
        _, (g,) = gc.grad(lambda x_: gc.tsum(gc.mul(gc.gelu(x_), cot)), [x])
    assert constant.shape == taped.shape == x.shape
    assert constant.tobytes() == taped.tobytes() == out.tobytes()
    assert g.tobytes() == adj.tobytes()


def _getitem_grad(x, key, cot):
    _, (g,) = gc.grad(lambda x_: gc.tsum(gc.mul(gc.getitem(x_, key), cot)), [x])
    return g


BASIC_KEYS = [
    slice(1, 4), slice(None, None, -1), slice(4, 0, -2), slice(-2, None), 2, -1, np.int64(3),
    None, Ellipsis, (1, slice(None, None, -1)), (Ellipsis, 0), (None, slice(1, 3), Ellipsis, -2),
    (slice(None), None, 1), (0, 1, slice(2, None)),
]


@pytest.mark.parametrize("key", BASIC_KEYS, ids=repr)
def test_getitem_basic_key_gradient_is_add_at_bit_for_bit(key):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 4, 6))
    cot = rng.normal(size=x[key].shape)
    cot.flat[::3] = -0.0  # signed zeros: 0 + -0 is +0 in both scatters
    assert _is_basic_key(key)
    ref = np.zeros(x.shape)
    np.add.at(ref, key, cot)
    assert _getitem_grad(x, key, cot).tobytes() == ref.tobytes()


# advanced keys copy, a[True] too (bool subclasses int), and all-int keys leave a scalar
NON_VIEW_KEYS = [np.array([0, 3, 0, 0]), [0, 2], np.array(2), True, np.True_, (True, 1), False,
                 (0, 1, 2), (-1, 0, -2)]


@pytest.mark.parametrize("requires_grad", [False, True])
@pytest.mark.parametrize("key", NON_VIEW_KEYS, ids=repr)
def test_getitem_refuses_a_key_that_is_no_view_with_an_axis(key, requires_grad):
    x = Tensor(np.arange(120.0).reshape(5, 4, 6), requires_grad=requires_grad)
    with pytest.raises(ValueError, match=r"^getitem: key .* is not a view with an axis$"):
        gc.getitem(x, key)
    with pytest.raises(ValueError, match="^getitem: "):
        x[key]


class TestOptim:
    def test_zero_gradients_are_a_fixed_point(self):
        params = {"w": np.array([1.0, -2.0])}
        state = gc.optim_init(params, lr=0.1)
        out = gc.optim_step(params, {"w": np.zeros(2)}, state)
        assert np.all(out["w"] == params["w"])
        assert state.step == 1

    def test_positive_gradient_decreases_parameter(self):
        params = {"w": np.array([1.0])}
        state = gc.optim_init(params, lr=0.05)
        out = gc.optim_step(params, {"w": np.array([0.7])}, state)
        assert out["w"][0] < 1.0

    def test_three_step_trace_matches_scalar_reference(self):
        # Independent scalar re-implementation of the update rule.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads_seq = [0.3, -0.2, 0.05]
        p_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        for t, g in enumerate(grads_seq, start=1):
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            mh = m_ref / (1 - b1 ** t)
            vh = v_ref / (1 - b2 ** t)
            p_ref = p_ref - lr * (mh / (vh ** 0.5 + eps))

        params = {"w": np.array([1.0])}
        state = gc.optim_init(params, lr=lr)
        for g in grads_seq:
            params = gc.optim_step(params, {"w": np.array([g])}, state)
        assert params["w"][0] == pytest.approx(p_ref, rel=1e-12)

    @pytest.mark.parametrize("clip_norm", [0.0, 0.5, 1e9])
    def test_bytes_equal_the_per_array_reference(self, clip_norm):
        """Params, moments and param types over six steps, on arrays whose
        sizes put chunk boundaries inside them, with the clip off, active and
        never reached, and a rate that changes between steps."""
        c = tensor.CHUNK
        shapes = {"a": (c - 1,), "alpha": (), "b": (3, 7), "c": (2, c // 2 + 5), "d": (1,)}
        rng = np.random.default_rng(17)
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref_params, m, v = dict(params), {}, {}
        for k, p in params.items():
            m[k], v[k] = np.zeros_like(p), np.zeros_like(p)
        state = gc.optim_init(params, lr=0.01, clip_norm=clip_norm)
        for t in range(1, 7):
            state.lr = 0.01 / t
            grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-3, 3) for k, s in shapes.items()}
            params = gc.optim_step(params, grads, state)
            ref_params = ref.adam_step(ref_params, grads, m, v, t, 0.01 / t, clip_norm)
            for k in shapes:
                assert type(params[k]) is type(ref_params[k]), k  # a 0-d param is a numpy scalar
                assert np.asarray(params[k]).tobytes() == np.asarray(ref_params[k]).tobytes(), k
                assert state.m[k].tobytes() == m[k].tobytes(), k
                assert state.v[k].tobytes() == v[k].tobytes(), k

    def test_nonfinite_gradient_rejected_without_partial_update(self):
        params = {"a": np.array([1.0]), "b": np.array([2.0])}
        state = gc.optim_init(params, lr=0.1)
        with pytest.raises(FloatingPointError):
            gc.optim_step(params, {"a": np.array([0.1]), "b": np.array([np.nan])}, state)
        assert state.step == 0
        assert np.all(state.m["a"] == 0.0)

    def test_global_norm_clip(self):
        params = {"w": np.array([0.0, 0.0])}
        state = gc.optim_init(params, lr=1.0, clip_norm=1.0)
        g = {"w": np.array([3.0, 4.0])}
        gc.optim_step(params, g, state)
        # Clipped gradient has norm 1, so first moments reflect (0.06, 0.08).
        assert np.allclose(state.m["w"], 0.1 * np.array([0.6, 0.8]))


class TestRng:
    def test_same_seed_identical_sequence(self):
        a = gc.rng(123).draw_normal(100)
        b = gc.rng(123).draw_normal(100)
        assert np.array_equal(a, b)

    def test_normal_moments(self):
        draws = gc.rng(0).draw_normal(1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    def test_uniform_range(self):
        draws = gc.rng(1).draw_uniform(10_000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)

    def test_spawned_streams_are_deterministic(self):
        a = gc.rng(5).spawn(3)[1].draw_uniform(4)
        b = gc.rng(5).spawn(3)[1].draw_uniform(4)
        assert np.array_equal(a, b)
