"""Span bookkeeping: self times, totals, and installing wrappers."""

import types

import pytest

from bench.spans import Installation, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(tracer, clock, name, t0, t1, body=None):
    clock.now = t0
    idx = tracer.open(name)
    if body:
        body()
    clock.now = t1
    tracer.close(idx)
    return idx


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock)

    def root_body():
        _span(tr, clock, "a", 1, 4, lambda: _span(tr, clock, "b", 2, 3))
        _span(tr, clock, "c", 5, 9)

    _span(tr, clock, "root", 0, 10, root_body)
    names = [tr.name(i) for i in range(len(tr))]
    selfs = dict(zip(names, tr.self_times()))
    assert selfs == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert [tr.parent[i] for i in range(len(tr))] == [-1, 0, 1, 0]


def test_recursive_spans_of_one_name():
    clock = FakeClock()
    tr = Tracer(clock)
    _span(tr, clock, "f", 0, 10,
          lambda: _span(tr, clock, "f", 2, 6, lambda: _span(tr, clock, "f", 3, 4)))
    assert tr.self_times() == [6.0, 3.0, 1.0]
    tot = tr.totals()
    assert tot["f"]["calls"] == 3
    assert tot["f"]["self_s"] == 10.0


def test_self_times_of_a_window_ignore_parents_outside_it():
    clock = FakeClock()
    tr = Tracer(clock)
    _span(tr, clock, "x", 0, 1)
    _span(tr, clock, "outer", 2, 8, lambda: _span(tr, clock, "inner", 3, 5))
    assert tr.self_times(1) == [4.0, 2.0]
    assert tr.self_times(2) == [2.0]


def test_totals_sum_counts_and_max_keys():
    clock = FakeClock()
    tr = Tracer(clock)
    for dim in (3, 7, 5):
        idx = _span(tr, clock, "g", 0, 1)
        tr.attrs[idx] = {"nnz": dim, "max_dim": dim}
    tot = tr.totals(max_keys=("max_dim",))["g"]
    assert tot["nnz"] == 15 and tot["max_dim"] == 7 and tot["calls"] == 3


def test_close_out_of_order_is_an_error():
    tr = Tracer()
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def _fake_module():
    mod = types.ModuleType("fake")
    exec("def fact(n):\n    return 1 if n <= 1 else n * fact(n - 1)\n", mod.__dict__)
    user = types.ModuleType("fake_user")
    user.fact = mod.fact
    user.alias = mod.fact
    return mod, user


def test_function_is_rebound_everywhere_and_restored():
    mod, user = _fake_module()
    original = mod.fact
    tr = Tracer()
    inst = Installation()
    hits = inst.function(tr, "fact", original, [mod, user],
                         counter=lambda args, result: {"n": args[0]})
    assert hits == 3
    assert user.alias(4) == 24
    # the recursion goes through the module global, so every level is a span
    assert [tr.name(i) for i in range(len(tr))] == ["fact"] * 4
    assert [tr.parent[i] for i in range(len(tr))] == [-1, 0, 1, 2]
    assert tr.totals()["fact"]["n"] == 4 + 3 + 2 + 1
    inst.uninstall()
    assert mod.fact is original and user.fact is original and user.alias is original


def test_method_is_wrapped_on_the_class_and_restored():
    class Box:
        def __init__(self, v):
            self.v = v

        def __matmul__(self, other):
            return Box(self.v * other.v)

    original = Box.__dict__["__matmul__"]
    tr = Tracer()
    inst = Installation()
    inst.method(tr, "box.matmul", Box, "__matmul__")
    assert (Box(2) @ Box(3)).v == 6
    assert tr.totals()["box.matmul"]["calls"] == 1
    inst.uninstall()
    assert Box.__dict__["__matmul__"] is original


def test_unbound_function_is_refused():
    with pytest.raises(LookupError):
        Installation().function(Tracer(), "nothing", len, [types.ModuleType("empty")])


def test_inactive_tracer_records_nothing():
    mod, user = _fake_module()
    tr = Tracer()
    inst = Installation()
    inst.function(tr, "fact", mod.fact, [mod, user])
    tr.active = False
    assert user.fact(5) == 120
    tr.active = True
    assert len(tr) == 0
    inst.uninstall()
