from spans import Tracer, self_times


def test_self_time_is_duration_minus_children():
    #      0 ns          100
    # root |---------------|            self = 100 - 60 - 10 = 30
    #  a     |------|  10..70           self = 60 - 20 = 40
    #  b       |--|    20..40           self = 20
    #  a              |-| 80..90        self = 10
    names = ["root", "a", "b"]
    name = [0, 1, 2, 1]
    start = [0, 10, 20, 80]
    end = [100, 70, 40, 90]
    parent = [-1, 0, 1, 0]
    result = self_times(names, name, start, end, parent)
    assert result == {"root": (1, 100, 30), "a": (2, 70, 50), "b": (1, 20, 20)}
    # Self times add up to the traced interval exactly.
    assert sum(own for _n, _t, own in result.values()) == 100


class _Layer:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i * 2


def test_wrapped_methods_record_parent_child_and_cycle_and_unwrap():
    tracer = Tracer()
    original = _Layer.__dict__["outer"]
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner")
    tracer.cycle = 7
    with tracer.span("harness.call"):
        assert _Layer().outer(3) == 6
    tracer.unwrap_all()
    assert _Layer.__dict__["outer"] is original

    names = [tracer.names[i] for i in tracer.name]
    assert names == ["harness.call", "layer.outer"] + ["layer.inner"] * 3
    assert tracer.parent == [-1, 0, 1, 1, 1]
    assert set(tracer.cycle_of) == {7}
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    times = tracer.self_times()
    assert times["layer.inner"][0] == 3
    count, total, own = times["layer.outer"]
    assert own == total - times["layer.inner"][1]
    whole = tracer.end[0] - tracer.start[0]
    assert sum(own for _c, _t, own in times.values()) == whole


def test_a_raising_call_still_closes_its_span():
    class Boom:
        def go(self):
            raise KeyError("x")

    tracer = Tracer()
    tracer.wrap(Boom, "go", "boom.go")
    try:
        Boom().go()
    except KeyError:
        pass
    finally:
        tracer.unwrap_all()
    assert tracer.end[0] >= tracer.start[0] > 0
    assert not tracer._open
