"""Self times of a span tree add up to the root's duration."""

import time

from tracer import Tracer, within_tolerance


class Box:
    def work(self, seconds):
        time.sleep(seconds)
        return seconds


def test_self_times_partition_the_root():
    tracer = Tracer()
    box = Box()
    tracer.wrap(box, "work", "box.work", attrs_of=lambda seconds: {"seconds": seconds})
    began = time.perf_counter()
    with tracer.span("root") as root:
        box.work(0.01)
        with tracer.span("inner"):
            box.work(0.02)
    stopwatch = time.perf_counter() - began

    spans = tracer.tree(root)
    own = tracer.self_time_by_name(spans)
    assert [span.name for span in spans] == ["root", "box.work", "inner", "box.work"]
    assert abs(sum(own.values()) - root.duration) < 1e-9
    assert own["box.work"] >= 0.03
    assert within_tolerance(sum(own.values()), stopwatch)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("root") as root:
        pass
    assert root is None and tracer.spans == []
