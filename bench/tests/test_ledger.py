"""The ledger adds up, survives renamed names, and is thread-safe."""

import sys
import threading
import time
import types

import pytest

from bench.ledger import OTHER, Hook, Ledger, install


@pytest.fixture
def fake_module():
    """A stand-in program: ``outer`` calls ``inner`` twice."""
    mod = types.ModuleType("bench_fake_program")

    def inner(x):
        time.sleep(0.002)
        return x

    def outer(x):
        time.sleep(0.001)
        return mod.inner(x) + mod.inner(x)

    def root_call(x):
        return mod.outer(x)

    mod.inner, mod.outer, mod.root_call = inner, outer, root_call
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


HOOKS = (
    Hook("bench_fake_program", "outer", "outer"),
    Hook("bench_fake_program", "inner", "inner"),
)


def test_self_times_add_up_to_wall_time(fake_module):
    ledger = Ledger()
    installed = install(ledger, HOOKS)
    try:
        for _ in range(5):
            with ledger.op("compress"):
                time.sleep(0.001)
                fake_module.outer(1)
    finally:
        installed.restore()
    booked = {layer: s for (op, layer), s in ledger.self_s.items()
              if op == "compress"}
    assert set(booked) == {OTHER, "outer", "inner"}
    assert all(s > 0 for s in booked.values())
    assert sum(booked.values()) == pytest.approx(ledger.root_s["compress"],
                                                 rel=1e-9)
    assert ledger.roots["compress"] == 5
    assert ledger.calls["bench_fake_program.inner"] == 10
    # inner sleeps 2 ms per call, twice per op: its self time dominates
    assert booked["inner"] > booked["outer"]


def test_calls_outside_a_root_pass_through(fake_module):
    ledger = Ledger()
    installed = install(ledger, HOOKS)
    try:
        assert fake_module.outer(3) == 6
    finally:
        installed.restore()
    assert not ledger.self_s and not ledger.calls


def test_missing_names_are_reported_not_raised(fake_module):
    original = fake_module.outer
    hooks = HOOKS + (
        Hook("bench_fake_program", "renamed_away", "gone"),
        Hook("bench_no_such_module", "anything", "gone"),
    )
    installed = install(Ledger(), hooks)
    assert installed.missing == ["bench_fake_program.renamed_away",
                                 "bench_no_such_module.anything"]
    assert fake_module.outer is not original
    installed.restore()
    assert fake_module.outer is original


def test_root_hooks_from_many_threads(fake_module):
    """Serve shards call root hooks concurrently: no update is lost."""
    ledger = Ledger()
    hooks = HOOKS + (Hook("bench_fake_program", "root_call", OTHER,
                          op="decompress"),)
    installed = install(ledger, hooks)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker():
            for _ in range(20):
                fake_module.root_call(1)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
        installed.restore()
    assert ledger.roots["decompress"] == 120
    assert ledger.calls["bench_fake_program.inner"] == 240
    booked = sum(s for (op, _), s in ledger.self_s.items() if op == "decompress")
    assert booked == pytest.approx(ledger.root_s["decompress"], rel=1e-9)


def test_snapshot_is_frozen(fake_module):
    ledger = Ledger()
    installed = install(ledger, HOOKS)
    try:
        with ledger.op("compress"):
            fake_module.outer(1)
        snap = ledger.snapshot()
        with ledger.op("compress"):
            fake_module.outer(1)
    finally:
        installed.restore()
    assert snap.roots["compress"] == 1
    assert ledger.roots["compress"] == 2
