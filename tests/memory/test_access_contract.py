"""The accounted-access contract every memory kind shares (DESIGN.md section 8).

Precise, PCM and spintronic arrays run one body of every access; they
differ only in how a write is stored.  Each access must move exactly its
element count in the array's own region and no other counter, and
``clone_empty`` must allocate in the same memory.  The last test guards the
benchmark's ledger, which times memory-layer methods it finds by name in
the class bodies.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats

N = 32

#: name -> (call, reads, writes) charged to the array's own region.
ACCESSES = {
    "read": (lambda a: a.read(3), 1, 0),
    "read_block": (lambda a: a.read_block(2, 5), 5, 0),
    "read_block_np": (lambda a: a.read_block_np(1, 6), 6, 0),
    "gather_np": (lambda a: a.gather_np(np.array([0, 7, 7, 2])), 4, 0),
    "record_reads": (lambda a: a.record_reads(9), 9, 0),
    "write_block_list": (lambda a: a.write_block(1, [5, 6, 7]), 0, 3),
    "write_block_array": (
        lambda a: a.write_block(4, np.arange(40, 60, dtype=np.uint32)), 0, 20,
    ),
    "scatter_np": (
        lambda a: a.scatter_np(np.array([3, 1, 3]), np.array([9, 8, 7])), 0, 3,
    ),
    "load_from": (
        lambda a: a.load_from(PreciseArray(range(100, 100 + N))), 0, N,
    ),
}


@pytest.fixture(params=["precise", "pcm_0.055", "pcm_0.1", "spintronic"])
def make(request):
    """A maker of arrays of one memory kind over a given MemoryStats."""
    factory = {
        "precise": None,
        "pcm_0.055": "pcm_sweet",
        "pcm_0.1": "pcm_aggressive",
        "spintronic": "stt_heavy",
    }[request.param]
    if factory is None:
        return lambda data, stats: PreciseArray(data, stats=stats)
    memory = request.getfixturevalue(factory)
    return lambda data, stats: memory.make_array(data, stats=stats, seed=5)


@pytest.mark.parametrize("access", list(ACCESSES))
def test_access_moves_only_its_own_counters(make, access):
    call, reads, writes = ACCESSES[access]
    stats = MemoryStats()
    array = make(range(N), stats)
    call(array)
    approx = array.region == "approx"
    moved = stats.as_dict()
    units = moved.pop("approx_write_units")
    corrupted = moved.pop("corrupted_writes")
    assert moved == {
        "precise_reads": 0 if approx else reads,
        "precise_writes": 0 if approx else writes,
        "approx_reads": reads if approx else 0,
        "approx_writes": writes if approx else 0,
    }
    if approx and writes:
        assert 0.0 < units < np.inf
        assert 0 <= corrupted <= writes
    else:
        assert (units, corrupted) == (0.0, 0)


def test_reads_return_the_stored_words(make):
    array = make(range(N), MemoryStats())
    assert array.read(3) == 3
    assert array.read_block(2, 3) == [2, 3, 4]
    assert array.read_block_np(5, 2).tolist() == [5, 6]
    assert array.gather_np(np.array([9, 0, 9])).tolist() == [9, 0, 9]
    assert array.peek_block_np(30, 2).tolist() == [30, 31]


def test_precise_writes_store_verbatim():
    array = PreciseArray([0] * 8)
    array.write_block(0, [1, 2])
    array.write_block(2, np.array([3, 4], dtype=np.uint32))
    array.scatter_np(np.array([7, 6, 7]), np.array([5, 6, 8]))
    source = PreciseArray(range(10, 18))
    clone = array.clone_empty()
    clone.load_from(source)
    assert array.to_list() == [1, 2, 3, 4, 0, 0, 6, 8]
    assert clone.to_list() == list(range(10, 18))


def test_clone_empty_is_the_same_kind(make):
    stats = MemoryStats()
    array = make(range(N), stats)
    clone = array.clone_empty(5, name="scratch")
    assert type(clone) is type(array)
    assert clone.stats is stats
    assert getattr(clone, "model", None) is getattr(array, "model", None)
    assert getattr(clone, "precise_iterations", None) == getattr(
        array, "precise_iterations", None
    )
    assert (clone.region, clone.name, clone.to_list()) == (
        array.region, "scratch", [0] * 5
    )
    assert stats.as_dict() == MemoryStats().as_dict()


def test_benchmark_ledger_finds_its_entry_points_by_name():
    """``benchmarks/e2e/ledger.py`` wraps ``cls.__dict__[name]``: a method
    that moved into a base class would break the benchmark's traced run."""
    path = Path(__file__).resolve().parents[2] / "benchmarks/e2e/ledger.py"
    spec = importlib.util.spec_from_file_location("e2e_ledger", path)
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    points = ledger.entry_points()
    assert points
    for cls, name, _family in points:
        assert name in cls.__dict__, f"{cls.__name__}.{name}"
