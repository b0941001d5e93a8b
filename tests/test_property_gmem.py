"""Property-based tests for the DSM: random operation sequences against a
plain numpy mirror, under both coherence policies."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dse import Cluster, ClusterConfig, ParallelAPI
from repro.hardware import get_platform
from repro.protocol import fragment_sizes
from repro.protocol.packet import UDP_HEADER_BYTES
from repro.resilience import ResilienceConfig

TOTAL_WORDS = 2048
BLOCK_WORDS = 32


def _op_strategy():
    addr = st.integers(min_value=0, max_value=TOTAL_WORDS - 1)
    count = st.integers(min_value=1, max_value=64)
    kind = st.sampled_from(["read", "write"])
    return st.tuples(kind, addr, count)


def _run_ops(policy, ops):
    """Drive random reads/writes from the master; mirror with numpy."""
    config = ClusterConfig(
        platform=get_platform("linux"),
        n_processors=3,
        coherence=policy,
        total_gm_words=TOTAL_WORDS,
        block_words=BLOCK_WORDS,
    )
    cluster = Cluster(config)
    mirror = np.zeros(TOTAL_WORDS)
    mismatches = []

    def master():
        api = ParallelAPI(cluster.kernel(0), 0)
        counter = 0.0
        for kind, addr, count in ops:
            count = min(count, TOTAL_WORDS - addr)
            if kind == "write":
                counter += 1.0
                values = np.arange(count, dtype=float) + counter
                yield from api.gm_write(addr, values)
                mirror[addr : addr + count] = values
            else:
                data = yield from api.gm_read(addr, count)
                if not np.array_equal(data, mirror[addr : addr + count]):
                    mismatches.append((kind, addr, count))
        yield from cluster.shutdown_from(0)

    cluster.sim.process(master())
    cluster.sim.run_all()
    return mismatches


@given(ops=st.lists(_op_strategy(), min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_home_policy_matches_numpy_mirror(ops):
    assert _run_ops("home", ops) == []


@given(ops=st.lists(_op_strategy(), min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_cache_policy_matches_numpy_mirror(ops):
    assert _run_ops("cache", ops) == []


@given(
    addr=st.integers(min_value=0, max_value=TOTAL_WORDS - 1),
    count=st.integers(min_value=1, max_value=TOTAL_WORDS),
)
@settings(max_examples=100, deadline=None)
def test_home_runs_partition_exactly(addr, count):
    """home_runs must partition [addr, addr+count) with no gaps/overlaps
    and consistent home assignment."""
    count = min(count, TOTAL_WORDS - addr)
    cluster = Cluster(
        ClusterConfig(
            platform=get_platform("linux"),
            n_processors=4,
            total_gm_words=TOTAL_WORDS,
            block_words=BLOCK_WORDS,
        )
    )
    gm = cluster.kernel(0).gmem
    runs = gm.home_runs(addr, count)
    pos = addr
    for home, start, n in runs:
        assert start == pos and n > 0
        assert gm.home_of(start) == home
        assert gm.home_of(start + n - 1) == home
        pos += n
    assert pos == addr + count
    # adjacent runs have different homes (maximal coalescing)
    for (h1, _, _), (h2, _, _) in zip(runs, runs[1:]):
        assert h1 != h2


# ------------------------------------------------- home-slice storage contract
SLICE_WORDS = 1024  # kernel 0's slice of TOTAL_WORDS over two kernels


def _tracked_cluster(n_processors=2, total_words=TOTAL_WORDS):
    """A resilient cluster: its managers track the high-water mark."""
    return Cluster(
        ClusterConfig(
            platform=get_platform("linux"),
            n_processors=n_processors,
            total_gm_words=total_words,
            block_words=BLOCK_WORDS,
            resilience=ResilienceConfig(),
        )
    )


def _storage_op_strategy():
    lo = st.integers(min_value=0, max_value=SLICE_WORDS - 1)
    count = st.integers(min_value=1, max_value=200)
    return st.one_of(
        st.tuples(st.just("write"), lo, count),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("lose")),
    )


@given(ops=st.lists(_storage_op_strategy(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_home_slice_matches_dense_reference(ops):
    """Local writes, checkpoints, rollbacks and crashes leave the home slice
    exactly as a dense zero-initialised array would be."""
    gm = _tracked_cluster().kernel(0).gmem
    assert gm._track_hw and len(gm.storage) == SLICE_WORDS
    ref = np.zeros(SLICE_WORDS)
    hw = 0
    snaps = [np.zeros(0)]
    for step, op in enumerate(ops):
        if op[0] == "write":
            lo = op[1]
            values = np.arange(min(op[2], SLICE_WORDS - lo), dtype=float) + step + 1
            gm._local_write(gm.my_lo + lo, values)
            ref[lo : lo + len(values)] = values
            hw = max(hw, lo + len(values))
        elif op[0] == "snapshot":
            snaps.append(gm.snapshot_slice())
        elif op[0] == "restore":
            snap = snaps[op[1] % len(snaps)]
            gm.restore_slice(snap)
            ref[:] = 0.0
            ref[: len(snap)] = snap
            hw = len(snap)
        else:
            gm.lose_memory()
            ref[:] = 0.0
            hw = 0
        assert gm.storage.tobytes() == ref.tobytes()
        assert gm.snapshot_slice().tobytes() == ref[:hw].tobytes()
        assert gm._hw == hw


def test_fresh_slices_are_writable_zero_float64():
    """Every fresh slice is a writable, all-zero float64 array of its full
    length, including the empty slices past the end of global memory."""
    # 64 words over four kernels in 32-word blocks: kernels 2 and 3 own none.
    cluster = _tracked_cluster(n_processors=4, total_words=64)
    lengths = []
    for kernel in cluster.kernels:
        storage = kernel.gmem.storage
        lengths.append(len(storage))
        assert storage.dtype == np.float64 and storage.flags.writeable
        assert not storage.any()
        storage[:] = 1.0
        assert storage.sum() == len(storage)
    assert lengths == [32, 32, 0, 0]


@given(payload=st.integers(min_value=0, max_value=200_000))
@settings(max_examples=200)
def test_fragment_sizes_properties(payload):
    sizes = fragment_sizes(payload)
    assert sum(sizes) == payload or (payload == 0 and sizes == [0])
    usable = 1500 - UDP_HEADER_BYTES
    assert all(0 <= s <= usable for s in sizes)
    # minimal fragment count
    import math

    expected = max(1, math.ceil(payload / usable))
    assert len(sizes) == expected
