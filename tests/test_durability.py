"""Tests for repro.durability (WAL, checkpoints, recovery, time travel).

The contracts, each asserted as an *exact* equality where the design
promises one:

* **frame integrity** — every WAL frame round-trips bit-identically
  (plan unions and panels compared through their int64 views);
* **damage semantics** — flipping or truncating *any* byte of the log
  yields either a bit-identical recovery of a prefix of history or a
  clean :class:`CorruptLogError` — never silent divergence (property
  test over seeded random damage);
* **crash-restart bit-identity** — a service SIGKILL'd mid-stream
  recovers bit-identical to an in-memory oracle replay, both in-process
  (simulated: no close) and as a real subprocess kill;
* **time travel** — ``top_k_at(version)`` equals a brute-force ranking
  of the oracle's score matrix at every retained version, and
  ``score_at`` matches entry-wise;
* **retention** — versions behind the oldest retained checkpoint raise
  :class:`HistoryUnavailableError`, as do future versions.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import SimRankConfig
from repro.durability import (
    KIND_ADD_NODE,
    KIND_DRAIN,
    WriteAheadLog,
    decode_frames,
    encode_add_node_frame,
    encode_drain_frame,
    graph_from_packed,
    list_checkpoints,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
    write_manifest,
)
from repro.durability import reaper
from repro.durability.manager import DurabilityManager
from repro.exceptions import (
    ConfigError,
    CorruptLogError,
    HistoryUnavailableError,
)
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.incremental.engine import DynamicSimRank
from repro.metrics.topk import top_k_pairs
from repro.serving import DurabilityConfig, ServiceConfig, SimRankService
from repro.simrank.matrix import matrix_simrank

CFG = SimRankConfig(damping=0.6, iterations=7)

pytestmark = pytest.mark.usefixtures("manifest_guard")


def _update_stream(graph, num_batches, per_batch, seed):
    """Seeded mixed insert/delete batches valid against ``graph``."""
    edges = set(graph.edges())
    n = graph.num_nodes
    rng = random.Random(seed)
    batches = []
    for _ in range(num_batches):
        batch = []
        seen = set()
        while len(batch) < per_batch:
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            if (a, b) in edges:
                batch.append(EdgeUpdate.delete(a, b))
                edges.discard((a, b))
            else:
                batch.append(EdgeUpdate.insert(a, b))
                edges.add((a, b))
        batches.append(batch)
    return batches


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi_digraph(30, 0.1, seed=17)
    scores = matrix_simrank(graph, CFG)
    return graph, scores, _update_stream(graph, 8, 4, seed=19)


def _drain_frames(workload):
    """Real (version, row_updates, plan) triples from engine drains."""
    graph, scores, batches = workload
    engine = DynamicSimRank(
        graph.copy(), CFG, algorithm="inc-sr", initial_scores=scores.copy()
    )
    triples = []
    for batch in batches:
        engine.apply_consolidated(UpdateBatch(batch))
        row_updates, plan = engine.take_last_drain()
        triples.append((engine.version, row_updates, plan))
    return triples


def _crash(service):
    """Stop ``service`` as a SIGKILL would: release only the data-dir
    lock, with no shutdown checkpoint or flush (fsync=off forced nothing
    to disk anyway), so the next open replays the WAL."""
    service.durability.close()
    service._durability = None
    service.close()


def _assert_plans_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.target == b.target
        assert np.array_equal(a.rows_union, b.rows_union)
        assert np.array_equal(a.cols_union, b.cols_union)
        for x, y in zip(a.panels(), b.panels()):
            # int64 views compare float words bit-exactly (NaN-proof).
            assert x.shape == y.shape
            assert np.array_equal(x.view(np.int64), y.view(np.int64))


def _assert_frames_equal(got, expected):
    assert got.kind == expected.kind
    assert got.version == expected.version
    if got.kind == KIND_ADD_NODE:
        assert got.node == expected.node
        assert got.num_nodes == expected.num_nodes
        return
    assert got.row_updates == expected.row_updates
    _assert_plans_equal(got.plans, expected.plans)


# ------------------------------------------------------------------ #
# WAL framing + segments
# ------------------------------------------------------------------ #


class TestWalFrames:
    def test_batch_frame_roundtrip_bit_identical(self, workload):
        triples = _drain_frames(workload)
        buffer = b"".join(
            encode_drain_frame(v, ru, plan) for v, ru, plan in triples
        )
        frames, good = decode_frames(buffer, final_segment=True)
        assert good == len(buffer)
        assert len(frames) == len(triples)
        for frame, (version, row_updates, plan) in zip(frames, triples):
            assert frame.kind == KIND_DRAIN
            assert frame.version == version
            assert frame.row_updates == tuple(row_updates)
            _assert_plans_equal(frame.plans, () if plan is None else (plan,))

    def test_add_node_frame_roundtrip(self):
        record = encode_add_node_frame(9, 40, 41)
        frames, good = decode_frames(record, final_segment=True)
        assert good == len(record)
        (frame,) = frames
        assert frame.kind == KIND_ADD_NODE
        assert (frame.version, frame.node, frame.num_nodes) == (9, 40, 41)

    def test_append_reopen_resumes(self, workload, tmp_path):
        triples = _drain_frames(workload)
        wal = WriteAheadLog(str(tmp_path), fsync="off")
        wal.open_for_append(0)
        for version, ru, plan in triples[:4]:
            wal.append(encode_drain_frame(version, ru, plan), version)
        wal.close()
        wal = WriteAheadLog(str(tmp_path), fsync="off")
        assert [f.version for f in wal.frames()] == [1, 2, 3, 4]
        wal.open_for_append(4)
        for version, ru, plan in triples[4:]:
            wal.append(encode_drain_frame(version, ru, plan), version)
        assert [f.version for f in wal.frames()] == list(range(1, 9))
        assert [f.version for f in wal.frames(after_version=5)] == [6, 7, 8]
        assert [
            f.version for f in wal.frames(through_version=3)
        ] == [1, 2, 3]
        wal.close()

    def test_rotation_and_prune(self, workload, tmp_path):
        triples = _drain_frames(workload)
        wal = WriteAheadLog(str(tmp_path), fsync="off", rotate_bytes=1)
        wal.open_for_append(0)
        for version, ru, plan in triples:
            wal.append(encode_drain_frame(version, ru, plan), version - 1)
        # rotate_bytes=1 forces one frame per segment (after the first).
        assert len(wal.segments) == len(triples)
        assert [f.version for f in wal.frames()] == list(range(1, 9))
        removed = wal.prune(keep_after_version=5)
        assert removed > 0
        survivors = [f.version for f in wal.frames()]
        # Everything a replay from v5 could need must survive.
        assert set(range(6, 9)) <= set(survivors)
        assert wal.total_bytes() > 0
        wal.close()

    def test_through_version_reaches_first_frame_of_segment(
        self, workload, tmp_path
    ):
        """Older versions named a segment opened by size after its first
        frame's version; time travel must still reach that frame."""
        triples = _drain_frames(workload)
        wal = WriteAheadLog(str(tmp_path), fsync="off", rotate_bytes=1)
        wal.open_for_append(0)
        for version, ru, plan in triples:
            wal.append(encode_drain_frame(version, ru, plan), version)
        for version, _ru, _plan in triples:
            assert [
                f.version
                for f in wal.frames(
                    after_version=version - 1, through_version=version
                )
            ] == [version]
        wal.close()

    @pytest.mark.parametrize("named_after_first_frame", [False, True])
    def test_after_version_skips_covered_segments_exactly(
        self, workload, tmp_path, monkeypatch, named_after_first_frame
    ):
        """``frames(after_version=v)`` yields what reading every segment
        yields, under today's segment naming and the older one (a
        segment opened by size named after its first frame), and opens
        no segment whose successor starts at or before ``v``."""
        from repro.durability import wal as wal_module

        triples = _drain_frames(workload)
        records = [encode_drain_frame(v, ru, plan) for v, ru, plan in triples]
        # About two frames per segment.
        rotate = 2 * sum(map(len, records)) // len(records)
        wal = WriteAheadLog(str(tmp_path), fsync="off", rotate_bytes=rotate)
        wal.open_for_append(0)
        shift = 0 if named_after_first_frame else 1
        for (version, _ru, _plan), record in zip(triples, records):
            wal.append(record, version - shift)
        segments = list(wal._segments)
        assert 2 < len(segments) < len(triples)
        everything = []
        for _seq, _start, path in segments:
            with open(path, "rb") as handle:
                everything += decode_frames(handle.read())[0]
        assert [f.version for f in everything] == [v for v, _ru, _p in triples]
        opened = []
        decode = wal_module.decode_frames

        def recording(buffer, *, path="", final_segment=True):
            opened.append(path)
            return decode(buffer, path=path, final_segment=final_segment)

        monkeypatch.setattr(wal_module, "decode_frames", recording)
        starts = [start for _seq, start, _path in segments]
        for after in range(-1, len(triples) + 1):
            opened.clear()
            got = list(wal.frames(after_version=after))
            expected = [f for f in everything if f.version > after]
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                _assert_frames_equal(g, e)
            skipped = sum(start <= after for start in starts[1:])
            assert opened == [path for _s, _v, path in segments[skipped:]]
        assert skipped > 0
        wal.close()

    def test_torn_tail_truncated_on_open(self, workload, tmp_path):
        triples = _drain_frames(workload)
        wal = WriteAheadLog(str(tmp_path), fsync="off")
        wal.open_for_append(0)
        for version, ru, plan in triples:
            wal.append(encode_drain_frame(version, ru, plan), version)
        wal.close()
        (path,) = [
            os.path.join(tmp_path, n)
            for n in os.listdir(tmp_path)
            if n.endswith(".log")
        ]
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 11)  # mid-frame: torn tail
        wal = WriteAheadLog(str(tmp_path), fsync="off")
        versions = [f.version for f in wal.frames()]
        assert versions == list(range(1, 8))  # last frame dropped cleanly
        assert os.path.getsize(path) < size - 11
        wal.close()


class TestCorruptionProperties:
    """Seeded random damage: recovery or clean error, never divergence."""

    def _pristine(self, workload):
        triples = _drain_frames(workload)
        buffer = b"".join(
            encode_drain_frame(v, ru, plan) for v, ru, plan in triples
        )
        frames, good = decode_frames(buffer, final_segment=True)
        assert good == len(buffer)
        return buffer, frames

    def test_truncation_anywhere_recovers_a_clean_prefix(self, workload):
        buffer, frames = self._pristine(workload)
        rng = random.Random(31)
        for _ in range(25):
            cut = rng.randrange(len(buffer) + 1)
            got, good = decode_frames(buffer[:cut], final_segment=True)
            assert good <= cut
            # Bit-identical prefix of the original history, nothing more.
            assert len(got) <= len(frames)
            for g, e in zip(got, frames):
                _assert_frames_equal(g, e)

    def test_flip_anywhere_errors_or_recovers_prefix(self, workload):
        buffer, frames = self._pristine(workload)
        rng = random.Random(37)
        outcomes = {"prefix": 0, "corrupt": 0}
        for _ in range(40):
            at = rng.randrange(len(buffer))
            flipped = bytearray(buffer)
            flipped[at] ^= 1 << rng.randrange(8)
            try:
                got, _good = decode_frames(
                    bytes(flipped), final_segment=True
                )
            except CorruptLogError:
                outcomes["corrupt"] += 1
                continue
            outcomes["prefix"] += 1
            assert len(got) < len(frames)  # the damaged frame must drop
            for g, e in zip(got, frames):
                _assert_frames_equal(g, e)
        # A flip before the final frame always leaves valid frames after
        # the damage, so both outcomes must actually occur.
        assert outcomes["corrupt"] > 0
        assert outcomes["prefix"] > 0

    def test_mid_log_damage_is_not_silently_skipped(self, workload):
        buffer, frames = self._pristine(workload)
        # Zero out the CRC of the *first* frame: frames after it are
        # intact, so this must be a hard error, not a silent skip.
        damaged = bytearray(buffer)
        damaged[8] ^= 0xFF
        with pytest.raises(CorruptLogError):
            decode_frames(bytes(damaged), final_segment=True)

    def test_manager_recovery_after_tail_damage(self, workload, tmp_path):
        """End-to-end: damage the WAL tail, recover, match the oracle."""
        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path), fsync="off", checkpoint_interval=100
        )
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(),
            durability=config,
        )
        oracle = {}
        for batch in batches:
            service.submit_many(batch)
            service.drain()
            oracle[service.version] = service.engine.similarities().copy()
        # A crash: a clean close would checkpoint and rotate the log.
        _crash(service)
        wal_dir = os.path.join(tmp_path, "wal")
        (path,) = sorted(
            os.path.join(wal_dir, n)
            for n in os.listdir(wal_dir)
            if n.endswith(".log")
        )
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        manager = DurabilityManager(config)
        try:
            recovered = manager.recover()
        finally:
            manager.close()
        # One torn frame: recovery lands exactly one version earlier.
        assert recovered.version == len(batches) - 1
        assert np.array_equal(
            recovered.store.to_array(), oracle[recovered.version]
        )


# ------------------------------------------------------------------ #
# Checkpoints
# ------------------------------------------------------------------ #


class TestCheckpoints:
    def _engine(self, workload, **kwargs):
        graph, scores, _ = workload
        return DynamicSimRank(
            graph.copy(),
            CFG,
            algorithm="inc-sr",
            initial_scores=scores.copy(),
            **kwargs,
        )

    def test_roundtrip_dtype_exact(self, workload, tmp_path):
        engine = self._engine(workload, score_dtype="float32", shard_rows=8)
        path = write_checkpoint(
            str(tmp_path),
            version=0,
            score_store=engine.score_store,
            transition_store=engine.transition_store,
            damping=CFG.damping,
            iterations=CFG.iterations,
        )
        data = load_checkpoint(path)
        assert data.version == 0
        assert "shard_dtypes" not in data.meta
        assert all(block.dtype == np.float32 for block in data.shards)
        dense = np.vstack(data.shards)
        assert np.array_equal(
            dense.astype(np.float64),
            engine.score_store.to_array(),
        )
        graph = graph_from_packed(data.packed_q)
        assert set(graph.edges()) == set(engine.graph.edges())

    def test_publication_is_atomic(self, workload, tmp_path):
        engine = self._engine(workload)
        write_checkpoint(
            str(tmp_path),
            version=3,
            score_store=engine.score_store,
            transition_store=engine.transition_store,
            damping=CFG.damping,
            iterations=CFG.iterations,
        )
        root = os.path.join(tmp_path, "checkpoints")
        entries = os.listdir(root)
        # No scratch dir survives a successful publish.
        assert all(not e.startswith("tmp-") for e in entries)
        assert [v for v, _path in list_checkpoints(str(tmp_path))] == [3]
        write_manifest(str(tmp_path), [3])
        assert read_manifest(str(tmp_path))["latest"] == 3

    def test_manifest_corruption_is_loud(self, tmp_path):
        assert read_manifest(str(tmp_path)) is None
        with open(
            os.path.join(tmp_path, "MANIFEST"), "w", encoding="utf-8"
        ) as handle:
            handle.write("{not json")
        with pytest.raises(CorruptLogError):
            read_manifest(str(tmp_path))

    def test_recovery_adopts_checkpoint_blocks(
        self, workload, tmp_path, monkeypatch
    ):
        """Recovery replays into the loaded shard blocks themselves, and
        the reopened service's engine serves from that very store."""
        from repro.durability import manager as manager_module

        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path), fsync="off", checkpoint_interval=100
        )
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(),
            shard_rows=8, durability=config,
        )
        for batch in batches[:3]:
            service.submit_many(batch)
            service.drain()
        live, version = service.engine.similarities(), service.version
        # A crash, so the reopen replays the drains into the blocks.
        _crash(service)
        loaded = []
        load = manager_module.load_checkpoint

        def capture(path):
            loaded.append(load(path))
            return loaded[-1]

        monkeypatch.setattr(manager_module, "load_checkpoint", capture)
        reopened = SimRankService(
            graph.copy(), CFG, shard_rows=8, durability=config
        )
        try:
            assert reopened.version == version
            assert reopened.durability.wal_lag_drains() == 3  # replayed
            assert np.array_equal(reopened.engine.similarities(), live)
            (data,) = loaded
            store = reopened.engine.score_store
            assert store.telemetry is reopened.telemetry
            blocks = [block for _, block in store.iter_shard_blocks()]
            assert len(blocks) == len(data.shards) > 1
            assert all(
                np.shares_memory(saved, block)
                for saved, block in zip(data.shards, blocks)
            )
        finally:
            reopened.close()

    def test_legacy_mixed_dtype_checkpoint_restores_float64(
        self, workload, tmp_path
    ):
        """A checkpoint from the per-shard-dtype era (one float32 block,
        the rest float64, ``shard_dtypes`` in meta) restores into
        float64, equal to the saved blocks exactly."""
        engine = self._engine(workload, shard_rows=8)
        path = write_checkpoint(
            str(tmp_path),
            version=0,
            score_store=engine.score_store,
            transition_store=engine.transition_store,
            damping=CFG.damping,
            iterations=CFG.iterations,
        )
        data = load_checkpoint(path)
        blocks = [data.shards[0].astype(np.float32), *data.shards[1:]]
        with open(os.path.join(path, "scores.npz"), "wb") as handle:
            np.savez(
                handle,
                **{f"shard_{i:05d}": block for i, block in enumerate(blocks)},
            )
        meta = dict(data.meta)
        meta["shard_dtypes"] = [block.dtype.name for block in blocks]
        with open(os.path.join(path, "meta.json"), "w") as handle:
            json.dump(meta, handle)
        write_manifest(str(tmp_path), [0])
        expected = np.vstack([block.astype(np.float64) for block in blocks])
        manager = DurabilityManager(DurabilityConfig(data_dir=str(tmp_path)))
        try:
            recovered = manager.recover()
            view = manager.view_at(0, CFG)
        finally:
            manager.close()
        assert recovered.store.dtype == np.float64
        assert np.array_equal(recovered.store.to_array(), expected)
        assert view.similarities().dtype == np.float64
        assert np.array_equal(view.similarities(), expected)


# ------------------------------------------------------------------ #
# Config surface
# ------------------------------------------------------------------ #


class TestDurabilityConfig:
    def test_roundtrip_and_nesting(self):
        config = DurabilityConfig(
            data_dir="/tmp/x", fsync="always", checkpoint_interval=7
        )
        assert DurabilityConfig.from_dict(config.to_dict()) == config
        service_config = ServiceConfig(durability=config)
        resolved = ServiceConfig.from_dict(service_config.to_dict())
        assert resolved.durability == config

    def test_validation(self):
        with pytest.raises(ConfigError):
            DurabilityConfig(data_dir="")
        with pytest.raises(ConfigError):
            DurabilityConfig(data_dir="/tmp/x", fsync="sometimes")
        with pytest.raises(ConfigError):
            DurabilityConfig(data_dir="/tmp/x", checkpoint_interval=0)
        with pytest.raises(ConfigError):
            DurabilityConfig.from_dict({"data_dir": "/tmp/x", "nope": 1})
        # Configs saved with the removed SVD-history knobs fail loudly.
        for key, value in (
            ("svd_history", True),
            ("svd_max_rank", 32),
            ("svd_threshold", 1e-11),
        ):
            with pytest.raises(ConfigError, match=key):
                DurabilityConfig.from_dict({"data_dir": "/tmp/x", key: value})

    def test_service_kwarg_coercion(self, workload, tmp_path):
        graph, scores, _ = workload
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(),
            durability=str(tmp_path),
        )
        assert service.durability is not None
        assert service.durability.config.data_dir == str(tmp_path)
        service.close()
        with pytest.raises(ConfigError):
            SimRankService(graph.copy(), CFG, durability=42)


# ------------------------------------------------------------------ #
# Service recovery + time travel
# ------------------------------------------------------------------ #


class TestServiceDurability:
    def _run(self, workload, tmp_path, **service_kwargs):
        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path),
            fsync="off",
            checkpoint_interval=3,
            retain_checkpoints=2,
        )
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(),
            durability=config, **service_kwargs,
        )
        oracle = {}
        for batch in batches:
            service.submit_many(batch)
            service.flush()
            oracle[service.version] = service.engine.similarities().copy()
        return service, config, oracle

    def test_restart_bit_identical_without_close(self, workload, tmp_path):
        """Recovery from the WAL alone — as if the writer was SIGKILL'd."""
        service, config, oracle = self._run(workload, tmp_path)
        final = service.version
        _crash(service)
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        assert restarted.version == final
        assert np.array_equal(
            restarted.engine.similarities(), oracle[final]
        )
        assert restarted.durability.durable_version == final
        restarted.close()

    def test_checkpoint_with_legacy_q_keys_restores(
        self, workload, tmp_path
    ):
        """Data dirs whose checkpoints still carry the CSC layout and
        ``row_weight`` (written by older versions) stay readable."""
        service, config, oracle = self._run(workload, tmp_path)
        final = service.version
        service.close()
        root = os.path.join(str(tmp_path), "checkpoints")
        rewritten = 0
        for name in os.listdir(root):
            path = os.path.join(root, name, "transitions.npz")
            if not os.path.exists(path):
                continue
            with np.load(path) as archive:
                packed = {key: archive[key] for key in archive.files}
            n = int(packed["num_nodes"])
            indptr = packed["indptr"].astype(np.int64)
            indices = packed["indices"].astype(np.int64)
            csc = sp.csr_matrix(
                (np.ones(indices.size), indices, indptr), shape=(n, n)
            ).tocsc()
            degrees = np.diff(indptr)
            packed.update(
                indices=indices,
                indptr=indptr,
                col_indices=csc.indices.astype(np.int64),
                col_indptr=csc.indptr.astype(np.int64),
                row_weight=np.where(
                    degrees > 0, 1.0 / np.maximum(degrees, 1), 0.0
                ),
            )
            with open(path, "wb") as handle:
                np.savez(handle, **packed)
            rewritten += 1
        assert rewritten
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        assert restarted.version == final
        assert np.array_equal(
            restarted.engine.similarities(), oracle[final]
        )
        restarted.close()

    def test_checkpoint_with_legacy_history_restores(
        self, workload, tmp_path
    ):
        """Checkpoints written with the removed SVD-history option carry
        ``history.npz`` and ``has_history``; restore ignores both."""
        service, config, oracle = self._run(workload, tmp_path)
        final = service.version
        service.close()
        root = os.path.join(str(tmp_path), "checkpoints")
        for name in os.listdir(root):
            meta_path = os.path.join(root, name, "meta.json")
            with open(meta_path) as handle:
                meta = json.load(handle)
            meta["has_history"] = True
            with open(meta_path, "w") as handle:
                json.dump(meta, handle)
            with open(os.path.join(root, name, "history.npz"), "wb") as handle:
                np.savez(
                    handle,
                    support=np.arange(3),
                    left=np.ones((3, 1)),
                    right=np.ones((1, 3)),
                    rank=np.int64(1),
                )
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        assert restarted.version == final
        assert np.array_equal(
            restarted.engine.similarities(), oracle[final]
        )
        restarted.close()

    def test_background_writer_and_add_node_recover(
        self, workload, tmp_path
    ):
        service, config, oracle = self._run(
            workload, tmp_path, writer="background"
        )
        node = service.add_node()
        final, nodes = service.version, service.num_nodes
        expected = service.engine.similarities().copy()
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        assert (restarted.version, restarted.num_nodes) == (final, nodes)
        assert np.array_equal(restarted.engine.similarities(), expected)
        assert restarted.similarity(node, node) == pytest.approx(
            1.0 - CFG.damping
        )
        restarted.close()

    def test_background_writer_and_add_node_replay_after_crash(
        self, workload, tmp_path
    ):
        """A crash leaves a node arrival and a drain linking the new node
        in the WAL; the reopen replays both into the checkpoint blocks."""
        service, config, oracle = self._run(
            workload, tmp_path, writer="background"
        )
        service.add_node()  # completes a checkpoint interval
        node = service.add_node()
        service.submit(EdgeUpdate.insert(0, node))
        service.flush()
        final, nodes = service.version, service.num_nodes
        expected = service.engine.similarities().copy()
        assert service.durability.wal_lag_drains() == 2
        _crash(service)
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        assert restarted.durability.last_checkpoint_version == final - 2
        assert restarted.durability.wal_lag_drains() == 2
        assert (restarted.version, restarted.num_nodes) == (final, nodes)
        assert np.array_equal(restarted.engine.similarities(), expected)
        restarted.close()

    def test_float32_store_recovers_bit_identical(self, workload, tmp_path):
        service, config, oracle = self._run(
            workload, tmp_path, precision="float32"
        )
        final = service.version
        expected = service.engine.similarities().copy()
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1),
            precision="float32",
            durability=config,
        )
        assert restarted.engine.score_store.dtype == np.float32
        assert np.array_equal(restarted.engine.similarities(), expected)
        assert restarted.version == final
        restarted.close()

    def test_float32_store_replays_bit_identical_after_crash(
        self, workload, tmp_path
    ):
        service, config, oracle = self._run(
            workload, tmp_path, precision="float32"
        )
        final = service.version
        expected = service.engine.similarities().copy()
        lag = service.durability.wal_lag_drains()
        assert lag > 0
        _crash(service)
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1),
            precision="float32",
            durability=config,
        )
        assert restarted.durability.last_checkpoint_version == final - lag
        assert restarted.durability.wal_lag_drains() == lag
        assert restarted.engine.score_store.dtype == np.float32
        assert np.array_equal(restarted.engine.similarities(), expected)
        assert restarted.version == final
        restarted.close()

    def test_reopen_with_other_precision_refused(self, workload, tmp_path):
        """A data dir reopens only in its own storage dtype: widening or
        narrowing would make the recovered scores differ from the live
        ones.  The refusal releases the data-dir lock, so a reopen with
        the matching precision then recovers bit-identically."""
        dirs = {}
        for precision in ("float64", "float32"):
            path = tmp_path / precision
            path.mkdir()
            service, config, _oracle = self._run(
                workload, path, precision=precision
            )
            dirs[precision] = (
                config, service.version, service.engine.similarities()
            )
            service.close()
        graph = erdos_renyi_digraph(2, 0.5, seed=1)
        # float64 is the default precision, so it is never passed.
        kwargs = {"float64": {}, "float32": {"precision": "float32"}}
        for stored, other in (("float32", "float64"), ("float64", "float32")):
            config, version, expected = dirs[stored]
            with pytest.raises(ConfigError) as excinfo:
                SimRankService(graph.copy(), durability=config, **kwargs[other])
            assert stored in str(excinfo.value)
            assert other in str(excinfo.value)
            restarted = SimRankService(
                graph.copy(), durability=config, **kwargs[stored]
            )
            try:
                assert restarted.engine.score_store.dtype == np.dtype(stored)
                assert restarted.version == version
                assert np.array_equal(
                    restarted.engine.similarities(), expected
                )
            finally:
                restarted.close()

    def test_time_travel_matches_brute_force(self, workload, tmp_path):
        service, config, oracle = self._run(workload, tmp_path)
        live = service.version
        horizon = min(service.durability.retained_versions())
        answered = 0
        for version, reference in oracle.items():
            if version < horizon:
                with pytest.raises(HistoryUnavailableError):
                    service.view_at(version)
                continue
            answered += 1
            got = service.top_k_at(10, version)
            assert got == top_k_pairs(reference, 10)
            a, b, _score = got[0]
            assert service.score_at(a, b, version) == reference[a, b]
        assert answered >= 2  # retention must leave real history
        # Live version served directly; the future is a clean 404-class.
        assert service.top_k_at(10, live) == top_k_pairs(oracle[live], 10)
        with pytest.raises(HistoryUnavailableError):
            service.view_at(live + 1)
        service.close()

    def test_time_travel_across_rotated_segments(self, workload, tmp_path):
        """Every version answers when the log rotates by size mid-stream.

        At the smallest ``rotate_bytes`` the segments hold a frame or
        two each, so most versions are the first frame of a segment.
        """
        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path), fsync="off", rotate_bytes=4096
        )
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(), durability=config
        )
        oracle = {0: service.engine.similarities().copy()}
        for batch in batches:
            service.submit_many(batch)
            service.flush()
            oracle[service.version] = service.engine.similarities().copy()
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        try:
            segments = restarted.durability._wal._segments
            assert len(segments) > len(batches) // 2
            # A segment's name is the version durable before its frames.
            for _seq, start, path in segments:
                with open(path, "rb") as handle:
                    frames, _ = decode_frames(handle.read())
                assert all(frame.version > start for frame in frames)
            for version, reference in oracle.items():
                view = restarted.view_at(version)
                assert view.similarities().tobytes() == reference.tobytes()
        finally:
            restarted.close()

    def test_time_travel_survives_restart(self, workload, tmp_path):
        service, config, oracle = self._run(workload, tmp_path)
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        horizon = min(restarted.durability.retained_versions())
        for version, reference in oracle.items():
            if version < horizon:
                continue
            assert restarted.top_k_at(10, version) == top_k_pairs(
                reference, 10
            )
        restarted.close()

    def test_ack_after_append_and_report(self, workload, tmp_path):
        service, config, oracle = self._run(workload, tmp_path)
        manager = service.durability
        assert manager.durable_version == service.version
        report = service.metrics_report()["durability"]
        assert report["enabled"] is True
        assert report["failed"] is False
        assert report["durable_version"] == service.version
        assert report["wal_appends"] == len(oracle)
        assert report["wal_bytes"] > 0
        assert report["last_checkpoint_version"] is not None
        assert len(report["retained_checkpoints"]) <= 2
        registry_text_counters = {
            "repro_wal_appends_total",
            "repro_wal_bytes_total",
            "repro_checkpoints_total",
        }
        names = {
            metric.name for metric in service.telemetry.registry.collect()
        }
        assert registry_text_counters <= names
        # Flight-recorder context pins where the on-disk history ends.
        context = service.telemetry.flight.context()
        assert context["durable_version"] == service.version
        assert context["wal_offset"] >= 0
        service.close()

    def test_wal_append_failure_degrades_to_ram_only(
        self, workload, tmp_path
    ):
        service, config, oracle = self._run(workload, tmp_path)
        manager = service.durability

        def boom(record, last_version):
            raise OSError("disk gone")

        manager._wal.append = boom
        graph, _scores, _batches = workload
        before = service.version
        service.submit(EdgeUpdate.insert(0, graph.num_nodes - 1))
        service.drain()  # serving must continue RAM-only
        assert service.version == before + 1
        assert manager.failed is True
        report = service.metrics_report()["durability"]
        assert report["failed"] is True
        assert "wal_append" in report["failed_reason"]
        assert manager.durable_version == before
        service.close()

    def test_clean_close_checkpoints_so_reopen_replays_nothing(
        self, workload, tmp_path, monkeypatch
    ):
        from repro.durability import wal as wal_module

        service, config, oracle = self._run(workload, tmp_path)
        final = service.version
        assert service.durability.wal_lag_drains() > 0
        service.close()
        assert read_manifest(str(tmp_path))["latest"] == final
        decoded = []
        decode = wal_module._decode_payload

        def counting(payload):
            decoded.append(payload)
            return decode(payload)

        monkeypatch.setattr(wal_module, "_decode_payload", counting)
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        try:
            assert decoded == []
            assert restarted.version == final
            assert (
                restarted.engine.similarities().tobytes()
                == oracle[final].tobytes()
            )
            assert restarted.durability.wal_lag_drains() == 0
        finally:
            restarted.close()

    def test_close_without_lag_leaves_manifest_byte_equal(
        self, workload, tmp_path
    ):
        service, config, _oracle = self._run(workload, tmp_path)
        service.close()
        manifest = os.path.join(str(tmp_path), "MANIFEST")
        wal_dir = os.path.join(str(tmp_path), "wal")
        with open(manifest, "rb") as handle:
            before = handle.read()
        segments = sorted(os.listdir(wal_dir))
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        assert restarted.durability.wal_lag_drains() == 0
        restarted.close()
        with open(manifest, "rb") as handle:
            assert handle.read() == before
        assert sorted(os.listdir(wal_dir)) == segments

    def test_time_travel_after_clean_close_and_reopen(
        self, workload, tmp_path
    ):
        """Every version from the oldest retained checkpoint on answers
        bit-identically after the close checkpoint, across rotated
        segments that reads from later checkpoints skip."""
        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path),
            fsync="off",
            checkpoint_interval=3,
            retain_checkpoints=3,
            rotate_bytes=4096,
        )
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(), durability=config
        )
        oracle = {0: service.engine.similarities().copy()}
        for batch in batches:
            service.submit_many(batch)
            service.flush()
            oracle[service.version] = service.engine.similarities().copy()
        final = service.version
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        try:
            retained = restarted.durability.retained_versions()
            assert retained == [3, 6, final]
            for version, reference in oracle.items():
                if version < retained[0]:
                    with pytest.raises(HistoryUnavailableError):
                        restarted.view_at(version)
                    continue
                view = restarted.view_at(version)
                assert view.similarities().tobytes() == reference.tobytes()
        finally:
            restarted.close()

    def test_restart_keeps_checkpoint_cadence(self, workload, tmp_path):
        """Replayed frames count toward the checkpoint interval, so
        process lifetimes shorter than it still checkpoint and the WAL
        stays bounded (each lifetime ends in a crash)."""
        graph, scores, _batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path), fsync="off", checkpoint_interval=4
        )
        batches = _update_stream(graph, 15, 4, seed=23)
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(), durability=config
        )
        lag = 0
        for lifetime in range(5):
            if lifetime:
                service = SimRankService(
                    erdos_renyi_digraph(2, 0.5, seed=1), durability=config
                )
                manager = service.durability
                replayed = service.version - manager.last_checkpoint_version
                assert replayed == lag
                assert manager.wal_lag_drains() == replayed
                report = service.metrics_report()["durability"]
                assert report["wal_lag_drains"] == replayed
            for batch in batches[3 * lifetime : 3 * lifetime + 3]:
                service.submit_many(batch)
                service.drain()
            if lifetime == 1:
                assert service.durability.retained_versions()[-1] == 4
            lag = service.durability.wal_lag_drains()
            _crash(service)
        assert read_manifest(str(tmp_path))["retained"] == [8, 12]

    def test_close_checkpoint_error_still_releases_lock(
        self, workload, tmp_path, monkeypatch
    ):
        from repro.durability import manager as manager_module

        service, config, oracle = self._run(workload, tmp_path)
        final = service.version
        manifest = read_manifest(str(tmp_path))

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(manager_module, "write_checkpoint", boom)
        service.close()
        assert service.durability.report()["errors"] == 1
        assert read_manifest(str(tmp_path)) == manifest
        monkeypatch.undo()
        # The lock is free and the WAL still holds the chain.
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        try:
            assert restarted.version == final
            assert np.array_equal(
                restarted.engine.similarities(), oracle[final]
            )
        finally:
            restarted.close()

    def test_failed_manager_close_does_not_checkpoint(
        self, workload, tmp_path
    ):
        """After a WAL failure the engine is ahead of the durable
        history; close must not publish it, so a restart lands on the
        last durable version."""
        service, config, oracle = self._run(workload, tmp_path)

        def boom(record, last_version):
            raise OSError("disk gone")

        service.durability._wal.append = boom
        graph, _scores, _batches = workload
        durable = service.version
        service.submit(EdgeUpdate.insert(0, graph.num_nodes - 1))
        service.drain()
        assert service.version == durable + 1
        manifest = os.path.join(str(tmp_path), "MANIFEST")
        with open(manifest, "rb") as handle:
            before = handle.read()
        service.close()
        with open(manifest, "rb") as handle:
            assert handle.read() == before
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        try:
            assert restarted.version == durable
            assert np.array_equal(
                restarted.engine.similarities(), oracle[durable]
            )
        finally:
            restarted.close()

    def test_close_skips_checkpoint_when_writer_will_not_stop(
        self, workload, tmp_path
    ):
        """A writer still applying after its stop timeout could mutate
        the engine mid-write, so close publishes no checkpoint; it still
        releases the lock, and the next open replays the WAL."""
        service, config, oracle = self._run(
            workload, tmp_path, writer="background"
        )
        final = service.version
        writer = service.writer
        stop = writer.stop

        def stuck(drain=True, timeout=30.0):
            raise ConfigError("background writer did not stop")

        writer.stop = stuck
        manifest = read_manifest(str(tmp_path))
        with pytest.raises(ConfigError):
            service.close()
        stop()
        assert read_manifest(str(tmp_path)) == manifest
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        try:
            assert restarted.version == final
            assert restarted.durability.wal_lag_drains() > 0  # replayed
            assert np.array_equal(
                restarted.engine.similarities(), oracle[final]
            )
        finally:
            restarted.close()

    def test_close_waits_for_an_in_flight_sync_drain(
        self, workload, tmp_path
    ):
        """A sync drain already applying when close begins finishes (apply
        and WAL append) before close checkpoints, so the checkpoint never
        holds a half-applied drain."""
        service, config, oracle = self._run(workload, tmp_path)
        engine = service.engine
        edges = set(engine.graph.edges())
        n = engine.graph.num_nodes
        pair = next(
            (a, b) for a in range(n) for b in range(n)
            if a != b and (a, b) not in edges
        )
        service.submit(EdgeUpdate.insert(*pair))
        applying, release = threading.Event(), threading.Event()
        apply = engine.apply_consolidated

        def held(batch):
            applying.set()
            release.wait(timeout=30)
            return apply(batch)

        engine.apply_consolidated = held
        drainer = threading.Thread(target=service.drain)
        closer = threading.Thread(target=service.close)
        drainer.start()
        try:
            assert applying.wait(timeout=30)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive()  # close waits for the drain
        finally:
            release.set()
            drainer.join(timeout=30)
            if closer.ident is not None:
                closer.join(timeout=30)
        assert service.closed
        final = engine.version
        assert final == max(oracle) + 1
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=config
        )
        try:
            assert restarted.version == final
            assert restarted.durability.last_checkpoint_version == final
            assert np.array_equal(
                restarted.engine.similarities(), engine.similarities()
            )
        finally:
            restarted.close()

    def test_data_dir_lock_is_exclusive(self, workload, tmp_path):
        service, config, _oracle = self._run(workload, tmp_path)
        with pytest.raises(ConfigError):
            DurabilityManager(config)
        service.close()
        # Released on close: a successor may take over the dir.
        manager = DurabilityManager(config)
        manager.close()


# ------------------------------------------------------------------ #
# Crash-restart (real SIGKILL subprocess)
# ------------------------------------------------------------------ #


class TestCrashRestart:
    def test_sigkill_subprocess_recovers_bit_identical(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.durability.crash_smoke",
                "--data-dir",
                str(tmp_path / "data"),
                "--seed",
                "13",
                "--rounds",
                "1",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    filter(None, [
                        os.path.join(os.path.dirname(__file__), "..", "src"),
                        os.environ.get("PYTHONPATH", ""),
                    ])
                ),
            },
        )
        assert result.returncode == 0, result.stderr + result.stdout
        assert "bit-identical" in result.stdout


# ------------------------------------------------------------------ #
# Reaper integration
# ------------------------------------------------------------------ #


class TestReaper:
    def test_stale_lock_and_scratch_reclaimed(self, tmp_path):
        data_dir = str(tmp_path / "data")
        os.makedirs(os.path.join(data_dir, "checkpoints", "tmp-999-4"))
        with open(
            os.path.join(data_dir, "checkpoints", "tmp-999-4", "x.npz"),
            "wb",
        ) as handle:
            handle.write(b"junk")
        with open(
            os.path.join(data_dir, "wal.lock"), "w", encoding="utf-8"
        ) as handle:
            handle.write("999999999")  # dead pid
        removed = reaper._sweep_durability(data_dir, 999999999)
        assert removed == 2
        assert not os.path.exists(os.path.join(data_dir, "wal.lock"))
        assert os.listdir(os.path.join(data_dir, "checkpoints")) == []

    def test_live_lock_survives_sweep(self, tmp_path):
        data_dir = str(tmp_path / "data")
        os.makedirs(data_dir)
        with open(
            os.path.join(data_dir, "wal.lock"), "w", encoding="utf-8"
        ) as handle:
            handle.write(str(os.getpid()))  # us: definitely alive
        assert reaper._sweep_durability(data_dir, 999999999) == 0
        assert os.path.exists(os.path.join(data_dir, "wal.lock"))

    def test_reap_orphans_handles_durability_manifests(self, tmp_path):
        data_dir = str(tmp_path / "data")
        os.makedirs(data_dir)
        with open(
            os.path.join(data_dir, "wal.lock"), "w", encoding="utf-8"
        ) as handle:
            handle.write("999999999")
        os.makedirs(reaper.MANIFEST_DIR, exist_ok=True)
        manifest = os.path.join(
            reaper.MANIFEST_DIR, "durabilitytest-reap.json"
        )
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "pid": 999999999,
                    "kind": "durability",
                    "data_dir": data_dir,
                },
                handle,
            )
        try:
            reaper.reap_orphans()
            assert not os.path.exists(manifest)
            assert not os.path.exists(os.path.join(data_dir, "wal.lock"))
        finally:
            if os.path.exists(manifest):
                os.unlink(manifest)


# ------------------------------------------------------------------ #
# Front door time travel
# ------------------------------------------------------------------ #


class TestFrontDoorTimeTravel:
    def test_version_param_and_health(self, workload, tmp_path):
        from repro.frontdoor import FrontDoor, HTTPClient
        from repro.serving.config import FrontDoorConfig

        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path), fsync="off",
            checkpoint_interval=2, retain_checkpoints=3,
        )
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(),
            durability=config,
        )
        oracle = {}
        for batch in batches[:4]:
            service.submit_many(batch)
            service.drain()
            oracle[service.version] = service.engine.similarities().copy()
        target = min(service.durability.retained_versions())
        reference = oracle.get(target)

        async def body():
            door = FrontDoor(service, FrontDoorConfig())
            await door.start()
            client = HTTPClient(door.host, door.port)
            try:
                status, health = await client.request("GET", "/health")
                assert status == 200
                assert health["durability"]["failed"] is False
                assert (
                    health["durability"]["durable_version"]
                    == service.version
                )
                status, body_ = await client.request(
                    "POST",
                    f"/query?version={target}",
                    {"kind": "top_k", "k": 5},
                )
                assert status == 200
                assert body_["version"] == target
                if reference is not None:
                    expected = top_k_pairs(reference, 5)
                    got = [tuple(entry) for entry in body_["value"]]
                    assert got == [tuple(e) for e in expected]
                status, _ = await client.request(
                    "POST",
                    "/query?version=notanint",
                    {"kind": "top_k", "k": 5},
                )
                assert status == 400
                status, err = await client.request(
                    "POST",
                    f"/query?version={service.version + 99}",
                    {"kind": "top_k", "k": 5},
                )
                assert status == 404
                assert err["error"] == "HistoryUnavailableError"
            finally:
                await client.close()
                await door.stop()

        asyncio.run(body())
        service.close()
