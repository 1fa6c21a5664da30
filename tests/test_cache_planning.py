"""Cache planning reads only what it needs.

A complete fixed cell is planned from its shard's run indices alone (no
record is decoded), ``meta.json`` is parsed once per process for every
store on a root, and a spec computes its content addresses once.  The
answers must not change: indices equal the decoded records', a rewritten
``meta.json`` is seen at once, and keys equal the hash of the canonical
encoding.
"""

import dataclasses
import hashlib
import json
import os
import pickle

import pytest

from repro.api import submit
from repro.core import RunRecord, ShardStore, StoppingRule
from repro.core import store as store_module
from repro.core.fidelity import FidelityResult
from repro.core.store import StoreMismatchError
from repro.experiments.sweep import SweepOrchestrator
from repro.service import CampaignService, CampaignSpec, ServiceClient
from repro.sim import ProtectionMode

MODE = ProtectionMode.UNPROTECTED

#: Two adpcm cells, four runs each.
SPEC = CampaignSpec(suite="small", runs_per_cell=4, base_seed=23,
                    apps=("adpcm",), modes=(MODE.value,), errors=(0, 3),
                    include_table2=False)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """``model -> records of the (adpcm, unprotected, 3) cell``."""
    by_model = {}
    for model in ("control-bit", "data-bit"):
        spec = dataclasses.replace(SPEC, model=model)
        store = ShardStore(tmp_path_factory.mktemp(model), model=model)
        SweepOrchestrator(store, spec,
                          spec.campaign_config(parallel=1)).run()
        by_model[model] = store.load_records("adpcm", MODE, 3)
        assert len(by_model[model]) == 4
    return by_model


def decoded_indices(store, errors=3):
    return {record.run_index
            for record in store.load_records("adpcm", MODE, errors)}


class TestPresentIndices:
    def shard(self, tmp_path, model="control-bit"):
        store = ShardStore(tmp_path / "s", model=model)
        return store, store.shard_path("adpcm", MODE, 3)

    def test_missing_file(self, tmp_path):
        store, path = self.shard(tmp_path)
        assert not path.exists()
        assert store.present_indices("adpcm", MODE, 3) == set()
        assert decoded_indices(store) == set()

    def test_empty_file(self, tmp_path):
        store, path = self.shard(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        assert store.present_indices("adpcm", MODE, 3) == set()
        assert decoded_indices(store) == set()

    @pytest.mark.parametrize("cut", [1, 20, -1])
    def test_torn_last_line(self, tmp_path, records, cut):
        store, path = self.shard(tmp_path)
        store.append_records("adpcm", MODE, 3, records["control-bit"])
        data = path.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        # Cut one byte (the newline), 20 bytes, or all but the first
        # byte of the last line: each leaves it without its newline.
        path.write_bytes(data[:-cut] if cut > 0 else data[:last + 1])
        assert store.present_indices("adpcm", MODE, 3) == {0, 1, 2}
        assert decoded_indices(store) == {0, 1, 2}
        assert path.read_bytes() != data  # readers never repair

    def test_records_appended_out_of_index_order(self, tmp_path, records):
        store, _ = self.shard(tmp_path)
        cell = records["control-bit"]
        for index in (2, 0, 3):
            store.append_records("adpcm", MODE, 3, [cell[index]])
        assert store.present_indices("adpcm", MODE, 3) == {0, 2, 3}
        assert decoded_indices(store) == {0, 2, 3}
        assert store.missing_indices("adpcm", MODE, 3, 4) == [1]

    def test_shard_under_another_fault_model(self, tmp_path, records):
        store, path = self.shard(tmp_path, model="data-bit")
        store.append_records("adpcm", MODE, 3, records["data-bit"][1:])
        assert path.name.endswith("@data-bit.jsonl")
        assert b'"model":"data-bit"' in path.read_bytes()
        assert store.present_indices("adpcm", MODE, 3) == {1, 2, 3}
        assert decoded_indices(store) == {1, 2, 3}
        # The control-bit store on the same root sees none of them.
        assert ShardStore(store.root).present_indices("adpcm", MODE,
                                                      3) == set()

    def test_nested_keys_named_like_the_index_are_ignored(self, tmp_path,
                                                          records):
        # A scorer's detail keys are free-form and its values floats: a
        # detail entry spelled like the index keys must not be read.
        store, _ = self.shard(tmp_path)
        record = dataclasses.replace(
            records["control-bit"][0], run_index=5,
            fidelity=FidelityResult(score=1.0, acceptable=True,
                                    perfect=False,
                                    detail={"run_index": 9.0,
                                            "seed": 2.0}))
        store.append_records("adpcm", MODE, 3, [record])
        assert store.present_indices("adpcm", MODE, 3) == {5}
        assert decoded_indices(store) == {5}


class TestPlanningDecodesNoRecord:
    def test_local_cached_submit(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        submit(SPEC, store=str(root), parallel=1)

        def refuse(cls, data):
            raise AssertionError("planning decoded a record")

        monkeypatch.setattr(RunRecord, "from_json", classmethod(refuse))
        for spec in (SPEC, dataclasses.replace(SPEC, errors=(3,))):
            job = submit(spec, store=str(root), parallel=1)
            assert job["state"] == "complete"
            assert job["executors_started"] == 0
            assert job["report"]["runs_executed"] == 0
            assert job["report"]["runs_reused"] == 4 * len(spec.errors)

    def test_daemon_cached_post(self, tmp_path, monkeypatch):
        daemon = CampaignService(tmp_path / "cache", lanes=1)
        adaptive = dataclasses.replace(
            SPEC, stopping=StoppingRule(ci_width=25.0, floor=2, cap=4))
        for spec in (SPEC, adaptive):
            submit(spec, store=daemon.store_for(spec), parallel=1)
        decoded = []
        from_json = RunRecord.from_json.__func__

        def counted(cls, data):
            decoded.append(data["run_index"])
            return from_json(cls, data)

        def refuse(cls, data):
            raise AssertionError("planning decoded a record")

        daemon.start_in_background()
        try:
            client = ServiceClient(daemon.url)
            monkeypatch.setattr(RunRecord, "from_json", classmethod(refuse))
            payload = client.submit(SPEC)
            assert payload["state"] == "complete"
            assert payload["lane"] is None
            assert payload["executors_started"] == 0
            assert payload["report"]["runs_executed"] == 0
            assert payload["report"]["runs_reused"] == 8
            # An adaptive cell's stopping rule needs its outcomes, so
            # its records are still decoded, and it still answers.
            monkeypatch.setattr(RunRecord, "from_json", classmethod(counted))
            payload = client.submit(adaptive)
            assert payload["state"] == "complete"
            assert payload["executors_started"] == 0
            assert payload["report"]["runs_executed"] == 0
            assert payload["report"]["runs_reused"] == len(decoded) > 0
        finally:
            daemon.shutdown()


@pytest.fixture()
def meta_parses(monkeypatch):
    """Counts ``meta.json`` parses through the store's shared cache."""
    parses = []
    load = json.load

    def counted(handle, *args, **kwargs):
        parses.append(handle.name)
        return load(handle, *args, **kwargs)

    monkeypatch.setattr(store_module.json, "load", counted)
    return parses


class TestSharedMetaCache:
    META = {"runs_per_cell": 4, "schema": "sweep-store-v1"}

    def test_stores_on_one_root_parse_it_once(self, tmp_path, meta_parses):
        first = ShardStore(tmp_path / "s")
        first.ensure_meta(self.META)
        second = ShardStore(tmp_path / "s", model="data-bit")
        for store in (second, first, ShardStore(tmp_path / "s")) * 2:
            assert store.read_meta() == self.META
        assert len(meta_parses) == 1
        # Callers get a copy: mutating it leaves the cache intact.
        second.read_meta()["runs_per_cell"] = 99
        assert first.read_meta() == self.META

    def test_a_pin_by_one_store_is_seen_by_another(self, tmp_path):
        reader = ShardStore(tmp_path / "s")
        assert reader.read_meta() is None
        ShardStore(tmp_path / "s").ensure_meta(self.META)
        assert reader.read_meta() == self.META
        reader.ensure_meta(self.META)  # matches: no error

    def test_an_atomic_replace_is_seen(self, tmp_path, meta_parses):
        store = ShardStore(tmp_path / "s")
        store.ensure_meta(self.META)
        assert store.read_meta() == self.META
        before = os.stat(store.meta_path)
        # Other parameters of the same size and the same mtime, written
        # the way ensure_meta writes: only the inode tells them apart.
        other = dict(self.META, runs_per_cell=5)
        scratch = store.meta_path.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(other, sort_keys=True, indent=2)
                           + "\n")
        os.utime(scratch, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(scratch, store.meta_path)
        assert os.stat(store.meta_path).st_size == before.st_size
        with pytest.raises(StoreMismatchError, match="refusing to resume"):
            ShardStore(tmp_path / "s").ensure_meta(self.META)
        assert store.read_meta() == other
        assert len(meta_parses) == 2

    def test_a_deleted_meta_reads_none(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        store.ensure_meta(self.META)
        assert store.read_meta() == self.META
        store.meta_path.unlink()
        assert store.read_meta() is None
        assert ShardStore(tmp_path / "s").read_meta() is None


class TestSpecKeysOncePerInstance:
    def test_keys_are_the_hashes_of_the_canonical_encodings(self):
        assert SPEC.cache_key == hashlib.sha256(
            SPEC.canonical().encode("utf-8")).hexdigest()
        assert SPEC.store_key == hashlib.sha256(json.dumps(
            SPEC.store_meta(), sort_keys=True,
            separators=(",", ":")).encode("utf-8")).hexdigest()

    def test_each_key_is_computed_once(self, monkeypatch):
        calls = []

        def counted(name):
            method = getattr(CampaignSpec, name)

            def call(self):
                calls.append(name)
                return method(self)
            return call

        for name in ("canonical", "store_meta"):
            monkeypatch.setattr(CampaignSpec, name, counted(name))
        spec = dataclasses.replace(SPEC, base_seed=99)
        keys = {(spec.cache_key, spec.store_key, spec.store_dir)
                for _ in range(5)}
        assert len(keys) == 1
        assert sorted(calls) == ["canonical", "store_meta"]

    def test_equal_specs_compare_and_hash_as_before(self):
        keyed = dataclasses.replace(SPEC)
        keyed.cache_key, keyed.store_key  # noqa: B018 — fill the cache
        fresh = dataclasses.replace(SPEC)
        assert keyed == fresh and hash(keyed) == hash(fresh)
        assert len({keyed, fresh}) == 1
        assert keyed != dataclasses.replace(SPEC, base_seed=24)
        assert dataclasses.asdict(keyed) == dataclasses.asdict(fresh)

    def test_replace_gives_the_new_keys(self):
        SPEC.cache_key, SPEC.store_key  # noqa: B018 — fill the cache
        content = dataclasses.replace(SPEC, base_seed=24)
        coverage = dataclasses.replace(SPEC, errors=(3,))
        for spec in (content, coverage):
            assert spec.cache_key != SPEC.cache_key
            assert spec.cache_key == CampaignSpec.from_json(
                spec.to_json()).cache_key
        assert content.store_key != SPEC.store_key
        assert coverage.store_key == SPEC.store_key

    def test_round_trips_keep_the_keys(self):
        for spec in (dataclasses.replace(SPEC),
                     dataclasses.replace(SPEC, base_seed=31)):
            for keyed in (False, True):
                if keyed:
                    spec.cache_key, spec.store_key  # noqa: B018
                for copy in (CampaignSpec.from_json(spec.to_json()),
                             pickle.loads(pickle.dumps(spec))):
                    assert copy == spec
                    assert copy.cache_key == spec.cache_key
                    assert copy.store_key == spec.store_key
