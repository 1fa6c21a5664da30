"""The ``repro.api`` facade: one front door for CLI, daemon and library.

Covers the public surface (`__all__`, lazy re-export from the top-level
package), the ``submit`` store/url contract, artefact rendering through
the facade against a real store, and a warning-free star import of the
experiment harness.
"""

import warnings

import pytest

import repro
import repro.api as api
from repro.core import ShardStore
from repro.service.spec import CampaignSpec
from repro.sim import ProtectionMode

SPEC = CampaignSpec(suite="small", runs_per_cell=3, base_seed=11,
                    apps=("susan",), errors=(0, 2), include_table2=False)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """One tiny campaign, swept once and shared by the read-only tests."""
    root = tmp_path_factory.mktemp("api-store")
    job = api.submit(SPEC, root)
    assert job["state"] == "complete"
    return root


class TestSurface:
    def test_all_names_exist_and_are_sorted(self):
        assert api.__all__ == sorted(api.__all__)
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_top_level_package_re_exports_the_facade(self):
        # PEP 562 lazy exports: `repro.submit is repro.api.submit` without
        # repro/__init__ importing the service layer eagerly.
        assert repro.CampaignSpec is CampaignSpec
        assert repro.submit is api.submit
        assert repro.tables is api.tables
        assert "submit" in repro.__all__ and "CampaignSpec" in repro.__all__
        with pytest.raises(AttributeError):
            repro.not_an_export

    def test_experiments_star_import_is_clean(self):
        # Every name in repro.experiments.__all__ must resolve, silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            namespace: dict = {}
            exec("from repro.experiments import *", namespace)
        import repro.experiments as experiments
        assert "SweepOrchestrator" not in experiments.__all__
        assert set(experiments.__all__) <= set(namespace)


class TestSubmit:
    def test_requires_exactly_one_of_store_and_url(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one of"):
            api.submit(SPEC)
        with pytest.raises(ValueError, match="exactly one of"):
            api.submit(SPEC, tmp_path, url="http://127.0.0.1:1")

    def test_remote_submit_refuses_execution_options(self, tmp_path):
        with pytest.raises(ValueError, match="daemon's to choose"):
            api.submit(SPEC, url="http://127.0.0.1:1", parallel=4)

    def test_unreachable_daemon_is_a_connection_error(self):
        with pytest.raises(ConnectionError, match="unreachable"):
            api.submit(SPEC, url="http://127.0.0.1:9", wait=False)

    def test_local_payload_matches_the_daemon_shape(self, swept):
        job = api.submit(SPEC, swept)  # warm resubmit: pure cache hit
        assert set(job) == {"job", "store", "state", "error", "spec",
                            "report", "executors_started", "lane",
                            "restored", "submitted", "finished", "progress"}
        assert job["job"] == SPEC.cache_key
        assert job["store"] == SPEC.store_key
        assert job["state"] == "complete"
        assert job["spec"] == SPEC.to_json()
        assert job["report"]["runs_executed"] == 0
        assert job["executors_started"] == 0
        # Local runs have no scheduler lane and no journal behind them,
        # but the keys exist so callers are insensitive to where the
        # campaign ran.
        assert job["lane"] is None
        assert job["restored"] is False
        assert job["finished"] >= job["submitted"] > 0


class TestReads:
    def test_status_requires_exactly_one_of_store_and_url(self, swept):
        with pytest.raises(ValueError, match="exactly one of"):
            api.status()
        with pytest.raises(ValueError, match="exactly one of"):
            api.status(swept, url="http://127.0.0.1:1")

    def test_status_url_against_an_unreachable_daemon(self):
        with pytest.raises(ConnectionError, match="unreachable"):
            api.status(url="http://127.0.0.1:9", job="deadbeef")

    def test_status_infers_the_spec_from_store_meta(self, swept):
        statuses = api.status(swept, SPEC)
        assert len(statuses) == 4
        assert all(status.complete for status in statuses)
        # Without a spec the full default grid is measured against the
        # store's own pinned parameters — more cells, mostly unswept.
        assert len(api.status(swept)) > 4

    def test_results_is_a_pure_cache_read(self, swept):
        records = api.results(swept, "susan", "protected", 2)
        assert len(records) == 3
        assert records == api.results(swept, "susan",
                                      ProtectionMode.PROTECTED, 2)
        assert api.results(swept, "susan", "protected", 99) == []

    def test_figures_render_through_the_facade(self, swept):
        figures = api.figures(swept, ["figure1"], errors=SPEC.errors)
        assert len(figures) == 1
        assert figures[0].to_table().strip()

    def test_unknown_artefacts_raise_value_error(self, swept):
        with pytest.raises(ValueError, match="unknown figure"):
            api.figures(swept, ["figure9"])
        with pytest.raises(ValueError, match="unknown table"):
            api.tables(swept, [7])

    def test_tables_accept_a_shard_store_instance(self, swept):
        rendered = api.tables(ShardStore(swept), [1])
        assert "Table 1" in rendered[0].to_text()
