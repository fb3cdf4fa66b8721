"""The switch registry: one declaration per ``REPRO_*`` switch, and
each switch's effect decides which identities it joins."""

import pytest

from repro.common import knobs
from repro.experiments import cache as result_cache
from repro.experiments import pool as warm_pool
from repro.experiments.service import ExperimentService


def _identities():
    service = ExperimentService(jobs=1)
    return (
        result_cache.digest("eval", params={"workload": "nginx"}, deps=[]),
        warm_pool.pool_key(2),
        service.request_digest({"experiments": ["table2"]}),
    )


def test_names_are_unique_and_prefixed():
    names = [knob.name for knob in knobs.KNOBS]
    assert len(set(names)) == len(names) == 2
    assert all(name.startswith("REPRO_") for name in names)
    assert {knob.effect for knob in knobs.KNOBS} == {knobs.COMPUTE, knobs.STORAGE}


@pytest.mark.parametrize("value, on", [("0", False), ("OFF", False), ("no", False),
                                       ("1", True), ("yes", True)])
def test_on_off_parsing(monkeypatch, value, on):
    monkeypatch.setenv(knobs.ANALYTIC.name, value)
    assert knobs.ANALYTIC.enabled() is on


def test_unset_reads_as_default(monkeypatch):
    monkeypatch.delenv(knobs.ANALYTIC.name, raising=False)
    unset = _identities()
    monkeypatch.setenv(knobs.ANALYTIC.name, knobs.ANALYTIC.default)
    assert _identities() == unset


def test_compute_switch_changes_every_identity(monkeypatch):
    monkeypatch.delenv(knobs.ANALYTIC.name, raising=False)
    before = _identities()
    monkeypatch.setenv(knobs.ANALYTIC.name, "0")
    after = _identities()
    assert all(a != b for a, b in zip(before, after))


def test_storage_switch_skips_stage_digests(monkeypatch, tmp_path):
    before = _identities()
    monkeypatch.setenv(knobs.CACHE_DIR.name, str(tmp_path / "elsewhere"))
    after = _identities()
    assert after[0] == before[0]
    assert after[1] != before[1] and after[2] != before[2]
