"""Tests for the runner's job model and content-addressed keys."""

import json
import shutil

import pytest

from repro.experiments import ExperimentResult, registry
from repro.runner import (
    KIND_POINT,
    JobSpec,
    assemble,
    decompose,
    decompose_many,
    execute_job,
)
from repro.runner import keys
from repro.runner.keys import canonical_json, code_fingerprint, job_key
from tests.conftest import register_experiment

#: fig2's first quick point key, recorded before tables became one-point
#: sweeps, under the version-only fingerprint ``repro-1.0.0``: with the
#: code part held fixed, figure keys must not move when the experiment
#: model changes.
FIG2_QUICK_KEY = \
    "27358bf841a220851b7c1ecc07f21f80be451b08400980ee6d94aacfcf2f5022"


class TestKeys:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == \
            canonical_json({"a": [2, 3], "b": 1})

    def test_canonical_json_is_compact_ascii(self):
        text = canonical_json({"a": 1, "b": "x"})
        assert text == '{"a":1,"b":"x"}'

    def test_key_is_stable(self):
        cfg = {"p": 4, "n_io": 2, "label": "unopt 2io"}
        assert job_key("fig5", KIND_POINT, cfg) == \
            job_key("fig5", KIND_POINT, dict(reversed(list(cfg.items()))))

    def test_key_varies_with_every_component(self):
        base = job_key("fig5", KIND_POINT, {"p": 4})
        assert job_key("fig6", KIND_POINT, {"p": 4}) != base
        assert job_key("fig5", "experiment", {"p": 4}) != base
        assert job_key("fig5", KIND_POINT, {"p": 8}) != base

    def test_key_varies_with_code_fingerprint(self, monkeypatch):
        base = job_key("fig5", KIND_POINT, {"p": 4})
        monkeypatch.setenv("REPRO_CACHE_SALT", "refactor-2")
        assert job_key("fig5", KIND_POINT, {"p": 4}) != base

    def test_fingerprint_tracks_version(self):
        import repro
        assert repro.__version__ in code_fingerprint()

    def test_figure_point_keys_did_not_move(self, monkeypatch):
        monkeypatch.setattr(keys, "code_fingerprint", lambda: "repro-1.0.0")
        assert decompose("fig2", quick=True)[0].key == FIG2_QUICK_KEY

    def test_builtin_sha256_matches_hashlib(self, monkeypatch):
        """The interpreter's SHA-256 module digests exactly as OpenSSL's
        ``hashlib.sha256`` does: keys and checksums did not move."""
        import hashlib
        import platform

        from repro.runner import store

        if platform.python_implementation() == "CPython":
            assert keys.sha256 is not hashlib.sha256
        payload = {"rows": [{"x": 1.5, "label": "a"}], "n": 3}
        cfg = {"p": 4, "n_io": 2, "label": "unopt 2io"}
        ours = (store.payload_checksum(payload),
                job_key("fig5", KIND_POINT, cfg), keys._source_digest())
        monkeypatch.setattr(keys, "sha256", hashlib.sha256)
        monkeypatch.setattr(store, "sha256", hashlib.sha256)
        assert ours == (store.payload_checksum(payload),
                        job_key("fig5", KIND_POINT, cfg),
                        keys._source_digest())


class TestSourceFingerprint:
    """The fingerprint hashes the payload-computing packages: an edit
    there changes every key, an edit elsewhere changes none."""

    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        copy = tmp_path / "repro"
        shutil.copytree(keys._PACKAGE, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(keys, "_PACKAGE", copy)
        monkeypatch.setattr(keys, "_DIGEST", None)
        return copy

    @staticmethod
    def _key_after(edit):
        """fig2's first quick key after ``edit()``, with the digest
        recomputed as a new process would compute it."""
        edit()
        keys._DIGEST = None
        return decompose("fig2", quick=True)[0].key

    @pytest.mark.parametrize("path", ["sim/core.py", "trace/collector.py",
                                      "faults.py"])
    def test_edit_to_hashed_source_changes_the_key(self, package, path):
        base = decompose("fig2", quick=True)[0].key
        target = package / path
        key = self._key_after(
            lambda: target.write_text(target.read_text() + "# edit\n"))
        assert key != base

    def test_new_hashed_module_changes_the_key(self, package):
        base = decompose("fig2", quick=True)[0].key
        key = self._key_after(
            lambda: (package / "sim" / "extra.py").write_text("X = 1\n"))
        assert key != base

    @pytest.mark.parametrize("path", ["runner/store.py", "cli.py"])
    def test_edit_outside_hashed_sources_keeps_the_key(self, package, path):
        base = decompose("fig2", quick=True)[0].key
        target = package / path
        key = self._key_after(
            lambda: target.write_text(target.read_text() + "# edit\n"))
        assert key == base

    def test_digest_is_computed_once_per_process(self, package):
        first = code_fingerprint()
        core = package / "sim" / "core.py"
        core.write_text(core.read_text() + "# edit\n")
        assert code_fingerprint() == first


class TestDecompose:
    def test_swept_experiment_one_job_per_point(self):
        for exp_id, exp in registry.EXPERIMENTS.items():
            jobs = decompose(exp_id, quick=True)
            assert len(jobs) == len(exp.points(True))
            assert all(j.kind == KIND_POINT for j in jobs)

    def test_table_experiment_is_single_job(self):
        for exp_id in ("table1", "table4"):
            (job,) = decompose(exp_id, quick=True)
            assert job.job_id == f"{exp_id}#000"
            assert job.kind == KIND_POINT
            assert job.config == {"quick": True}
            # Entries cached under the old whole-experiment kind are
            # never served for the one-point sweep.
            assert job.key != job_key(exp_id, "experiment", {"quick": True})

    def test_job_ids_are_stable_and_ordered(self):
        jobs = decompose("fig5", quick=True)
        assert [j.job_id for j in jobs] == \
            [f"fig5#{i:03d}" for i in range(len(jobs))]
        again = decompose("fig5", quick=True)
        assert [(j.job_id, j.key) for j in jobs] == \
            [(j.job_id, j.key) for j in again]

    def test_keys_unique_across_full_quick_sweep(self):
        jobs = decompose_many(registry.experiment_ids(), quick=True)
        keys = [j.key for j in jobs]
        assert len(set(keys)) == len(keys)
        assert len(jobs) > len(registry.experiment_ids())  # swept figs

    def test_quick_and_full_points_key_differently(self):
        quick = {j.key for j in decompose("fig5", quick=True)}
        full = {j.key for j in decompose("fig5", quick=False)}
        assert quick.isdisjoint(full)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="fig99"):
            decompose("fig99")

    def test_configs_are_json_able(self):
        for job in decompose_many(registry.experiment_ids(), quick=True):
            json.dumps(dict(job.config))


class TestExecuteAssemble:
    def test_whole_experiment_round_trip(self, monkeypatch):
        def fake(quick=False):
            res = ExperimentResult("zz", "t", "ref")
            res.add_check("ok", True)
            return res

        register_experiment(monkeypatch, "zz", whole=fake)
        (job,) = decompose("zz", quick=True)
        payload = execute_job("zz", job.kind, job.config)
        json.dumps(payload)  # must be wire-safe
        result = assemble("zz", [payload], quick=True)
        assert result == fake()

    def test_unknown_kind_rejected(self):
        for kind in ("bogus", "experiment"):
            with pytest.raises(ValueError, match="kind"):
                execute_job("fig5", kind, {})

    def test_assemble_rejects_wrong_payload_count(self):
        with pytest.raises(ValueError, match="expected 1"):
            assemble("table1", [{}, {}], quick=True)
