"""Package-level metadata and API-surface tests."""

import importlib
import pathlib

import pytest

import repro


class TestVersion:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_pyproject_agrees(self):
        root = pathlib.Path(repro.__file__).resolve().parents[2]
        pyproject = root / "pyproject.toml"
        assert f'version = "{repro.__version__}"' in pyproject.read_text()


class TestPublicAPI:
    @pytest.mark.parametrize("module", [
        "repro.sim", "repro.machine", "repro.pfs", "repro.iolib",
        "repro.mp", "repro.trace", "repro.apps", "repro.experiments",
        "repro.analysis", "repro.advisor", "repro.runner",
    ])
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert hasattr(mod, "__all__")
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_top_level_convenience_imports(self):
        assert repro.Machine is not None
        assert repro.PFS is not None
        assert callable(repro.paragon_large)

    @pytest.mark.parametrize("module", [
        "repro.sim", "repro.machine", "repro.pfs", "repro.iolib",
        "repro.mp", "repro.trace", "repro.apps", "repro.experiments",
        "repro.analysis", "repro.advisor", "repro.cli", "repro.runner", "repro.runner.jobs",
        "repro.runner.keys", "repro.runner.store", "repro.runner.executor",
        "repro.runner.progress", "repro.runner.service",
    ])
    def test_every_module_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20

    def test_public_classes_documented(self):
        from repro.iolib import TwoPhaseIO, PrefetchReader, OutOfCoreArray
        from repro.pfs import PFS, StripeMap
        from repro.sim import Environment, Process
        for obj in (TwoPhaseIO, PrefetchReader, OutOfCoreArray, PFS,
                    StripeMap, Environment, Process):
            assert obj.__doc__, obj
