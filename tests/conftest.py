import importlib.util
import ssl
from pathlib import Path

import pytest

from mitmscan.engine import MitmMaterial
from mitmscan.flowledger import read_ledger


@pytest.fixture(scope="session")
def material():
    return MitmMaterial.generate()


@pytest.fixture(scope="session")
def expect():
    """perfbench/expect.py, the benchmark's oracle written apart from this package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expect.py"
    spec = importlib.util.spec_from_file_location("perfbench_expect", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def root_fingerprints(material):
    """Root name -> fingerprint, which ``expect.accepts`` resolves a pin_root pin by."""
    roots = (material.untrusted_root, material.lab_trusted_root, material.installed_root)
    return {root.name: root.fingerprint for root in roots}


@pytest.fixture
def ledger_file(tmp_path):
    """A path for a FlowLedger's file, and a function that reads its records back."""
    path = tmp_path / "ledger.jsonl"
    return path, lambda: read_ledger(path)


@pytest.fixture
def context_loads(monkeypatch):
    """Every ``SSLContext.load_cert_chain`` call from here on, by the file it loads."""
    loads = []
    load = ssl.SSLContext.load_cert_chain

    def counting(ctx, certfile, *args, **kwargs):
        loads.append(certfile)
        return load(ctx, certfile, *args, **kwargs)

    monkeypatch.setattr(ssl.SSLContext, "load_cert_chain", counting)
    return loads
