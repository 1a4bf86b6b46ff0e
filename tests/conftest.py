import ssl

import pytest

from mitmscan.engine import MitmMaterial
from mitmscan.flowledger import read_ledger


@pytest.fixture(scope="session")
def material():
    return MitmMaterial.generate()


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
