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
