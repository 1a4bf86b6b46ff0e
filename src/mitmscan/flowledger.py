"""Ledger of intercepted TLS flows: identity, dedup, and retest policies."""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from pathlib import Path

from .certforge import is_valid_san

log = logging.getLogger(__name__)

TRANSPORTS = ("TCP", "UDP")
TLS_VERSIONS = ("TLS1.2", "TLS1.3", "unknown")
CHANNELS = ("native", "webview")
TESTS = ("T1", "T2", "T3")
OUTCOMES = ("vulnerable", "secure", "inconclusive", "skipped")

POLICY_ALWAYS = "P1_always"
POLICY_ONCE = "P2_once_per_fqdn"
POLICY_UNTIL_VULNERABLE = "P3_until_vulnerable"
POLICIES = (POLICY_ALWAYS, POLICY_ONCE, POLICY_UNTIL_VULNERABLE)

# CLI-facing aliases.
POLICY_ALIASES = {
    "always": POLICY_ALWAYS,
    "skip": POLICY_ONCE,
    "skip-if-vulnerable": POLICY_UNTIL_VULNERABLE,
}


def normalize_fqdn(fqdn: str) -> str:
    """Lowercase, strip trailing dot. No punycode decoding: match on-the-wire SNI."""
    return fqdn.strip().lower().rstrip(".")


def is_requestable(fqdn: str) -> bool:
    """Whether a flow can request ``fqdn``: normalized, a SAN name that is no wildcard."""
    return is_valid_san(host := normalize_fqdn(fqdn)) and not host.startswith("*.")


@dataclass
class FlowRecord:
    app_id: str
    fqdn: str
    ts_wall: str
    ts_mono: int
    test_applied: str
    transport: str = "TCP"
    tls_version: str = "unknown"
    channel: str = "native"
    outcome: str = "inconclusive"
    # True when the destination had no SNI and is keyed by IP literal.
    sni_less: bool = False

    def __post_init__(self):
        # Later stages sort these fields or call string methods on them.
        if not (type(self.app_id) is str and type(self.fqdn) is str and type(self.ts_mono) is int):
            raise ValueError(f"app_id, fqdn or ts_mono of the wrong type in flow {vars(self)}")
        self.fqdn = normalize_fqdn(self.fqdn)
        if self.transport not in TRANSPORTS:
            raise ValueError(f"bad transport: {self.transport}")
        if self.tls_version not in TLS_VERSIONS:
            raise ValueError(f"bad tls_version: {self.tls_version}")
        if self.channel not in CHANNELS:
            raise ValueError(f"bad channel: {self.channel}")
        if self.outcome not in OUTCOMES:
            raise ValueError(f"bad outcome: {self.outcome}")
        if self.test_applied not in TESTS:
            raise ValueError(f"bad test_applied: {self.test_applied}")

    @property
    def identity(self) -> tuple[str, str, int]:
        return (self.app_id, self.fqdn, self.ts_mono)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


_raw_decode = json.JSONDecoder().raw_decode


def parse_json_line(line: str):
    """``json.loads(line)``, one pass over JSON's whitespace (str.strip() also takes "\\x0c")."""
    value, end = _raw_decode(text := line.strip(" \t\n\r"))
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def read_ledger(path: str | Path) -> list[FlowRecord]:
    """The records of the ledger file at ``path``, which is only read.

    A last line with no newline that is not JSON was torn by an interrupted
    append: it is left out, with a warning. Raises ValueError on a bad line
    or a repeated flow identity.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if lines and not text.endswith("\n"):
        try:
            parse_json_line(lines[-1])
        except ValueError:
            log.warning("%s: leaving out a torn last line of %d bytes", path, len(lines[-1]))
            lines.pop()
    records = [FlowRecord(**parse_json_line(line)) for line in lines if line.strip()]
    seen: set[tuple[str, str, int]] = set()
    for record in records:
        if record.identity in seen:
            raise ValueError(f"{path}: repeated flow identity {record.identity}")
        seen.add(record.identity)
    return records


class FlowLedger:
    """Append-only flow store that numbers its own records and keeps no copy of them.

    It keeps their count, for ``ts_mono``, and the (app, host, test) keys
    tested and found vulnerable, for ``decide_retest``. Every method holds
    the ledger's private lock only while it reads or writes them, so callers
    share no lock and hold none across I/O. When a path is given, the file
    there starts empty and each record is appended to it as a JSONL line as
    it arrives; ``read_ledger`` reads it.
    """

    def __init__(self, path: str | Path | None = None):
        self._lock = threading.Lock()
        self._count = 0
        self._tested: set[tuple[str, str, str]] = set()
        self._vulnerable: set[tuple[str, str, str]] = set()
        self._path = Path(path) if path else None
        if self._path:
            self._path.write_bytes(b"")

    def record_flow(self, **fields) -> None:
        """Append the flow of ``fields``; its ``ts_mono`` is the count of records before it."""
        with self._lock:
            flow = FlowRecord(ts_mono=self._count, **fields)
            self._count += 1
            key = (flow.app_id, flow.fqdn, flow.test_applied)
            if flow.outcome != "skipped":
                self._tested.add(key)
            if flow.outcome == "vulnerable":
                self._vulnerable.add(key)
            if self._path:
                with self._path.open("a") as fh:
                    fh.write(flow.to_json() + "\n")

    def decide_retest(self, app_id: str, fqdn: str, policy: str, test: str) -> str:
        """Returns "test" or "skip", purely from the ledger's past flows for (app, host, test)."""
        key = (app_id, normalize_fqdn(fqdn), test)
        # P2 skips a key once it was tested, P3 once it was found vulnerable.
        skips = {POLICY_ONCE: self._tested, POLICY_UNTIL_VULNERABLE: self._vulnerable}
        with self._lock:
            return "skip" if key in skips.get(policy, ()) else "test"
