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
    transport: str = "TCP"
    tls_version: str = "unknown"
    channel: str = "native"
    test_applied: str | None = None
    outcome: str = "inconclusive"
    # True when the destination had no SNI and is keyed by IP literal.
    sni_less: bool = False

    def __post_init__(self):
        self.fqdn = normalize_fqdn(self.fqdn)
        if self.transport not in TRANSPORTS:
            raise ValueError(f"bad transport: {self.transport}")
        if self.tls_version not in TLS_VERSIONS:
            raise ValueError(f"bad tls_version: {self.tls_version}")
        if self.channel not in CHANNELS:
            raise ValueError(f"bad channel: {self.channel}")
        if self.outcome not in OUTCOMES:
            raise ValueError(f"bad outcome: {self.outcome}")
        if self.test_applied is not None and self.test_applied not in TESTS:
            raise ValueError(f"bad test_applied: {self.test_applied}")
        if self.outcome == "skipped" and self.test_applied is None:
            raise ValueError("skipped flows must carry the test the policy skipped")

    @property
    def identity(self) -> tuple[str, str, int]:
        return (self.app_id, self.fqdn, self.ts_mono)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


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
            json.loads(lines[-1])
        except ValueError:
            log.warning("%s: leaving out a torn last line of %d bytes", path, len(lines[-1]))
            lines.pop()
    records = [FlowRecord(**json.loads(line)) for line in lines if line.strip()]
    seen: set[tuple[str, str, int]] = set()
    for record in records:
        if record.identity in seen:
            raise ValueError(f"{path}: repeated flow identity {record.identity}")
        seen.add(record.identity)
    return records


class FlowLedger:
    """Append-only flow store that numbers its own records.

    Every method holds the ledger's private lock only while it reads or
    writes the store, so callers share no lock and hold none across I/O.
    When a path is given, the file there starts empty and each record is
    appended to it as a JSONL line as it arrives; ``read_ledger`` reads it.
    """

    def __init__(self, path: str | Path | None = None):
        self._lock = threading.Lock()
        self._records: list[FlowRecord] = []
        # (app_id, fqdn, test) -> list of outcomes in arrival order.
        self._history: dict[tuple[str, str, str], list[str]] = {}
        self._path = Path(path) if path else None
        if self._path:
            self._path.write_bytes(b"")

    def record_flow(self, **fields) -> None:
        """Append the flow of ``fields``; its ``ts_mono`` is the count of records before it."""
        with self._lock:
            flow = FlowRecord(ts_mono=len(self._records), **fields)
            self._records.append(flow)
            if flow.test_applied is not None:
                history_key = (flow.app_id, flow.fqdn, flow.test_applied)
                self._history.setdefault(history_key, []).append(flow.outcome)
            if self._path:
                with self._path.open("a") as fh:
                    fh.write(flow.to_json() + "\n")

    def decide_retest(self, app_id: str, fqdn: str, policy: str, test: str) -> str:
        """Returns "test" or "skip", purely from the ledger history for (app, host, test)."""
        with self._lock:
            history = self._history.get((app_id, normalize_fqdn(fqdn), test), [])
            if policy == POLICY_ALWAYS:
                return "test"
            tested = [o for o in history if o != "skipped"]
            if policy == POLICY_ONCE:
                return "skip" if tested else "test"
            # P3: retest until a vulnerability is detected.
            return "skip" if "vulnerable" in tested else "test"

    def records(self) -> list[FlowRecord]:
        with self._lock:
            return list(self._records)

    def unique_entities(self) -> dict[str, int]:
        with self._lock:
            apps = {r.app_id for r in self._records}
            fqdns = {r.fqdn for r in self._records}
            app_fqdns = {(r.app_id, r.fqdn) for r in self._records}
            return {
                "apps": len(apps),
                "flows": len(self._records),
                "fqdns": len(fqdns),
                "app_fqdns": len(app_fqdns),
            }
