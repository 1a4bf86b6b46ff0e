"""Ledger of intercepted TLS flows: identity, dedup, and retest policies."""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path

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


class DuplicateFlowError(Exception):
    """A flow with an identical (app_id, fqdn, timestamp) tuple already exists."""


def normalize_fqdn(fqdn: str) -> str:
    """Lowercase, strip trailing dot. No punycode decoding: match on-the-wire SNI."""
    return fqdn.strip().lower().rstrip(".")


@dataclass(frozen=True)
class DedupKey:
    app_id: str
    fqdn: str

    def __post_init__(self):
        object.__setattr__(self, "fqdn", normalize_fqdn(self.fqdn))


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


class FlowLedger:
    """Append-only flow store; record/decide are one critical section.

    When a path is given, records are appended to a JSONL file as they arrive
    and the in-memory index is rebuilt on load. A last line cut mid-write is
    dropped on load, with a warning, and cut from the file.
    """

    def __init__(self, path: str | Path | None = None):
        self._lock = threading.RLock()
        self._records: list[FlowRecord] = []
        self._identities: set[tuple[str, str, int]] = set()
        # (app_id, fqdn, test) -> list of outcomes in arrival order.
        self._history: dict[tuple[str, str, str], list[str]] = {}
        self._path = Path(path) if path else None
        if self._path and self._path.exists():
            for line in self._complete_lines():
                if line.strip():
                    self._index(FlowRecord(**json.loads(line)))

    def _complete_lines(self) -> list[str]:
        """The file's lines, after mending an unterminated last line.

        One that is not JSON was torn by an interrupted append: the file is
        truncated to the line before it. One that is gets its newline. Either
        way the next append starts a line of its own.
        """
        data = self._path.read_bytes()
        end = data.rfind(b"\n") + 1
        tail = data[end:]
        if tail:
            try:
                json.loads(tail)
            except ValueError:
                log.warning("%s: dropping a torn last line of %d bytes", self._path, len(tail))
                os.truncate(self._path, end)
                data = data[:end]
            else:
                with self._path.open("ab") as fh:
                    fh.write(b"\n")
        return data.decode().splitlines()

    @property
    def lock(self) -> threading.RLock:
        return self._lock

    def _index(self, flow: FlowRecord) -> None:
        if flow.identity in self._identities:
            raise DuplicateFlowError(f"duplicate flow identity {flow.identity}")
        self._identities.add(flow.identity)
        self._records.append(flow)
        if flow.test_applied is not None:
            history_key = (flow.app_id, flow.fqdn, flow.test_applied)
            self._history.setdefault(history_key, []).append(flow.outcome)

    def record_flow(self, flow: FlowRecord) -> int:
        with self._lock:
            self._index(flow)
            if self._path:
                with self._path.open("a") as fh:
                    fh.write(flow.to_json() + "\n")
            return len(self._records)

    def next_ts_mono(self) -> int:
        with self._lock:
            return len(self._records)

    def decide_retest(self, key: DedupKey, policy: str, test: str) -> str:
        """Returns "test" or "skip", purely from the ledger history for (key, test)."""
        if policy not in POLICIES:
            raise ValueError(f"unknown policy: {policy}")
        if test not in TESTS:
            raise ValueError(f"unknown test: {test}")
        with self._lock:
            history = self._history.get((key.app_id, key.fqdn, test), [])
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
