"""Correlate runtime validation events with vulnerable flows.

Consumes validation-event logs (JSONL) produced by instrumentation or by the
synthetic fleet's self-reporting, and attributes each vulnerable flow to the
code location whose validation logic accepted it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .flowledger import FlowRecord, normalize_fqdn, parse_json_line
from .metrics import rate
from .taxonomy import INTERFACE_KINDS


@dataclass
class ValidationEvent:
    event_id: str
    app_id: str
    code_location: str
    interface_kind: str
    verdict: str
    mitm_active: bool
    ts: float
    hostname_param: str | None = None
    cert_cn: str | None = None
    cert_sans: list[str] | None = None

    def __post_init__(self):
        # Later stages sort these fields, call string methods on them or branch on mitm_active.
        host, cn, sans = self.hostname_param, self.cert_cn, self.cert_sans
        if not (
            type(self.app_id) is str
            and type(self.code_location) is str
            and type(self.mitm_active) is bool
            and (host is None or type(host) is str)
            and (cn is None or type(cn) is str)
            and (sans is None or type(sans) is list)
        ):
            raise ValueError(f"event {self.event_id!r} has a field of the wrong type")
        for name in sans or ():
            if type(name) is not str:
                raise ValueError(f"event {self.event_id!r} has a SAN that is no string: {name!r}")
        if self.interface_kind not in INTERFACE_KINDS:
            raise ValueError(f"bad interface_kind: {self.interface_kind}")
        if self.verdict not in ("accepted", "rejected"):
            raise ValueError(f"bad verdict: {self.verdict}")
        if self.interface_kind in ("hostname_verifier", "webview_client"):
            if self.hostname_param is None:
                raise ValueError(f"{self.interface_kind} events need hostname_param")
        elif self.cert_cn is None and not self.cert_sans:
            raise ValueError("trust_manager events need certificate names")

    @property
    def channel(self) -> str:
        """The flow channel this event's validation code serves."""
        return "webview" if self.interface_kind == "webview_client" else "native"

    def cert_names(self) -> list[str]:
        names = []
        if self.cert_cn:
            names.append(self.cert_cn)
        names.extend(self.cert_sans or [])
        return names

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


@dataclass
class Attribution:
    code_location: str
    matched_flows: set[tuple[str, str, int]]
    match_mode: str  # direct_hostname | cert_name | active_mitm

    def __post_init__(self):
        if not self.matched_flows:
            raise ValueError("attribution must match at least one flow")


def load_events(path: str | Path) -> list[ValidationEvent]:
    lines = Path(path).read_text().splitlines()
    return [ValidationEvent(**parse_json_line(line)) for line in lines if line.strip()]


def save_events(events: list[ValidationEvent], path: str | Path) -> None:
    with Path(path).open("w") as fh:
        for event in events:
            fh.write(event.to_json() + "\n")


def match_cert_names(fqdn: str, names: list[str]) -> bool:
    """Case-insensitive exact match, or a single leftmost-label wildcard, as OpenSSL does.

    ``*.example.com`` matches ``a.example.com`` but not ``example.com``,
    ``a.b.example.com`` or ``a.example.com.``; ``*.example`` matches nothing.
    """
    fqdn = fqdn.lower()
    for name in names:
        name = normalize_fqdn(name)
        if name == fqdn:
            return True
        if name.startswith("*.") and "." in name[2:]:
            suffix = name[2:]
            if fqdn.endswith("." + suffix) and fqdn.count(".") == suffix.count(".") + 1:
                return True
    return False


def _event_matches_flow(event: ValidationEvent, flow: FlowRecord) -> str | None:
    """Returns the passive match mode linking event to flow, or None.

    The caller has already paired the event with flows of its own app and
    channel.
    """
    if event.hostname_param is not None:
        if normalize_fqdn(event.hostname_param) == flow.fqdn:
            return "direct_hostname"
        return None
    if match_cert_names(flow.fqdn, event.cert_names()):
        return "cert_name"
    return None


def correlate(
    events: list[ValidationEvent],
    vulnerable_flows: list[FlowRecord],
) -> tuple[list[Attribution], list[FlowRecord]]:
    """Attribute vulnerable flows to code locations.

    Passive pass: hostname equality or certificate-name matching, against the
    events of the flow's own app and channel only. Active pass: where
    accepting mitm_active events exist for a flow, they override passive
    links so only the code path that actually accepted the forged certificate
    is attributed. Returns (attributions, unmatched_flows).
    """
    by_app_channel: dict[tuple[str, str], list[ValidationEvent]] = {}
    for event in events:
        by_app_channel.setdefault((event.app_id, event.channel), []).append(event)

    by_location: dict[str, Attribution] = {}
    unmatched: list[FlowRecord] = []
    for flow in vulnerable_flows:
        linked = []
        for event in by_app_channel.get((flow.app_id, flow.channel), ()):
            mode = _event_matches_flow(event, flow)
            if mode is not None:
                linked.append((event, mode))
        if not linked:
            unmatched.append(flow)
            continue
        active = [
            (e, "active_mitm") for e, _ in linked if e.mitm_active and e.verdict == "accepted"
        ]
        for event, mode in active or linked:
            attribution = by_location.get(event.code_location)
            if attribution is None:
                by_location[event.code_location] = Attribution(
                    code_location=event.code_location,
                    matched_flows={flow.identity},
                    match_mode=mode,
                )
            else:
                attribution.matched_flows.add(flow.identity)
                if mode == "active_mitm":
                    attribution.match_mode = "active_mitm"
    return list(by_location.values()), unmatched


def coverage(
    attributions: list[Attribution], vulnerable_flows: list[FlowRecord]
) -> dict[str, float | None]:
    """Locator coverage ratios; undefined (None) rather than 0 on empty sets.

    ``fqdn_cov`` and ``flow_cov`` are the shares of vulnerable (app, host)
    pairs and flows that some code location was attributed; ``app_all`` and
    ``app_one`` the shares of vulnerable apps with all, or at least one, of
    their vulnerable flows attributed.
    """
    attributed = set().union(*(a.matched_flows for a in attributions))
    located = [f for f in vulnerable_flows if f.identity in attributed]
    vuln_fqdns = {(f.app_id, f.fqdn) for f in vulnerable_flows}
    located_fqdns = {(f.app_id, f.fqdn) for f in located}

    # app -> whether each of its vulnerable flows was located.
    located_by_app: dict[str, list[bool]] = {}
    for f in vulnerable_flows:
        located_by_app.setdefault(f.app_id, []).append(f.identity in attributed)

    return {
        "fqdn_cov": rate(len(located_fqdns), len(vuln_fqdns)),
        "flow_cov": rate(len(located), len(vulnerable_flows)),
        "app_all": rate(sum(all(v) for v in located_by_app.values()), len(located_by_app)),
        "app_one": rate(sum(any(v) for v in located_by_app.values()), len(located_by_app)),
    }
