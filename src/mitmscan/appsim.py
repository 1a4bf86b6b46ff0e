"""Synthetic app fleet: UI exploration driving real TLS flows.

Each synthetic app is a small screen graph. Exercising an action triggers
network flows. Flows to hosts in the scan's allowlist go to the interception
engine; any other flow is counted as DIRECT and opens no socket, as traffic
outside a per-app VPN's set is never measured. The app's TLS client behavior
comes from its :class:`~mitmscan.profiles.ClientProfile`.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import random
import socket
import ssl
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .certforge import DEFAULT_NOW, TrustStore
from .flowledger import CHANNELS, is_requestable, normalize_fqdn
from .profiles import ClientProfile, client_accepts

if TYPE_CHECKING:
    from cryptography import x509

log = logging.getLogger(__name__)

STRATEGIES = ("random", "scripted", "external_llm")

FLOW_TIMEOUT_SECONDS = 10.0  # bounds each socket wait of a flow

BACK_ACTION = "back"


@dataclass(frozen=True)
class ScanConfig:
    strategy: str = "random"
    n_steps: int = 10  # the most actions a session takes
    t_max: float | None = None  # seconds of session budget
    t_wait: float = 0.0  # settle time between actions
    policy: str = "P1_always"
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"bad strategy: {self.strategy}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (math.isfinite(self.t_wait) and self.t_wait >= 0):
            raise ValueError("t_wait must be finite and >= 0")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError("t_max must be > 0")


@dataclass(frozen=True)
class FlowSpec:
    fqdn: str
    channel: str = "native"

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"bad channel: {self.channel}")
        if not is_requestable(self.fqdn):
            raise ValueError(f"host {self.fqdn!r} is no name a flow can request")
        object.__setattr__(self, "fqdn", normalize_fqdn(self.fqdn))


@dataclass(frozen=True)
class Action:
    label: str
    flows: tuple[FlowSpec, ...] = ()
    goto: str | None = None


@dataclass
class SyntheticApp:
    app_id: str
    profile: ClientProfile
    screens: dict[str, tuple[Action, ...]]  # a screen's name -> its actions
    start_screen: str

    def __post_init__(self):
        if self.start_screen not in self.screens:
            raise ValueError(f"start screen {self.start_screen!r} not defined")
        if not self.screens[self.start_screen]:
            raise ValueError(f"start screen {self.start_screen!r} has no action")
        for screen, actions in self.screens.items():
            labels = [action.label for action in actions]
            if BACK_ACTION in labels or len(set(labels)) != len(labels):
                raise ValueError(f"screen {screen!r} repeats a label or uses {BACK_ACTION!r}")
            for action in actions:
                if action.goto is not None and action.goto not in self.screens:
                    raise ValueError(f"action {action.label!r} jumps to unknown screen")

    def fqdns(self) -> list[str]:
        seen: dict[str, None] = {}
        for actions in self.screens.values():
            for action in actions:
                for flow in action.flows:
                    seen.setdefault(flow.fqdn)
        return list(seen)


# -- exploration strategies --------------------------------------------------


def _candidate_actions(app: SyntheticApp, screen: str, history: list[str]) -> list[Action]:
    actions = list(app.screens[screen])
    if history:
        actions.append(Action(label=BACK_ACTION))
    return actions


def next_action(
    app: SyntheticApp,
    screen: str,
    rng: random.Random,
    strategy: str,
    history: list[str],
    taken: set[tuple[str, str]],
    llm=None,
) -> Action | None:
    """Choose the next UI action on the screen named ``screen`` under the given strategy.

    ``history`` names the screens ``back`` returns to, the latest last;
    ``back`` is offered exactly when it is not empty. ``scripted`` walks the
    screen graph depth first: the first action of the screen whose
    ``(screen name, label)`` is not in ``taken``, else ``back``, else None
    once the walk is done.
    """
    candidates = _candidate_actions(app, screen, history)
    if strategy == "random":
        return rng.choice(candidates)
    if strategy == "scripted":
        for action in candidates:
            if (screen, action.label) not in taken:
                return action
        return None
    # external_llm: ask the backend, fall back to random on unusable output.
    prompt = build_action_prompt(app, screen, candidates)
    try:
        reply = llm(prompt) if llm else ""
    except Exception as exc:
        log.warning("action backend failed (%s); choosing randomly", exc)
        return rng.choice(candidates)
    chosen = parse_action_reply(reply, candidates)
    if chosen is None:
        log.warning("unparsable action reply %r; choosing randomly", reply)
        return rng.choice(candidates)
    return chosen


def build_action_prompt(app: SyntheticApp, screen: str, candidates: list[Action]) -> str:
    labels = ", ".join(a.label for a in candidates)
    return (
        f"You are exploring the app {app.app_id}. Current screen: {screen}.\n"
        f"Available actions: {labels}.\n"
        "Reply with two lines:\n"
        "Thoughts: <one sentence>\n"
        "Action: <one action name from the list>"
    )


def parse_action_reply(reply: str, candidates: list[Action]) -> Action | None:
    for line in reply.splitlines():
        if line.lower().startswith("action:"):
            label = line.split(":", 1)[1].strip()
            for action in candidates:
                if action.label == label:
                    return action
    return None


# -- flow execution ----------------------------------------------------------


@dataclass
class FlowResult:
    fqdn: str
    channel: str
    route: str
    accepted: bool | None  # None when not intercepted (DIRECT or skipped) or on an error
    error: str | None = None


@dataclass
class SessionResult:
    flows: list[FlowResult] = field(default_factory=list)
    steps_taken: int = 0
    partial: bool = False  # time budget expired before the step budget


@functools.cache
def _client_context() -> ssl.SSLContext:
    """The one client context, built on the first flow.

    The verdict comes from client_accepts on the chain the handshake served,
    so the handshake itself verifies nothing and the context holds no
    per-flow state. Building it on first use keeps OpenSSL's set-up out of
    processes that make no flow.
    """
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False
    ctx.verify_mode = ssl.CERT_NONE
    return ctx


def served_chain(tls: ssl.SSLSocket | ssl.SSLObject) -> list[x509.Certificate]:
    """The chain the peer presented in the handshake, leaf first, unverified."""
    from cryptography import x509
    chain = tls._sslobj.get_unverified_chain() or ()
    return [x509.load_der_x509_certificate(c.public_bytes(ssl._ssl.ENCODING_DER)) for c in chain]


def perform_flow(
    app: SyntheticApp,
    spec: FlowSpec,
    engine_addr: tuple[str, int],
    store: TrustStore,
) -> FlowResult:
    """Run one flow: the preamble, the engine's reply line and, on ``test``, a TLS handshake.

    The engine answers the line ``test`` or ``skip``, and the client reads at
    most its five bytes, so it takes no byte of the handshake. A skipped flow
    is recorded by the engine and not intercepted: its ``accepted`` and
    ``error`` are None. Any other reply, or a close before five bytes, is a
    flow error, with no ClientHello sent. On ``test`` the client decides on
    the chain the handshake served, sends a request if it accepts it, and
    then shuts its write side and reads to the engine's close.
    """
    try:
        raw = socket.create_connection(engine_addr, timeout=FLOW_TIMEOUT_SECONDS)
    except OSError as exc:
        return FlowResult(spec.fqdn, spec.channel, "MITM", None, f"connect: {exc}")
    try:
        with raw:
            # Finished and the request go out back to back; see Listener._work.
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            preamble = {"app_id": app.app_id, "fqdn": spec.fqdn, "channel": spec.channel}
            raw.sendall(json.dumps(preamble).encode() + b"\n")
            reply = b""
            while len(reply) < 5 and (chunk := raw.recv(5 - len(reply))):
                reply += chunk
            if reply == b"skip\n":
                return FlowResult(spec.fqdn, spec.channel, "MITM", None)
            if reply != b"test\n":
                raise ValueError(f"engine reply {reply!r} is no test or skip line")
            with _client_context().wrap_socket(raw, server_hostname=spec.fqdn) as tls:
                chain = served_chain(tls)
                accepted = client_accepts(app.profile, chain, spec.fqdn, spec.channel, store, DEFAULT_NOW)
                if accepted:
                    tls.sendall(b"ping")
                # The engine records the flow before it closes, so reading to its
                # EOF (past any alert it sends) orders this flow before the next.
                tls.shutdown(socket.SHUT_WR)
                while tls.recv(4096):
                    pass
        return FlowResult(spec.fqdn, spec.channel, "MITM", accepted)
    except (OSError, ValueError) as exc:  # ssl.SSLError is an OSError
        return FlowResult(spec.fqdn, spec.channel, "MITM", None, str(exc))


def execute_session(
    app: SyntheticApp,
    config: ScanConfig,
    mitm_hosts: set[str],
    engine_addr: tuple[str, int],
    store: TrustStore,
    llm=None,
) -> SessionResult:
    """Explore one app sequentially, executing every flow its actions trigger.

    A flow goes to the engine when its host is in ``mitm_hosts``, a set of normalized hosts.
    The session ends after ``config.n_steps`` actions or when ``next_action`` returns None.
    """
    rng = random.Random(f"{config.seed}:{app.app_id}")
    result = SessionResult()
    screen = app.start_screen
    history: list[str] = []
    taken: set[tuple[str, str]] = set()
    started = time.monotonic()
    while result.steps_taken < config.n_steps:
        if config.t_max is not None and time.monotonic() - started >= config.t_max:
            result.partial = True
            break
        action = next_action(app, screen, rng, config.strategy, history, taken, llm)
        if action is None:
            break
        result.steps_taken += 1
        for spec in action.flows:
            if spec.fqdn in mitm_hosts:
                result.flows.append(perform_flow(app, spec, engine_addr, store))
            else:
                result.flows.append(FlowResult(spec.fqdn, spec.channel, "DIRECT", None))
        if action.label == BACK_ACTION:
            screen = history.pop()
        else:
            taken.add((screen, action.label))
            if action.goto is not None:
                history.append(screen)
                screen = action.goto
        if config.t_wait:
            time.sleep(config.t_wait)
    return result
