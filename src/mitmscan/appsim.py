"""Synthetic app fleet: scripted UI exploration driving real TLS flows.

Each synthetic app is a small screen graph. Exercising an action triggers
network flows. Flows to hosts in the scan's allowlist go to the interception
engine; any other flow is counted as DIRECT and opens no socket, as traffic
outside a per-app VPN's set is never measured. The app's TLS client behavior
comes from its :class:`~mitmscan.profiles.ClientProfile`.
"""

from __future__ import annotations

import datetime
import functools
import json
import logging
import random
import socket
import ssl
import time
from dataclasses import dataclass, field

from cryptography import x509

from .certforge import TrustStore
from .flowledger import CHANNELS, POLICIES, is_requestable
from .profiles import ClientProfile, client_accepts

log = logging.getLogger(__name__)

STRATEGIES = ("random", "scripted", "external_llm")

MAX_REPLY_BYTES = 64 * 1024

BACK_ACTION = "back"


@dataclass(frozen=True)
class ScanConfig:
    strategy: str = "random"
    n_steps: int = 10  # -1 means unbounded, stop on t_max
    t_max: float | None = None  # seconds of session budget
    t_wait: float = 0.0  # settle time between actions
    policy: str = "P1_always"
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"bad strategy: {self.strategy}")
        if self.n_steps < 1 and self.n_steps != -1:
            raise ValueError("n_steps must be >= 1, or -1 for unbounded")
        if self.n_steps == -1 and self.t_max is None:
            raise ValueError("unbounded sessions need a time budget")
        if self.t_wait < 0:
            raise ValueError("t_wait must be >= 0")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy: {self.policy}")


@dataclass(frozen=True)
class FlowSpec:
    fqdn: str
    channel: str = "native"

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"bad channel: {self.channel}")
        if not is_requestable(self.fqdn):
            raise ValueError(f"host {self.fqdn!r} is no name a flow can request")


@dataclass(frozen=True)
class Action:
    label: str
    flows: tuple[FlowSpec, ...] = ()
    goto: str | None = None


@dataclass(frozen=True)
class Screen:
    name: str
    actions: tuple[Action, ...] = ()


@dataclass
class SyntheticApp:
    app_id: str
    profile: ClientProfile
    screens: dict[str, Screen]
    start_screen: str

    def __post_init__(self):
        if self.start_screen not in self.screens:
            raise ValueError(f"start screen {self.start_screen!r} not defined")
        if not self.screens[self.start_screen].actions:
            raise ValueError(f"start screen {self.start_screen!r} has no action")
        for screen in self.screens.values():
            for action in screen.actions:
                if action.goto is not None and action.goto not in self.screens:
                    raise ValueError(f"action {action.label!r} jumps to unknown screen")

    def fqdns(self) -> list[str]:
        seen: dict[str, None] = {}
        for screen in self.screens.values():
            for action in screen.actions:
                for flow in action.flows:
                    seen.setdefault(flow.fqdn)
        return list(seen)


# -- exploration strategies --------------------------------------------------


def _candidate_actions(screen: Screen, at_start: bool) -> list[Action]:
    actions = list(screen.actions)
    if not at_start:
        actions.append(Action(label=BACK_ACTION))
    return actions


def next_action(
    app: SyntheticApp,
    screen: Screen,
    rng: random.Random,
    strategy: str,
    script: list[str] | None = None,
    step: int = 0,
    llm=None,
) -> Action:
    """Choose the next UI action on a screen under the given strategy."""
    at_start = screen.name == app.start_screen
    candidates = _candidate_actions(screen, at_start)
    if strategy == "random":
        return rng.choice(candidates)
    if strategy == "scripted":
        if script is None or step >= len(script):
            raise ValueError("scripted strategy exhausted its script")
        label = script[step]
        for action in candidates:
            if action.label == label:
                return action
        raise ValueError(f"script step {label!r} not available on {screen.name!r}")
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


def build_action_prompt(app: SyntheticApp, screen: Screen, candidates: list[Action]) -> str:
    labels = ", ".join(a.label for a in candidates)
    return (
        f"You are exploring the app {app.app_id}. Current screen: {screen.name}.\n"
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
    accepted: bool | None  # None when not intercepted (DIRECT) or on a transport error
    error: str | None = None


@dataclass
class SessionResult:
    app_id: str
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


def _read_line(sock: socket.socket) -> bytes:
    """The engine's reply line, read in chunks and left unused.

    Chunks are safe: the engine sends nothing after the line until the
    client's ClientHello, so no TLS bytes are consumed here.
    """
    buf = bytearray()
    while not buf.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("engine closed before the end of its reply")
        buf += chunk
        if len(buf) > MAX_REPLY_BYTES:
            raise ValueError(f"engine reply over {MAX_REPLY_BYTES} bytes")
    return bytes(buf)


def served_chain(tls: ssl.SSLSocket | ssl.SSLObject) -> list[x509.Certificate]:
    """The chain the peer presented in the handshake, leaf first, unverified."""
    chain = tls._sslobj.get_unverified_chain() or ()
    return [x509.load_der_x509_certificate(c.public_bytes(ssl._ssl.ENCODING_DER)) for c in chain]


def perform_flow(
    app: SyntheticApp,
    spec: FlowSpec,
    engine_addr: tuple[str, int],
    store: TrustStore,
    now: datetime.datetime,
    timeout: float = 10.0,
) -> FlowResult:
    """Run one intercepted flow: preamble, TLS handshake, then a verdict on the served chain."""
    try:
        raw = socket.create_connection(engine_addr, timeout=timeout)
    except OSError as exc:
        return FlowResult(spec.fqdn, spec.channel, "MITM", None, f"connect: {exc}")
    try:
        # Finished and the request go out back to back; see Listener._accept_loop.
        raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        preamble = {"app_id": app.app_id, "fqdn": spec.fqdn, "channel": spec.channel}
        raw.sendall(json.dumps(preamble).encode() + b"\n")
        _read_line(raw)
        tls = _client_context().wrap_socket(raw, server_hostname=spec.fqdn)
        chain = served_chain(tls)
        accepted = client_accepts(app.profile, chain, spec.fqdn, spec.channel, store, now)
        if accepted:
            tls.sendall(b"ping")
            tls.recv(64)
        else:
            # The engine records the flow before it closes, so reading to its
            # EOF (past any alert it sends) orders this flow before the next.
            tls.shutdown(socket.SHUT_WR)
            while tls.recv(4096):
                pass
        tls.close()
        return FlowResult(spec.fqdn, spec.channel, "MITM", accepted)
    except (OSError, ssl.SSLError, ValueError) as exc:
        return FlowResult(spec.fqdn, spec.channel, "MITM", None, str(exc))
    finally:
        raw.close()


def execute_session(
    app: SyntheticApp,
    config: ScanConfig,
    mitm_hosts: set[str],
    engine_addr: tuple[str, int],
    store: TrustStore,
    now: datetime.datetime,
    script: list[str] | None = None,
    llm=None,
) -> SessionResult:
    """Explore one app sequentially, executing every flow its actions trigger.

    A flow goes to the engine when its host, lowercased, is in ``mitm_hosts``.
    """
    rng = random.Random(f"{config.seed}:{app.app_id}")
    result = SessionResult(app_id=app.app_id)
    screen = app.screens[app.start_screen]
    history: list[str] = []
    started = time.monotonic()
    step = 0
    while config.n_steps == -1 or step < config.n_steps:
        if config.t_max is not None and time.monotonic() - started >= config.t_max:
            result.partial = config.n_steps != -1
            break
        action = next_action(app, screen, rng, config.strategy, script, step, llm)
        step += 1
        result.steps_taken = step
        for spec in action.flows:
            if spec.fqdn.lower() in mitm_hosts:
                result.flows.append(perform_flow(app, spec, engine_addr, store, now))
            else:
                result.flows.append(FlowResult(spec.fqdn, spec.channel, "DIRECT", None))
        if action.label == BACK_ACTION:
            history.pop() if history else None
            screen = app.screens[history[-1] if history else app.start_screen]
        elif action.goto is not None:
            history.append(screen.name)
            screen = app.screens[action.goto]
        if config.t_wait:
            time.sleep(config.t_wait)
    return result
