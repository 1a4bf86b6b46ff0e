"""TLS interception engine: terminate flows with forged chains, classify outcomes.

Connections arrive over localhost TCP with a one-line JSON preamble carrying
the forwarder metadata (app id, destination FQDN, channel); it stands in for
the per-app VPN forwarder. A preamble over ``MAX_PREAMBLE_BYTES``,
malformed, or not ended by the connection's deadline drops the connection
with one warning and no reply. Otherwise the engine answers with the line
``test`` or ``skip``, which tells the client whether its flow is
intercepted. A flow the retest policy skips costs no leaf, server context
or handshake. On ``test`` a real TLS handshake follows over the same socket,
and clients decide on the chain that handshake served.

A verdict rests on what the client did: data after the handshake is
``vulnerable``, an alert in it or a clean close right after it is ``secure``,
and anything else, such as a timeout, a reset or bytes that are not TLS 1.2+,
is ``inconclusive``. The engine records a flow before it sends a skip reply
or closes the connection, so a finished flow is in the ledger by the time its
client sees the flow end, and a client's next flow decides on it. No lock is
held across a handshake or a wait: one idle or broken client holds up no other.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import logging
import socket
import ssl
import tempfile
import threading
import time
from dataclasses import dataclass, field

from .certforge import (
    DEFAULT_NOW,
    CertConfig,
    LeafCertificate,
    RootAuthority,
    TrustStore,
    issue_leaf,
    key_pem,
    make_root,
)
from .flowledger import CHANNELS, POLICIES, TESTS, FlowLedger, is_requestable, normalize_fqdn

log = logging.getLogger(__name__)

ATTACKER_NAME = "attacker.invalid"
FROZEN_WALL_TS = DEFAULT_NOW.isoformat()
MAX_PREAMBLE_BYTES = 4096
GRACE_SECONDS = 1.0  # how long the engine waits for a flow's data after its handshake


def wall_clock(frozen: bool) -> str:
    """The wall time to write: ``FROZEN_WALL_TS`` under --freeze-time, else now (UTC)."""
    if frozen:
        return FROZEN_WALL_TS
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@dataclass
class MitmMaterial:
    """Roots and stores needed by the three test categories."""

    untrusted_root: RootAuthority
    lab_trusted_root: RootAuthority
    installed_root: RootAuthority
    config: CertConfig
    # (issuing root name, leaf name) -> leaf, and leaf -> the server context presenting it.
    # Both are deterministic: a race between handler threads at worst builds one twice.
    _leaves: dict[tuple[str, str], LeafCertificate] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _served: dict[LeafCertificate, ssl.SSLContext] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def generate(cls, config: CertConfig | None = None) -> "MitmMaterial":
        config = config or CertConfig()
        return cls(
            untrusted_root=make_root("attacker-untrusted", config),
            lab_trusted_root=make_root("lab-trusted", config),
            installed_root=make_root("installed-root", config),
            config=config,
        )

    @property
    def client_store(self) -> TrustStore:
        """The roots every client trusts: the lab's and the installed one."""
        return (self.lab_trusted_root, self.installed_root)

    def leaf_for(self, root: RootAuthority, name: str) -> LeafCertificate:
        """The 90-day leaf ``root`` issues for ``name``, signed once per material."""
        key = (root.name, name)
        leaf = self._leaves.get(key)
        if leaf is None:
            leaf = self._leaves[key] = issue_leaf(root, name, [name], 90, self.config)
        return leaf

    def serve(self, leaf: LeafCertificate) -> ssl.SSLContext:
        """The server context presenting ``leaf`` and its issuer, built on first serve."""
        ctx = self._served.get(leaf)
        if ctx is None:
            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            ctx.num_tickets = 0  # no client resumes a session
            with tempfile.NamedTemporaryFile(suffix=".pem") as pem:  # removed on close
                pem.write(leaf.chain_pem() + key_pem(leaf.key_pair))
                pem.flush()
                ctx.load_cert_chain(pem.name)
            self._served[leaf] = ctx
        return ctx


def forge_for(test: str, target_fqdn: str, material: MitmMaterial) -> LeafCertificate:
    """The forged leaf a given test presents for a target destination."""
    if test == "T1":
        return material.leaf_for(material.untrusted_root, target_fqdn)
    if test == "T2":
        return material.leaf_for(material.lab_trusted_root, ATTACKER_NAME)
    return material.leaf_for(material.installed_root, target_fqdn)


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` on the monotonic clock; a TimeoutError once it has passed."""
    if (left := deadline - time.monotonic()) <= 0:
        raise TimeoutError("connection deadline passed")
    return left


def _read_preamble(sock: socket.socket, deadline: float) -> tuple[str, str, str] | None:
    """The preamble's (app id, normalized host, channel), or None to drop the flow.

    The host is normalized here, so a leaf is forged for the name the ledger
    records. Bytes past the newline, such as a ClientHello sent with it, stay
    unread. A line not ended by ``deadline`` is dropped as unterminated.
    """
    line = b""
    try:
        while not line.endswith(b"\n") and len(line) < MAX_PREAMBLE_BYTES:
            sock.settimeout(_time_left(deadline))
            if not (peeked := sock.recv(MAX_PREAMBLE_BYTES - len(line), socket.MSG_PEEK)):
                if not line:
                    return None  # closed before its first byte: no preamble to drop
                break
            line += sock.recv(peeked.find(b"\n") + 1 or len(peeked))
    except OSError:
        pass  # a timeout, a reset or the deadline leaves the line unterminated
    if not line.endswith(b"\n"):
        problem = f"unterminated or over {MAX_PREAMBLE_BYTES} bytes"
    else:
        try:
            meta = json.loads(line)
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            problem = "not a JSON object"
        elif not isinstance(meta.get("app_id"), str) or not isinstance(meta.get("fqdn"), str):
            problem = "without a string app_id and fqdn"
        elif (channel := meta.get("channel")) not in CHANNELS:
            problem = f"with unknown channel {channel!r}"
        elif not is_requestable(meta["fqdn"]):
            problem = f"with host {meta['fqdn']!r}, which no flow can request"
        else:
            return meta["app_id"], normalize_fqdn(meta["fqdn"]), channel
    log.warning("dropping connection: preamble %s", problem)
    return None


class Listener:
    """A TCP listener on a free port of 127.0.0.1, served by workers that live until ``stop()``.

    A worker blocks in ``accept()``, serves the connection it takes, drops it
    and accepts again. One that takes a connection while no other waits in
    ``accept()`` starts one first, after up to 5 ms for a busy worker to come
    back: no client holds up a new connection, and a sequential client is
    served by two workers. ``stop()`` shuts the socket down, which wakes every
    ``accept()``, and joins every worker. ``handle`` sets any timeout its
    connection needs.
    """

    def __init__(self, handle):
        self._handle = handle
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._lock = threading.Condition(threading.Lock())
        self._workers: list[threading.Thread] = []
        self._waiting = 0  # workers not serving a connection
        self._stopping = False

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        with self._lock:
            self._spawn()
        return self.address

    def stop(self) -> None:
        with self._lock:
            self._stopping = True  # from here on no worker starts, so none joins the list
        with contextlib.suppress(OSError):  # some platforms refuse it on a listening socket
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        for worker in self._workers:
            worker.join()

    def _spawn(self) -> None:
        """Start a worker, counted as waiting in ``accept()``; the caller holds the lock."""
        if not self._stopping:
            worker = threading.Thread(target=self._work, daemon=True)
            worker.start()
            self._workers.append(worker)
            self._waiting += 1

    def _work(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                if self._stopping:
                    return
                # Linux reports some network errors of a pending connection here.
                log.warning("accept failed", exc_info=True)
                continue
            with self._lock:
                self._waiting -= 1
                # A client sees its flow end before the worker of that flow is back.
                if len(self._workers) > 1:
                    self._lock.wait_for(lambda: self._waiting, 0.005)
                if not self._waiting:
                    try:
                        self._spawn()
                    except RuntimeError:
                        log.warning("could not start a listener worker", exc_info=True)
            try:
                # Small writes go out at once: without this, Nagle holds a reply
                # until a delayed ACK, about 40 ms, arrives for the last one.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._handle(conn)
            except Exception as exc:
                log.warning("connection handler error: %s", exc, exc_info=True)
            finally:
                with self._lock:
                    self._waiting += 1
                    self._lock.notify()
                conn.close()
            # Hold nothing of this connection while blocked in the next accept().
            del conn


class MitmEngine:
    """One engine instance runs one MitM test kind against incoming flows.

    A flow is in the ledger when its client sees it end: the skip reply or
    the connection's close. ``stop()`` wakes every idle listener worker at
    once and waits for each one still serving a connection, so the flows of
    clients that left without waiting for the end are in the ledger when it
    returns too. Each connection has one deadline,
    ``max(4 x grace, 5 s)`` after it is accepted: every wait, from the
    preamble to the end of the grace wait, gets no more than the time left.
    """

    def __init__(
        self,
        material: MitmMaterial,
        test: str,
        policy: str,
        ledger: FlowLedger,
        grace_seconds: float = GRACE_SECONDS,
        freeze_time: bool = False,
    ):
        if test not in TESTS:
            raise ValueError(f"unknown test kind: {test}")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy: {policy}")
        self.material = material
        self.test = test
        self.policy = policy
        self.ledger = ledger
        self.grace_seconds = grace_seconds
        self.freeze_time = freeze_time
        self._listener: Listener | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        self._listener = Listener(self._handle_connection)
        return self._listener.start()

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "engine not started"
        return self._listener.address

    def stop(self) -> None:
        if self._listener:
            self._listener.stop()
            self._listener = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- per-connection flow -----------------------------------------------

    def _handle_connection(self, sock: socket.socket) -> None:
        deadline = time.monotonic() + max(self.grace_seconds * 4, 5.0)
        preamble = _read_preamble(sock, deadline)
        if preamble is None:
            return
        app_id, fqdn, channel = preamble
        decision = self.ledger.decide_retest(app_id, fqdn, self.policy, self.test)
        reply = decision.encode() + b"\n"
        outcome, version, tls = "skipped", "unknown", None
        if decision == "test":
            outcome = "inconclusive"  # also when the leaf cannot be forged or served
            try:
                ctx = self.material.serve(forge_for(self.test, fqdn, self.material))
                sock.settimeout(_time_left(deadline))
                sock.sendall(reply)
                # A client gone before its ClientHello never saw a certificate. Wrapping
                # its socket anyway can leak it: when the peer has reset, the
                # not-connected probe in SSLSocket._create raises without closing the
                # socket it took over.
                if sock.recv(1, socket.MSG_PEEK):
                    sock.settimeout(_time_left(deadline))
                    tls = ctx.wrap_socket(sock, server_side=True)
                    version = {"TLSv1.2": "TLS1.2", "TLSv1.3": "TLS1.3"}.get(tls.version(), "unknown")
                    tls.settimeout(min(self.grace_seconds, _time_left(deadline)))
                    outcome = "vulnerable" if tls.recv(4096) else "secure"
            except OSError as exc:
                log.debug("flow ended before its data: %s", exc)
                if "ALERT" in str(getattr(exc, "reason", "")):  # the client rejected the chain
                    outcome = "secure"
        self.ledger.record_flow(
            app_id=app_id,
            fqdn=fqdn,
            ts_wall=wall_clock(self.freeze_time),
            tls_version=version,
            channel=channel,
            test_applied=self.test,
            outcome=outcome,
        )
        if tls is not None:
            tls.close()
        elif decision == "skip":
            with contextlib.suppress(OSError):
                sock.sendall(reply)  # the flow is recorded: the client may start its next
