"""TLS interception engine: terminate flows with forged chains, classify outcomes.

Connections arrive over localhost TCP with a one-line JSON preamble carrying
the forwarder metadata (app id, destination FQDN, channel); a preamble longer
than ``MAX_PREAMBLE_BYTES`` or left unterminated drops the connection. The
engine replies with the chain it is about to present, then runs a real TLS
handshake over the same socket. The preamble stands in for the per-app VPN
forwarder. Clients decide on the echoed chain, although the stdlib exposes the
chain a handshake served (``_sslobj.get_unverified_chain()`` since 3.10): the
benchmark's OpenSSL check, ``perfbench/checks.ssl_verdicts``, reads the reply
line before its handshake, so the echo can only go together with that read.
"""

from __future__ import annotations

import datetime
import json
import logging
import socket
import ssl
import tempfile
import threading
from dataclasses import dataclass, field

from cryptography import x509

from .certforge import (
    CertConfig,
    LeafCertificate,
    RootAuthority,
    TrustStore,
    issue_leaf,
    key_pem,
    make_root,
)
from .flowledger import TESTS, DedupKey, FlowLedger, FlowRecord

log = logging.getLogger(__name__)

ATTACKER_NAME = "attacker.invalid"
DEFAULT_GRACE_SECONDS = 3.0
FROZEN_WALL_TS = "2025-04-01T00:00:00+00:00"
MAX_PREAMBLE_BYTES = 4096


@dataclass
class MitmMaterial:
    """Roots and stores needed by the three test categories."""

    untrusted_root: RootAuthority
    lab_trusted_root: RootAuthority
    installed_root: RootAuthority
    client_store: TrustStore
    config: CertConfig = field(default_factory=CertConfig)
    # (issuing root name, leaf name) -> leaf, and leaf -> the server context and
    # chain PEM presenting it, which every engine of a scan shares. Both are
    # deterministic, so a race between handler threads at worst builds one twice.
    _leaves: dict[tuple[str, str], LeafCertificate] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _served: dict[LeafCertificate, tuple[ssl.SSLContext, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def generate(cls, config: CertConfig | None = None) -> "MitmMaterial":
        config = config or CertConfig()
        untrusted = make_root("attacker-untrusted", config)
        lab = make_root("lab-trusted", config)
        installed = make_root("installed-root", config)
        return cls(
            untrusted_root=untrusted,
            lab_trusted_root=lab,
            installed_root=installed,
            client_store=TrustStore([lab, installed]),
            config=config,
        )

    def leaf_for(self, root: RootAuthority, name: str) -> LeafCertificate:
        """The 90-day leaf ``root`` issues for ``name``, signed once per material."""
        key = (root.name, name)
        leaf = self._leaves.get(key)
        if leaf is None:
            leaf = self._leaves[key] = issue_leaf(root, name, [name], 90, self.config)
        return leaf

    def serve(self, leaf: LeafCertificate) -> tuple[ssl.SSLContext, str]:
        """The server context presenting ``leaf``, and its chain PEM, built on first serve."""
        served = self._served.get(leaf)
        if served is None:
            chain_pem = leaf.chain_pem()
            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            ctx.num_tickets = 0  # no client resumes a session
            with tempfile.NamedTemporaryFile(suffix=".pem") as pem:  # removed on close
                pem.write(chain_pem + key_pem(leaf.key_pair))
                pem.flush()
                ctx.load_cert_chain(pem.name)
            served = self._served[leaf] = (ctx, chain_pem.decode())
        return served


def forge_for(test: str, target_fqdn: str, material: MitmMaterial) -> LeafCertificate:
    """The forged leaf a given test presents for a target destination."""
    if test not in TESTS:
        raise ValueError(f"unknown test kind: {test}")
    if test == "T1":
        return material.leaf_for(material.untrusted_root, target_fqdn)
    if test == "T2":
        return material.leaf_for(material.lab_trusted_root, ATTACKER_NAME)
    return material.leaf_for(material.installed_root, target_fqdn)


def legit_for(target_fqdn: str, material: MitmMaterial) -> LeafCertificate:
    """A correct-name, trusted-chain leaf, presented when a test is skipped."""
    return material.leaf_for(material.lab_trusted_root, target_fqdn)


class Listener:
    """A TCP listener: a blocking accept loop, one handler thread per connection.

    ``stop()`` shuts the listening socket down, which wakes the blocked
    ``accept()`` at once, then joins the accept thread and every handler
    still running, so whatever a handler was doing when its client returned
    has finished when ``stop()`` returns. Each accepted connection gets
    ``timeout``, which bounds every socket wait of its handler.
    """

    def __init__(self, handle, timeout: float, host: str = "127.0.0.1", port: int = 0):
        self._handle = handle
        self._timeout = timeout
        self._sock = socket.create_server((host, port))
        self._handlers: set[threading.Thread] = set()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # some platforms refuse shutdown() on a listening socket
        self._sock.close()
        self._thread.join()
        with self._lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                if self._stopping.is_set():
                    return
                # Linux reports some network errors of a pending connection here.
                log.warning("accept failed", exc_info=True)
                continue
            conn.settimeout(self._timeout)
            # Small writes go out at once: without this, Nagle holds a reply
            # until a delayed ACK, about 40 ms, arrives for the last one.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            with self._lock:
                self._handlers.add(thread)
            thread.start()
            # Hold nothing of this connection while blocked in the next accept().
            del conn, thread

    def _serve(self, conn: socket.socket) -> None:
        try:
            self._handle(conn)
        except Exception as exc:
            log.warning("connection handler error: %s", exc, exc_info=True)
        finally:
            conn.close()
            with self._lock:
                self._handlers.discard(threading.current_thread())


class MitmEngine:
    """One engine instance runs one MitM test kind against incoming flows.

    ``stop()`` returns as soon as no connection is in flight. It waits for
    every handler still running, so each flow a client finished before
    ``stop()`` is in the ledger when it returns. Each wait is bounded by the
    connection timeout, ``max(4 x grace, 5 s)``, which every socket
    operation of a handler gets.
    """

    def __init__(
        self,
        material: MitmMaterial,
        test: str,
        policy: str,
        ledger: FlowLedger,
        grace_seconds: float = DEFAULT_GRACE_SECONDS,
        freeze_time: bool = False,
    ):
        if test not in TESTS:
            raise ValueError(f"unknown test kind: {test}")
        self.material = material
        self.test = test
        self.policy = policy
        self.ledger = ledger
        self.grace_seconds = grace_seconds
        self.freeze_time = freeze_time
        self.observed_app_ids: set[str] = set()
        self._listener: Listener | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        timeout = max(self.grace_seconds * 4, 5.0)
        try:
            self._listener = Listener(self._handle_connection, timeout, host, port)
        except OSError as exc:
            raise RuntimeError(f"listener bind failed: {exc}") from exc
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
        line = sock.makefile("rb").readline(MAX_PREAMBLE_BYTES)
        if not line:
            return
        if not line.endswith(b"\n"):
            log.warning(
                "dropping connection: preamble unterminated or over %d bytes",
                MAX_PREAMBLE_BYTES,
            )
            return
        meta = json.loads(line)
        app_id = meta["app_id"]
        fqdn = meta["fqdn"]
        channel = meta.get("channel", "native")
        self.observed_app_ids.add(app_id)

        # Decide-then-record is one critical section per flow.
        with self.ledger.lock:
            decision = self.ledger.decide_retest(
                DedupKey(app_id, fqdn), self.policy, self.test
            )
            forged = decision == "test"
            leaf = (
                forge_for(self.test, fqdn, self.material)
                if forged
                else legit_for(fqdn, self.material)
            )
            ctx, chain_pem = self.material.serve(leaf)
            sock.sendall(
                json.dumps({"action": decision, "chain_pem": chain_pem}).encode() + b"\n"
            )
            result = self._run_tls(sock, ctx)
            outcome = "skipped" if not forged else result.outcome
            self._record(app_id, fqdn, channel, outcome, result)

    @dataclass
    class _TlsResult:
        outcome: str
        tls_version: str = "unknown"

    def _run_tls(self, sock: socket.socket, ctx: ssl.SSLContext) -> "_TlsResult":
        # A client gone before its ClientHello never saw a certificate. Wrapping
        # its socket anyway can leak it: when the peer has reset, the
        # not-connected probe in SSLSocket._create raises without closing the
        # socket it took over.
        try:
            hello = sock.recv(1, socket.MSG_PEEK)
        except OSError as exc:
            log.debug("transport failure before the ClientHello: %s", exc)
            return self._TlsResult("inconclusive")
        if not hello:
            return self._TlsResult("inconclusive")
        try:
            tls = ctx.wrap_socket(sock, server_side=True)
        except ssl.SSLError as exc:
            # The certificate flight was already sent; an alert here is the
            # client rejecting it.
            log.debug("post-certificate alert from client: %s", exc)
            return self._TlsResult("secure")
        except (ConnectionError, socket.timeout, OSError) as exc:
            log.debug("pre-certificate transport failure: %s", exc)
            return self._TlsResult("inconclusive")

        with tls:
            version = {"TLSv1.2": "TLS1.2", "TLSv1.3": "TLS1.3"}.get(
                tls.version() or "", "unknown"
            )
            tls.settimeout(self.grace_seconds)
            try:
                data = tls.recv(4096)
            except socket.timeout:
                # Connection idles open with no application data: no evidence.
                return self._TlsResult("inconclusive", version)
            except (ssl.SSLError, ConnectionError, OSError):
                data = b""
            if data:
                try:
                    tls.sendall(data)  # echo, so clients can run request/response
                except (ssl.SSLError, ConnectionError, OSError):
                    pass
                return self._TlsResult("vulnerable", version)
            # Clean close right after the handshake: the client aborted on the
            # certificate it saw.
            return self._TlsResult("secure", version)

    def _record(
        self, app_id: str, fqdn: str, channel: str, outcome: str, tls: "_TlsResult"
    ) -> None:
        ts_mono = self.ledger.next_ts_mono()
        if self.freeze_time:
            ts_wall = FROZEN_WALL_TS
        else:
            ts_wall = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.ledger.record_flow(
            FlowRecord(
                app_id=app_id,
                fqdn=fqdn,
                ts_wall=ts_wall,
                ts_mono=ts_mono,
                transport="TCP",
                tls_version=tls.tls_version,
                channel=channel,
                test_applied=self.test,
                outcome=outcome,
            )
        )


def parse_chain_pem(pem: str) -> list[x509.Certificate]:
    """Split concatenated PEM into certificates, leaf first."""
    return x509.load_pem_x509_certificates(pem.encode())
