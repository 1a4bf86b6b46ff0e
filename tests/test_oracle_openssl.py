"""Differential check of the outcome oracle against OpenSSL.

A correct client (``ClientProfile()``: T0 and H0 natively, W0 in a webview)
must decide as an OpenSSL client with ``CERT_REQUIRED`` and
``check_hostname`` does, on the chain served in a real handshake. The method
follows Frankencerts (Brubaker et al., S&P 2014) and "The Most Dangerous Code
in the World" (Georgiev et al., CCS 2012): generate certificates and host
spellings, and let a reference TLS stack be the judge.
"""

import ssl

from cryptography.hazmat.primitives.serialization import Encoding
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mitmscan.appsim import served_chain
from mitmscan.certforge import issue_leaf
from mitmscan.engine import MitmMaterial
from mitmscan.profiles import ClientProfile, client_accepts

MATERIAL = MitmMaterial.generate()
ROOTS = ("untrusted_root", "lab_trusted_root", "installed_root")
NO_CHECK_TIME = 0x200000  # X509_V_FLAG_NO_CHECK_TIME: the fixtures are dated 2025


def _openssl_client() -> ssl.SSLContext:
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)  # CERT_REQUIRED, check_hostname
    ctx.load_verify_locations(cadata="".join(
        root.self_signed_cert.public_bytes(Encoding.PEM).decode()
        for root in MATERIAL.client_store
    ))
    ctx.verify_flags |= NO_CHECK_TIME
    return ctx


OPENSSL_CLIENT = _openssl_client()

LABELS = st.sampled_from(["a", "b", "api", "example"])


def _names(min_labels: int, max_labels: int):
    return st.lists(LABELS, min_size=min_labels, max_size=max_labels).map(".".join)


SAN_ENTRIES = st.one_of(
    _names(1, 3),
    _names(2, 3).map("*.{}".format),  # a wildcard OpenSSL honours
    LABELS.map("*.{}".format),  # a wildcard over one label, which it does not
)


@st.composite
def leaves_and_hosts(draw):
    """(issuing root, CN, SANs, validity days, host) for one served leaf."""
    sans = draw(st.lists(SAN_ENTRIES, min_size=1, max_size=3))
    # Half the hosts are spelled from a SAN entry, so names often match.
    name = draw(st.one_of(
        _names(1, 4),
        st.sampled_from(sans).flatmap(lambda san: LABELS.map(lambda l: san.replace("*", l))),
    ))
    host = draw(st.sampled_from([name, name.upper(), name + "."]))
    return draw(st.sampled_from(ROOTS)), draw(_names(1, 3)), sans, draw(st.integers(1, 3650)), host


def _handshake(leaf, host: str):
    """OpenSSL's verdict on ``leaf`` served for ``host``, and the chain served."""
    client_in, client_out, server_in, server_out = (ssl.MemoryBIO() for _ in range(4))
    client = OPENSSL_CLIENT.wrap_bio(client_in, client_out, server_hostname=host)
    server = MATERIAL.serve(leaf).wrap_bio(server_in, server_out, server_side=True)
    for _ in range(4):  # TLS 1.3 needs two client flights; four rounds is ample
        try:
            client.do_handshake()
            return True, served_chain(client)
        except ssl.SSLWantReadError:
            pass
        except ssl.SSLCertVerificationError:
            return False, served_chain(client)
        server_in.write(client_out.read())
        try:
            server.do_handshake()
        except ssl.SSLWantReadError:
            pass
        client_in.write(server_out.read())
    raise AssertionError("the handshake did not finish")


@settings(max_examples=100, deadline=None)
@given(leaves_and_hosts())
@example(("lab_trusted_root", "a.example", ["*.example"], 90, "a.example"))
@example(("lab_trusted_root", "a.api.example", ["a.api.example"], 90, "a.api.example."))
def test_secure_client_decides_as_openssl(case):
    root, cn, sans, validity_days, host = case
    leaf = issue_leaf(getattr(MATERIAL, root), cn, sans, validity_days, MATERIAL.config)
    openssl_accepts, chain = _handshake(leaf, host)
    assert chain[0] == leaf.cert
    for channel in ("native", "webview"):
        oracle = client_accepts(
            ClientProfile(), chain, host, channel, MATERIAL.client_store, MATERIAL.config.now
        )
        assert oracle == openssl_accepts, (channel, host, sans)
