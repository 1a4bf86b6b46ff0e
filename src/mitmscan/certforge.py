"""Certificate material for the three MitM test categories.

All key material is Ed25519, derived deterministically from a config seed so
that fixtures are reproducible byte-for-byte (Ed25519 signatures are
deterministic, so two runs with the same seed yield identical DER).
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

# cryptography is imported by the functions that use it, so the commands that
# read a scan and forge nothing never load it.
if TYPE_CHECKING:
    from cryptography import x509
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# The scan clock: every certificate's dates are set from it, and every client's
# check reads it, so fixtures and verdicts are stable across runs.
DEFAULT_NOW = datetime.datetime(2025, 4, 1, tzinfo=datetime.timezone.utc)


@dataclass(frozen=True)
class CertConfig:
    """The seed every key and serial of the material is derived from."""

    seed: int = 0


@dataclass(frozen=True)
class RootAuthority:
    name: str
    key_pair: Ed25519PrivateKey = field(repr=False, compare=False)
    self_signed_cert: x509.Certificate = field(compare=False)

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.self_signed_cert)


@dataclass(frozen=True)
class LeafCertificate:
    """A leaf, its key and its issuer; names and dates are read from ``cert``."""

    cert: x509.Certificate
    key_pair: Ed25519PrivateKey = field(repr=False, compare=False)
    issuer: RootAuthority = field(compare=False)

    def chain_pem(self) -> bytes:
        """Leaf followed by its issuing root, as concatenated PEM."""
        return cert_pem(self.cert) + cert_pem(self.issuer.self_signed_cert)


# The roots a client trusts.
TrustStore = tuple[RootAuthority, ...]


def fingerprint(cert: x509.Certificate) -> str:
    """Lowercase hex SHA-256 of the DER encoding."""
    from cryptography.hazmat.primitives import serialization
    der = cert.public_bytes(serialization.Encoding.DER)
    return hashlib.sha256(der).hexdigest()


def cert_pem(cert: x509.Certificate) -> bytes:
    from cryptography.hazmat.primitives import serialization
    return cert.public_bytes(serialization.Encoding.PEM)


def key_pem(key: Ed25519PrivateKey) -> bytes:
    from cryptography.hazmat.primitives import serialization
    return key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )


def is_valid_san(entry: str) -> bool:
    """Accepts ASCII FQDNs (A-labels) and single leftmost-label wildcards (``*.suffix``)."""
    if not entry or entry != entry.strip().lower() or entry.endswith("."):
        return False
    labels = entry.split(".")
    if labels[0] == "*":
        labels = labels[1:]
        if not labels:
            return False
    for label in labels:
        if not label or len(label) > 63:
            return False
        if not all(c.isascii() and (c.isalnum() or c == "-") for c in label):
            return False
        if label.startswith("-") or label.endswith("-"):
            return False
    return True


def _derive_key(config: CertConfig, purpose: str) -> Ed25519PrivateKey:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    material = hashlib.sha256(f"{config.seed}:{purpose}:key".encode()).digest()
    return Ed25519PrivateKey.from_private_bytes(material)


def _derive_serial(config: CertConfig, purpose: str) -> int:
    digest = hashlib.sha256(f"{config.seed}:{purpose}:serial".encode()).digest()
    # Positive, < 2^159 per RFC 5280 serial constraints.
    return int.from_bytes(digest[:19], "big") | 1


def _sign(
    config: CertConfig,
    subject: x509.Name,
    key: Ed25519PrivateKey,
    serial_purpose: str,
    validity_days: int,
    extensions: list[tuple[x509.ExtensionType, bool]],
    ca: RootAuthority | None,
) -> x509.Certificate:
    """A certificate for ``key`` named ``subject``, signed by ``ca`` or else self-signed."""
    from cryptography import x509
    builder = (
        x509.CertificateBuilder()
        .subject_name(subject)
        .issuer_name(ca.self_signed_cert.subject if ca else subject)
        .public_key(key.public_key())
        .serial_number(_derive_serial(config, serial_purpose))
        .not_valid_before(DEFAULT_NOW - datetime.timedelta(days=1))
        .not_valid_after(DEFAULT_NOW + datetime.timedelta(days=validity_days))
    )
    for extension, critical in extensions:
        builder = builder.add_extension(extension, critical)
    return builder.sign(ca.key_pair if ca else key, algorithm=None)


def make_root(name: str, config: CertConfig | None = None) -> RootAuthority:
    """Create a self-signed CA; byte-identical across calls with the same seed."""
    from cryptography import x509
    from cryptography.x509.oid import NameOID
    if not name:
        raise ValueError("root authority name must be non-empty")
    config = config or CertConfig()
    key = _derive_key(config, f"root:{name}")
    usage = x509.KeyUsage(
        digital_signature=True,
        key_cert_sign=True,
        crl_sign=True,
        content_commitment=False,
        key_encipherment=False,
        data_encipherment=False,
        key_agreement=False,
        encipher_only=False,
        decipher_only=False,
    )
    extensions = [(x509.BasicConstraints(ca=True, path_length=0), True), (usage, True)]
    subject = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, name)])
    cert = _sign(config, subject, key, f"root:{name}", 3650, extensions, None)
    return RootAuthority(name=name, key_pair=key, self_signed_cert=cert)


def issue_leaf(
    ca: RootAuthority,
    cn: str,
    sans: list[str],
    validity_days: int,
    config: CertConfig | None = None,
) -> LeafCertificate:
    """Issue a leaf for ``cn`` with the given SANs, signed by ``ca``."""
    from cryptography import x509
    from cryptography.x509.oid import NameOID
    config = config or CertConfig()
    if validity_days <= 0:
        raise ValueError("validity_days must be positive")
    if not sans:
        raise ValueError("san_list must be non-empty")
    for entry in sans:
        if not is_valid_san(entry):
            raise ValueError(f"invalid SAN entry: {entry!r}")

    names = ",".join(sans)
    key = _derive_key(config, f"leaf:{cn}:{names}")
    # A CN over RFC 5280's 64 characters is left out, as mitmproxy's dummy_cert does:
    # the SAN names the host, and is critical under an empty subject (RFC 5280 4.2.1.6).
    subject = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, cn)] if len(cn) <= 64 else [])
    extensions = [
        (x509.BasicConstraints(ca=False, path_length=None), True),
        (x509.SubjectAlternativeName([x509.DNSName(s) for s in sans]), not subject),
    ]
    purpose = f"leaf:{ca.name}:{cn}:{names}"
    cert = _sign(config, subject, key, purpose, validity_days, extensions, ca)
    return LeafCertificate(cert=cert, key_pair=key, issuer=ca)


def verify_signature(cert: x509.Certificate, issuer_cert: x509.Certificate) -> bool:
    """Whether ``issuer_cert`` names and signs ``cert``, whatever its key type."""
    from cryptography.exceptions import InvalidSignature
    try:
        cert.verify_directly_issued_by(issuer_cert)
    except (InvalidSignature, ValueError, TypeError):
        return False
    return True


def verify_chain(chain: list[x509.Certificate], store: TrustStore, now: datetime.datetime) -> bool:
    """What correct platform validation concludes: in date, named and signed by a store root."""
    if not chain:
        return False
    leaf = chain[0]
    if not leaf.not_valid_before_utc <= now <= leaf.not_valid_after_utc:
        return False
    return any(verify_signature(leaf, root.self_signed_cert) for root in store)


def cert_san_names(cert: x509.Certificate) -> list[str]:
    """SAN DNS entries, lowercased: the only names a correct hostname check
    matches, since RFC 6125 ignores the CN when a SAN is present."""
    from cryptography import x509
    try:
        san = cert.extensions.get_extension_for_class(x509.SubjectAlternativeName)
    except x509.ExtensionNotFound:
        return []
    return [n.lower() for n in san.value.get_values_for_type(x509.DNSName)]


def cert_dns_names(cert: x509.Certificate) -> list[str]:
    """CN plus SAN DNS entries, lowercased."""
    from cryptography.x509.oid import NameOID
    names = [
        str(attr.value).lower()
        for attr in cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME)
    ]
    return names + cert_san_names(cert)
