"""Label TLS validation code snippets, by rules or via a text-completion backend.

The rule backend is the deterministic default: it extracts the focus method's
body and applies ordered token-level patterns per interface kind. The
completion backend builds the classification prompt and parses model
replies, repairing invariant violations deterministically.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from dataclasses import dataclass
from pathlib import Path

from .metrics import rate
from .taxonomy import (
    EXCLUSIVE_TRUST_FLAWS,
    FAMILY_BY_KIND,
    FOCUS_METHODS,
    TAXONOMY,
    UNKNOWN_BY_KIND,
    repair_labels,
    validate_labels,
)

log = logging.getLogger(__name__)

LLM_ATTEMPTS = 3  # calls of the backend per snippet before it counts as failed
LLM_WORKERS = 4  # snippets classified at once by a batch


@dataclass(frozen=True)
class Snippet:
    snippet_id: str
    source_text: str
    interface_kind: str
    focus_class: str
    focus_method: str

    def __post_init__(self):
        if not self.source_text:
            raise ValueError("source_text must be non-empty")
        expected = FOCUS_METHODS.get(self.interface_kind)
        if expected is None:
            raise ValueError(f"unknown interface_kind: {self.interface_kind}")
        if self.focus_method != expected:
            raise ValueError(
                f"{self.interface_kind} snippets focus on {expected}, "
                f"got {self.focus_method}"
            )


# -- source text handling ------------------------------------------------------


# A comment, or a string or char literal: whichever starts first.
_COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:[^\"\\\n]|\\.)*\"|'(?:[^'\\\n]|\\.)*'", re.S
)


def _blank(match: re.Match) -> str:
    text = match[0]
    if text[0] == "/":
        return " " * len(text)
    return text[0] + " " * (len(text) - 2) + text[-1]


def blank_comments_and_literals(text: str) -> str:
    """``text`` with comments, and literals between their quotes, blanked in place."""
    return _COMMENT_OR_LITERAL.sub(_blank, text)


def _closing(text: str, start: int) -> int:
    """Index of the bracket closing ``text[start]``, a ``(`` or ``{``, or -1.

    Only brackets of its own kind count toward the depth.
    """
    opening = text[start]
    depth = 0
    for match in re.compile("[()]" if opening == "(" else "[{}]").finditer(text, start):
        depth += 1 if match[0] == opening else -1
        if depth == 0:
            return match.start()
    return -1


def extract_method_body(source_text: str, method_name: str) -> str:
    """Body of the first declaration of ``method_name``, braces excluded."""
    text = blank_comments_and_literals(source_text)
    for match in re.finditer(rf"\b{re.escape(method_name)}\s*\(", text):
        # Skip call sites: a declaration is preceded by a type or modifier,
        # not by a dot.
        i = match.start() - 1
        while i >= 0 and text[i].isspace():
            i -= 1
        if i >= 0 and text[i] == ".":
            continue
        params_end = _closing(text, match.end() - 1)
        if params_end == -1:
            continue
        brace = text.find("{", params_end)
        semi = text.find(";", params_end)
        if brace == -1 or (semi != -1 and semi < brace):
            continue  # abstract or call statement
        end = _closing(text, brace)
        if end == -1:
            raise ValueError(f"unbalanced braces in {method_name}")
        return text[brace + 1 : end]
    raise ValueError(f"no declaration of {method_name} found")


def _statements(body: str) -> list[str]:
    return [s.strip() for s in body.replace("\n", " ").split(";") if s.strip()]


# -- rule backend ---------------------------------------------------------------


def classify_rule(snippet: Snippet) -> set[str]:
    """Deterministic pattern classification of one snippet."""
    try:
        body = extract_method_body(snippet.source_text, snippet.focus_method)
    except ValueError as exc:
        log.warning("snippet %s: %s", snippet.snippet_id, exc)
        return {UNKNOWN_BY_KIND[snippet.interface_kind]}
    if snippet.interface_kind == "trust_manager":
        labels = _classify_trust(body)
    elif snippet.interface_kind == "hostname_verifier":
        labels = _classify_hostname(body)
    else:
        labels = _classify_webview(body)
    return repair_labels(labels, snippet.interface_kind)


def _is_trivial(stmt: str) -> bool:
    return stmt == "return" or stmt.startswith(("Log.", "System.out.", "log."))


def _classify_trust(body: str) -> list[str]:
    stmts = _statements(body)
    if all(_is_trivial(s) for s in stmts):
        return ["T1"]

    delegates = re.search(
        r"\.\s*checkServerTrusted\s*\(|TrustManagerFactory|getTrustManagers", body
    )
    swallows = _swallowed_validation(body)
    conditional_bypass = re.search(
        r"if\s*\([^)]*(\bauthType\b|getIssuerDN|getIssuerX500Principal)", body
    )
    if delegates and not swallows and not conditional_bypass:
        return ["T0"]

    labels: list[str] = []
    has_validity = ".checkValidity(" in body.replace(" ", "")
    has_self_verify = re.search(r"\.verify\s*\([^)]*getPublicKey", body)
    has_subject = re.search(r"getSubjectDN|getSubjectX500Principal|getSubjectAlternativeNames", body)
    has_null_guard = re.search(r"==\s*null|\.length\s*[<>=!]|\.length\s*==", body)

    if conditional_bypass:
        labels.append("T2-F")
    if has_validity:
        labels.append("T2-A")
    elif has_self_verify:
        labels.append("T2-D")
    elif has_subject:
        labels.append("T2-C")
    elif has_null_guard and not labels:
        labels.append("T2-B")
    if swallows:
        labels.append("T2-E")
    if not labels:
        return ["TU"]
    return labels


def _swallowed_validation(body: str) -> bool:
    """A try block attempts real validation whose exception the catch discards."""
    if "try" not in body or "catch" not in body:
        return False
    if not re.search(r"checkServerTrusted|checkValidity|\.verify\s*\(", body):
        return False
    for match in re.finditer(r"catch\s*\([^)]*\)\s*\{", body):
        end = _closing(body, match.end() - 1)
        if end != -1 and "throw" not in body[match.end() : end]:
            return True
    return False


def _classify_hostname(body: str) -> list[str]:
    if re.search(r"getDefaultHostnameVerifier|OkHostnameVerifier|\w+Verifier\s*\.\s*verify\s*\(", body):
        return ["H0"]
    stmts = _statements(body)
    if re.fullmatch(r"return\s+(true|1)", stmts[0]) and len(stmts) == 1:
        return ["H1"]
    consults_cert = re.search(
        r"session\s*\.|getPeerCertificates|getSubjectDN|getSubjectX500Principal"
        r"|getSubjectAlternativeNames|getPeerPrincipal",
        body,
    )
    if not consults_cert:
        # Logic over the hostname parameter alone; the certificate is ignored.
        if re.search(r"\bhostname\b|\bhost\b", body):
            return ["H2-A"]
        return ["HU"]
    if re.search(r"\.contains\s*\(|indexOf\s*\(|\.endsWith\s*\(|\.startsWith\s*\(", body):
        return ["H2-B"]
    if re.search(r"\.equals\s*\(|\.equalsIgnoreCase\s*\(", body):
        return ["H0"]
    return ["HU"]


def _classify_webview(body: str) -> list[str]:
    has_proceed = re.search(r"\bproceed\s*\(", body)
    if not has_proceed:
        if re.search(r"\bcancel\s*\(|super\s*\.\s*onReceivedSslError", body):
            return ["W0"]
        return ["WU"]
    dialog = re.search(r"AlertDialog|Dialog\b|setPositiveButton|setNegativeButton", body)
    if dialog:
        return ["W2-A"]
    error_gated = re.search(r"getPrimaryError|\berror\s*==|hasError\s*\(", body)
    if error_gated:
        return ["W2-B"]
    if re.search(r"\bif\s*\(", body):
        # Conditional on something other than the error itself: app state.
        return ["W2-C"]
    return ["W1"]


# -- prompt protocol -----------------------------------------------------------

def build_prompt(snippet: Snippet, variant: str = "P2") -> str:
    """Classification prompt; P1 omits the unknown category, P2 keeps it."""
    if variant not in ("P1", "P2"):
        raise ValueError(f"unknown prompt variant: {variant}")
    lines = [
        "Task",
        "You are a professional information security researcher, and you need to",
        "thoroughly analyze the code snippet provided by the user that may be",
        "benign or contain SSL vulnerabilities.",
        "Refer to the categories provided below to determine whether the code has",
        "vulnerabilities and the category of the vulnerabilities:",
        "",
        "Categories",
    ]
    categories = TAXONOMY[snippet.interface_kind][1]
    if variant == "P1":
        categories = categories[:-1]
    lines += [f"- {code}: {desc}" for code, desc in categories]
    lines += [
        "",
        "Requirements",
        "- If the code belongs to multiple vulnerability categories at the same",
        "  level, output all categories separated by commas.",
        f"- {' / '.join(EXCLUSIVE_TRUST_FLAWS)} are mutually exclusive. At any time, the code",
        "  will not contain more than three types of vulnerabilities.",
        "- DO NOT use any format or include any additional content, only output",
        "  the classification category code.",
        "- You must strictly follow the above category definitions, and are",
        "  prohibited from defining any new categories.",
        "",
        f"Focus only on the method {snippet.focus_method} of class {snippet.focus_class}.",
        "",
        "Input:",
        snippet.source_text.strip(),
        "Output:",
    ]
    return "\n".join(lines)


def parse_completion(completion: str, interface_kind: str) -> set[str]:
    """Parse a model reply into a valid label set, repairing violations."""
    family = set(FAMILY_BY_KIND[interface_kind])
    tokens = [t.strip() for t in completion.replace("\n", ",").split(",") if t.strip()]
    recognized = [t for t in tokens if t in family]
    if not recognized:
        log.warning("unparsable completion %r for %s", completion, interface_kind)
        return {UNKNOWN_BY_KIND[interface_kind]}
    return repair_labels(recognized, interface_kind)


def classify_llm(snippet: Snippet, backend, variant: str = "P2") -> set[str]:
    """Classify via a ``prompt -> completion`` callable, called up to ``LLM_ATTEMPTS``
    times; the last attempt's error is raised."""
    prompt = build_prompt(snippet, variant)
    for attempt in range(1, LLM_ATTEMPTS + 1):
        try:
            completion = backend(prompt)
            break
        except Exception as exc:
            if attempt == LLM_ATTEMPTS:
                raise
            log.warning("backend attempt %d failed: %s", attempt, exc)
    return parse_completion(completion, snippet.interface_kind)


def classify_llm_batch(snippets: list[Snippet], backend, variant: str = "P2") -> dict[str, set[str]]:
    """Each snippet's labels. No snippet starts after a failure, which is raised, so a dead
    backend costs the calls of at most ``LLM_WORKERS`` snippets."""
    from concurrent.futures import ThreadPoolExecutor  # only remote backends need threads

    failed = threading.Event()

    def classify(snippet: Snippet) -> set[str] | None:
        if failed.is_set():
            return None  # the batch raises the failure that set it
        try:
            return classify_llm(snippet, backend, variant)
        except Exception:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=LLM_WORKERS) as pool:
        futures = {s.snippet_id: pool.submit(classify, s) for s in snippets}
        return {sid: fut.result() for sid, fut in futures.items()}


# -- evaluation ------------------------------------------------------------------


def _micro(tp: int, fp: int, fn: int) -> dict[str, float | None]:
    precision = rate(tp, tp + fp)
    recall = rate(tp, tp + fn)
    if precision and recall:
        f1 = 2 * precision * recall / (precision + recall)
    elif precision is None or recall is None:
        f1 = None
    else:
        f1 = 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def evaluate(
    predictions: dict[str, set[str]], ground_truth: dict[str, set[str]]
) -> dict[str, dict]:
    """Multi-label micro precision/recall/F1 per category plus grouped roll-ups."""
    if set(predictions) != set(ground_truth):
        raise ValueError("predictions and ground truth cover different snippets")
    labels = sorted({l for s in ground_truth.values() for l in s}
                    | {l for s in predictions.values() for l in s})
    counts = {l: [0, 0, 0] for l in labels}  # tp, fp, fn
    for sid, truth in ground_truth.items():
        pred = predictions[sid]
        for label in labels:
            if label in pred and label in truth:
                counts[label][0] += 1
            elif label in pred:
                counts[label][1] += 1
            elif label in truth:
                counts[label][2] += 1

    report = {label: _micro(*counts[label]) for label in labels}

    def rollup(members: list[str]) -> dict:
        tp = sum(counts[l][0] for l in members if l in counts)
        fp = sum(counts[l][1] for l in members if l in counts)
        fn = sum(counts[l][2] for l in members if l in counts)
        return _micro(tp, fp, fn)

    report["All Categories"] = rollup(labels)
    for family in FAMILY_BY_KIND.values():
        group = family[0][0] + "2"  # T2, H2, W2: the flawed subcategories
        report[f"{group} Subcategories"] = rollup([l for l in family if l.startswith(group + "-")])
    return report


# -- corpus ---------------------------------------------------------------------


def load_corpus(path: str | Path) -> list[tuple[Snippet, set[str]]]:
    """Load snippets and ground truth from a directory with a manifest.json."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    if not isinstance(manifest, dict):
        raise ValueError("manifest.json is not a JSON object")
    corpus = []
    for filename, meta in sorted(manifest.items()):
        source = (path / filename).read_text()
        snippet = Snippet(
            snippet_id=filename,
            source_text=source,
            interface_kind=meta["interface_kind"],
            focus_class=meta["focus_class"],
            focus_method=meta["focus_method"],
        )
        labels = meta["labels"]
        if type(labels) is not list or not all(type(label) is str for label in labels):
            raise ValueError(f"{filename}: labels must be a list of strings")
        truth = set(labels)
        validate_labels(truth, snippet.interface_kind)
        corpus.append((snippet, truth))
    return corpus


def dedup_by_class(corpus: list[tuple[Snippet, set[str]]]) -> list[tuple[Snippet, set[str]]]:
    """Keep the first snippet per fully qualified focus class."""
    seen: set[str] = set()
    result = []
    for snippet, truth in corpus:
        if snippet.focus_class in seen:
            continue
        seen.add(snippet.focus_class)
        result.append((snippet, truth))
    return result
