import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.classifier import (
    LLM_ATTEMPTS,
    LLM_WORKERS,
    Snippet,
    _swallowed_validation,
    blank_comments_and_literals,
    build_prompt,
    classify_llm,
    classify_llm_batch,
    classify_rule,
    dedup_by_class,
    evaluate,
    extract_method_body,
    load_corpus,
    parse_completion,
)
from mitmscan.taxonomy import validate_labels

CORPUS_DIR = Path(__file__).resolve().parents[1] / "src" / "mitmscan" / "data" / "corpus"


def tm_snippet(text, sid="s1", cls="com.x.C"):
    return Snippet(sid, text, "trust_manager", cls, "checkServerTrusted")


def test_snippet_validation():
    with pytest.raises(ValueError):
        Snippet("s", "", "trust_manager", "C", "checkServerTrusted")
    with pytest.raises(ValueError):
        Snippet("s", "x", "trust_manager", "C", "verify")
    with pytest.raises(ValueError):
        Snippet("s", "x", "other_kind", "C", "verify")


def test_extract_method_body():
    src = """
    class C {
        public void checkServerTrusted(X509Certificate[] c, String a) {
            if (c == null) { throw new RuntimeException(); }
        }
    }
    """
    body = extract_method_body(src, "checkServerTrusted")
    assert "throw new RuntimeException()" in body
    with pytest.raises(ValueError, match="no declaration"):
        extract_method_body("class C {}", "checkServerTrusted")


def test_extract_skips_call_sites():
    src = """
    class C {
        public void checkServerTrusted(X509Certificate[] c, String a) {
            inner.checkServerTrusted(c, a);
        }
    }
    """
    body = extract_method_body(src, "checkServerTrusted")
    assert "inner.checkServerTrusted" in body


def _char_loop_extract(source_text, method_name):
    """The character-by-character extractor the bracket scanner replaced."""
    text = blank_comments_and_literals(source_text)
    pattern = re.compile(rf"\b{re.escape(method_name)}\s*\(")
    for match in pattern.finditer(text):
        before = text[: match.start()].rstrip()
        if before.endswith("."):
            continue
        depth = 0
        i = match.end() - 1
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        rest = text[i + 1 :]
        brace = rest.find("{")
        semi = rest.find(";")
        if brace == -1 or (semi != -1 and semi < brace):
            continue
        depth = 0
        for j in range(brace, len(rest)):
            ch = rest[j]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return rest[brace + 1 : j]
        raise ValueError(f"unbalanced braces in {method_name}")
    raise ValueError(f"no declaration of {method_name} found")


def _char_loop_swallowed(body):
    """The character-by-character catch-block check the bracket scanner replaced."""
    if "try" not in body or "catch" not in body:
        return False
    if not re.search(r"checkServerTrusted|checkValidity|\.verify\s*\(", body):
        return False
    for match in re.finditer(r"catch\s*\([^)]*\)\s*\{", body):
        depth = 0
        for j in range(match.end() - 1, len(body)):
            if body[j] == "{":
                depth += 1
            elif body[j] == "}":
                depth -= 1
                if depth == 0:
                    if "throw" not in body[match.end() : j]:
                        return True
                    break
    return False


# Method bodies: try/catch blocks, validation calls, and stray brackets.
_BODY = st.lists(
    st.sampled_from(
        (
            "try {",
            "} catch (Exception e) {",
            "catch (E e) {",
            "checkValidity();",
            "chain[0].verify(key);",
            "throw e;",
            "return;",
            "{",
            "}",
            "(",
            ")",
            " ",
            "\n",
            "/* } */",
        )
    ),
    max_size=14,
).map("".join)

# Java-like text: declarations with those bodies, call sites, abstract
# declarations and loose fragments.
_JAVA = st.lists(
    st.one_of(
        _BODY.map(lambda body: "public void checkServerTrusted(X509Certificate[] c, String a) {" + body + "}"),
        _BODY.map(lambda body: "void checkServerTrusted(Object c " + body),
        st.sampled_from(
            (
                "abstract void checkServerTrusted(X509Certificate[] c);",
                "inner.checkServerTrusted(c, a);",
                "inner . checkServerTrusted (c);",
            )
        ),
        _BODY,
    ),
    max_size=4,
).map("\n".join)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", str(exc))


@settings(max_examples=200, deadline=None)
@given(_JAVA, _BODY)
def test_bracket_scanner_matches_the_char_loops(text, body):
    assert _outcome(extract_method_body, text, "checkServerTrusted") == _outcome(
        _char_loop_extract, text, "checkServerTrusted"
    )
    assert _swallowed_validation(body) == _char_loop_swallowed(body)


def test_parse_failure_degrades_to_unknown():
    snippet = tm_snippet("class C { void otherMethod() {} } checkServerTrusted")
    assert classify_rule(snippet) == {"TU"}


def test_classify_rule_is_pure():
    snippet = tm_snippet("class C { void checkServerTrusted(X509Certificate[] c, String a) { return; } }")
    assert classify_rule(snippet) == classify_rule(snippet) == {"T1"}


def test_brackets_and_slashes_inside_literals_are_not_code():
    webview = Snippet(
        "w", 'class W { public void onReceivedSslError(WebView v, SslErrorHandler handler,'
        ' SslError e) { Log.d("ssl", "}"); handler.cancel(); } }',
        "webview_client", "com.x.W", "onReceivedSslError",
    )
    assert classify_rule(webview) == {"W0"}
    source = (
        "class V implements HostnameVerifier {\n"
        "  public boolean verify(String hostname, SSLSession session) {\n"
        '    return !hostname.equals("https://api.example.com") && HttpsURLConnection'
        ".getDefaultHostnameVerifier().verify(hostname, session);\n"
        "  }\n"
        "}\n"
    )
    body = extract_method_body(source, "verify")
    assert "getDefaultHostnameVerifier()" in body and '"                       "' in body
    assert classify_rule(Snippet("v", source, "hostname_verifier", "com.x.V", "verify")) == {"H0"}


def test_corpus_exact_match_and_invariants():
    corpus = load_corpus(CORPUS_DIR)
    assert len(corpus) >= 40
    exact = 0
    for snippet, truth in corpus:
        pred = classify_rule(snippet)
        validate_labels(pred, snippet.interface_kind)
        if pred == truth:
            exact += 1
    assert exact / len(corpus) >= 0.95


def test_dedup_by_class():
    a = tm_snippet("class A { void checkServerTrusted(X[] c, String a) {} }", "s1", "com.a.A")
    b = tm_snippet("class A { void checkServerTrusted(X[] c, String a) { return; } }", "s2", "com.a.A")
    c = tm_snippet("class B { void checkServerTrusted(X[] c, String a) {} }", "s3", "com.b.B")
    deduped = dedup_by_class([(a, {"T1"}), (b, {"T1"}), (c, {"T1"})])
    assert [s.snippet_id for s, _ in deduped] == ["s1", "s3"]


def test_build_prompt_variants():
    snippet = tm_snippet("class C { void checkServerTrusted(X[] c, String a) { return; } }")
    p1 = build_prompt(snippet, variant="P1")
    p2 = build_prompt(snippet, variant="P2")
    assert "TU" not in p1 and "TU" in p2
    assert "only output" in p1 and "the classification category code" in p1
    assert snippet.source_text.strip() in p1
    with pytest.raises(ValueError):
        build_prompt(snippet, variant="P3")


def test_parse_completion_paths():
    assert parse_completion("T2-A,T2-E", "trust_manager") == {"T2-A", "T2-E"}
    assert parse_completion("T2-A,T2-B", "trust_manager") == {"T2-A"}
    assert parse_completion("banana", "trust_manager") == {"TU"}
    assert parse_completion("H1", "hostname_verifier") == {"H1"}


def test_classify_llm_retries_then_fails():
    snippet = tm_snippet("class C { void checkServerTrusted(X[] c, String a) { return; } }")
    calls = []

    def flaky(prompt):
        calls.append(1)
        if len(calls) < 3:
            raise ConnectionError("transient")
        return "T1"

    assert classify_llm(snippet, flaky) == {"T1"}
    assert len(calls) == 3

    def dead(prompt):
        raise ConnectionError("down")

    with pytest.raises(ConnectionError, match="down"):
        classify_llm(snippet, dead)


def test_classify_llm_batch_bounded():
    snippets = [
        tm_snippet("class C { void checkServerTrusted(X[] c, String a) { return; } }", f"s{i}")
        for i in range(5)
    ]
    results = classify_llm_batch(snippets, lambda p: "T1")
    assert all(results[f"s{i}"] == {"T1"} for i in range(5))


def test_classify_llm_batch_stops_at_the_first_failure():
    """A dead backend costs the snippets already being classified, and no others."""
    snippets = [
        tm_snippet("class C { void checkServerTrusted(X[] c, String a) { return; } }", f"s{i}")
        for i in range(20)
    ]
    calls = []

    def dead(prompt):
        calls.append(1)
        raise ConnectionError("down")

    with pytest.raises(ConnectionError, match="down"):
        classify_llm_batch(snippets, dead)
    assert LLM_ATTEMPTS <= len(calls) <= LLM_ATTEMPTS * LLM_WORKERS


def test_evaluate_all_ones_and_half_recall():
    truth = {"a": {"T2-A"}, "b": {"T2-A"}}
    assert evaluate(truth, truth)["All Categories"]["f1"] == 1.0

    preds = {"a": {"T2-A"}, "b": {"TU"}}
    report = evaluate(preds, truth)
    cat = report["T2-A"]
    assert cat["precision"] == 1.0
    assert cat["recall"] == 0.5
    assert abs(cat["f1"] - 2 / 3) < 1e-3
    assert report["T2 Subcategories"]["recall"] == 0.5


def test_evaluate_requires_same_ids():
    with pytest.raises(ValueError):
        evaluate({"a": {"T1"}}, {"b": {"T1"}})
