import pytest
from hypothesis import given
from hypothesis import strategies as st

from mitmscan.classifier import Snippet, build_prompt, evaluate
from mitmscan.profiles import (
    HOSTNAME_BEHAVIORS,
    PARAMS,
    PINNING_MODES,
    TRUST_BEHAVIORS,
    WEBVIEW_BEHAVIORS,
)
from mitmscan.taxonomy import (
    FAMILY_BY_KIND,
    FOCUS_METHODS,
    SECURE_LABELS,
    TAXONOMY,
    UNKNOWN_BY_KIND,
    UNKNOWN_LABELS,
    LabelError,
    repair_labels,
    validate_labels,
)

BEHAVIORS_BY_KIND = {
    "trust_manager": TRUST_BEHAVIORS,
    "hostname_verifier": HOSTNAME_BEHAVIORS,
    "webview_client": WEBVIEW_BEHAVIORS,
}


def test_valid_sets_pass():
    validate_labels({"T1"}, "trust_manager")
    validate_labels({"T2-A", "T2-E", "T2-F"}, "trust_manager")
    validate_labels({"W2-B"}, "webview_client")
    validate_labels({"HU"}, "hostname_verifier")


@pytest.mark.parametrize(
    "labels,kind",
    [
        (set(), "trust_manager"),
        ({"T1"}, "hostname_verifier"),  # out of family
        ({"T2-A", "T2-B"}, "trust_manager"),  # mutually exclusive
        ({"T0", "T1"}, "trust_manager"),  # secure must stand alone
        ({"TU", "T1"}, "trust_manager"),  # unknown must stand alone
        ({"T1", "T2-E", "T2-F", "T2-A"}, "trust_manager"),  # over the cap
        ({"X9"}, "trust_manager"),
    ],
)
def test_invalid_sets_rejected(labels, kind):
    with pytest.raises(LabelError):
        validate_labels(labels, kind)


def test_unknown_interface_kind():
    with pytest.raises(LabelError):
        validate_labels({"T1"}, "certificate_pinner")
    with pytest.raises(LabelError):
        repair_labels(["T1"], "certificate_pinner")


def test_repair_keeps_first_exclusive():
    assert repair_labels(["T2-A", "T2-B"], "trust_manager") == {"T2-A"}
    assert repair_labels(["T2-D", "T2-A", "T2-E"], "trust_manager") == {"T2-D", "T2-E"}


def test_repair_drops_out_of_family_and_duplicates():
    assert repair_labels(["W1", "T1", "W1"], "webview_client") == {"W1"}


def test_repair_standalone_rules():
    assert repair_labels(["T0", "T1"], "trust_manager") == {"T0"}
    assert repair_labels(["T1", "TU"], "trust_manager") == {"T1"}


def test_repair_enforces_cap():
    assert repair_labels(["T1", "T2-E", "T2-F", "T2-A"], "trust_manager") == {
        "T1", "T2-E", "T2-F",
    }


def test_repair_empty_maps_to_unknown():
    assert repair_labels([], "trust_manager") == {"TU"}
    assert repair_labels(["T1"], "hostname_verifier") == {"HU"}
    assert repair_labels(["bogus"], "webview_client") == {"WU"}


@given(
    st.sampled_from(sorted(TAXONOMY)),
    st.lists(st.sampled_from(sorted(set().union(*FAMILY_BY_KIND.values()) | {"bogus"})),
             max_size=6),
)
def test_repair_keeps_each_label_validate_accepts(kind, labels):
    result = repair_labels(labels, kind)
    validate_labels(result, kind)
    family = set(FAMILY_BY_KIND[kind])
    if family & set(labels):
        assert result <= set(labels)
    else:
        assert result == {UNKNOWN_BY_KIND[kind]}
    for i, label in enumerate(labels):
        if label in family and label not in result:
            kept_before = {l for l in labels[:i] if l in result}
            with pytest.raises(LabelError):
                validate_labels(kept_before | {label}, kind)


def test_each_family_lists_secure_first_and_unknown_last():
    assert SECURE_LABELS == {"T0", "H0", "W0"}
    assert UNKNOWN_LABELS == {"TU", "HU", "WU"}


@pytest.mark.parametrize("kind", sorted(TAXONOMY))
def test_behavior_codes_are_labels_without_hyphen(kind):
    expected = tuple(l.replace("-", "") for l in FAMILY_BY_KIND[kind] if l not in UNKNOWN_LABELS)
    assert BEHAVIORS_BY_KIND[kind] == expected


def test_parameterized_behaviors_are_behavior_codes():
    codes = set(TRUST_BEHAVIORS + HOSTNAME_BEHAVIORS + WEBVIEW_BEHAVIORS + PINNING_MODES)
    assert {owner for _, owners, _ in PARAMS.values() for owner in owners} <= codes


def _prompt_categories(prompt):
    lines = prompt.splitlines()
    start = lines.index("Categories") + 1
    return lines[start : lines.index("", start)]


@pytest.mark.parametrize("kind", sorted(TAXONOMY))
def test_prompt_lists_the_table_in_order(kind):
    method = FOCUS_METHODS[kind]
    snippet = Snippet("s.java", f"class C {{ void {method}() {{}} }}", kind, "C", method)
    entries = [f"- {label}: {description}" for label, description in TAXONOMY[kind][1]]
    assert _prompt_categories(build_prompt(snippet, variant="P2")) == entries
    assert _prompt_categories(build_prompt(snippet, variant="P1")) == entries[:-1]


def test_evaluate_rolls_up_each_flawed_subcategory_group():
    # One snippet per label; every label is predicted except all subcategories
    # but the first of each group, so a group's recall is 1 / its size.
    labels = [label for family in FAMILY_BY_KIND.values() for label in family]
    predicted = {"T2-A", "H2-A", "W2-A"} | {l for l in labels if "-" not in l}
    truth = {label: {label} for label in labels}
    report = evaluate({l: {l} & predicted for l in labels}, truth)
    groups = {name: row["recall"] for name, row in report.items() if "Subcategories" in name}
    assert groups == {
        "T2 Subcategories": pytest.approx(1 / 6),
        "H2 Subcategories": pytest.approx(1 / 2),
        "W2 Subcategories": pytest.approx(1 / 3),
    }
