import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debcheck.version import VersionOrdering, compare_versions, satisfies, version_cmp

from conftest import HAVE_DPKG, dpkg_compare

# Expected orderings frozen from the system dpkg on this machine.
FROZEN_CASES = [
    ("1.2", "1.2", VersionOrdering.EQ),
    ("1.10-1", "1.2-1", VersionOrdering.GT),
    ("1:0.9", "2.0", VersionOrdering.GT),
    ("1.0~rc1", "1.0", VersionOrdering.LT),
    ("1.0", "1.0-0", VersionOrdering.EQ),
    ("1.0", "1.0-1", VersionOrdering.LT),
    ("0:1.2", "1.2", VersionOrdering.EQ),
    ("2.0.1", "2.0", VersionOrdering.GT),
    ("1.0+b1", "1.0", VersionOrdering.GT),
    ("1.0~~", "1.0~", VersionOrdering.LT),
    ("1.0a", "1.0.1", VersionOrdering.LT),  # letters sort before punctuation
    ("2:1.0", "1:9.9", VersionOrdering.GT),
    ("0-0", "0-a", VersionOrdering.LT),  # a digit ranks 0 against a letter
]


@pytest.mark.parametrize("a,b,expected", FROZEN_CASES)
def test_frozen_orderings(a, b, expected):
    assert compare_versions(a, b) is expected


@pytest.mark.parametrize("a,b,expected", FROZEN_CASES)
@pytest.mark.skipif(not HAVE_DPKG, reason="dpkg not available")
def test_frozen_orderings_match_dpkg(a, b, expected):
    assert dpkg_compare(a, b) == expected.value


def test_empty_versions_rejected():
    with pytest.raises(ValueError):
        compare_versions("", "1")
    with pytest.raises(ValueError):
        compare_versions("1", "")


def test_malformed_epoch_is_treated_as_text():
    # 'x:1' has no numeric epoch; it still gets a total ordering.
    assert compare_versions("x:1", "x:1") is VersionOrdering.EQ
    assert compare_versions("x:1", "1") in (VersionOrdering.LT, VersionOrdering.GT)


@pytest.mark.parametrize(
    "version,relation,reference,expected",
    [
        ("2.0", ">=", "2.0", True),
        ("2.0", ">>", "2.0", False),
        ("2.0", "<=", "2.0", True),
        ("2.0", "<<", "2.0", False),
        ("2.0", "=", "2.0", True),
        ("1.9", "<<", "2.0", True),
        ("3", ">=", "2", True),
    ],
)
def test_satisfies(version, relation, reference, expected):
    assert satisfies(version, relation, reference) is expected


version_text = st.text(
    alphabet="0123456789.+-~:abcdefzAZ",
    min_size=1,
    max_size=12,
)


@given(version_text)
def test_reflexive(v):
    assert compare_versions(v, v) is VersionOrdering.EQ


@given(version_text, version_text)
def test_antisymmetric(a, b):
    forward = version_cmp(a, b)
    assert version_cmp(b, a) == -forward


@given(version_text, version_text, version_text)
@settings(max_examples=300)
def test_transitive(a, b, c):
    ordered = sorted([a, b, c], key=lambda x: x)  # any fixed arrangement
    x, y, z = ordered
    if version_cmp(x, y) <= 0 and version_cmp(y, z) <= 0:
        assert version_cmp(x, z) <= 0
    if version_cmp(z, y) <= 0 and version_cmp(y, x) <= 0:
        assert version_cmp(z, x) <= 0


@pytest.mark.skipif(not HAVE_DPKG, reason="dpkg not available")
@given(
    st.lists(
        st.from_regex(r"([0-9]:)?[0-9][0-9a-z.+~]{0,6}(-[0-9a-z.~]{1,4})?", fullmatch=True),
        min_size=2,
        max_size=2,
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_agrees_with_dpkg_on_wellformed_versions(pair):
    a, b = pair
    assert version_cmp(a, b) == dpkg_compare(a, b)
