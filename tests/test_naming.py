"""File-naming unit tests: canonical names, chain joining, and shortening."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from methodgit import NamePolicy, extract, method_file_name
from methodgit.errors import NameError_
from methodgit.naming import field_file_name, shorten

from conftest import PERSON_JAVA


def test_person_method_and_field_names():
    methods, fields = extract(PERSON_JAVA)
    assert method_file_name(methods[0]) == "Person#public_int_getLength().mjava"
    assert method_file_name(methods[1]) == "Person#public_void_setLength(int).mjava"
    assert field_file_name(fields[0]) == "Person#private_int_length.fjava"


def test_nested_chain_uses_dollar_join():
    src = "class Outer { class Inner { void f() {} } }"
    (m,) = extract(src)[0]
    assert method_file_name(m) == "Outer$Inner#void_f().mjava"


def test_anonymous_chain_concatenates_counter():
    src = """
    class Outer {
      void host() {
        Runnable r = new Runnable() { public void run() {} };
      }
    }
    """
    methods, _ = extract(src)
    run = next(m for m in methods if m.name == "run")
    assert method_file_name(run) == "Outer$1#public_void_run().mjava"


def test_empty_segments_are_omitted():
    src = "class A { A() {} void f() {} }"
    methods, _ = extract(src)
    ctor = next(m for m in methods if m.name == "A")
    plain = next(m for m in methods if m.name == "f")
    assert method_file_name(ctor) == "A#A().mjava"
    assert method_file_name(plain) == "A#void_f().mjava"


def test_whitespace_removed_from_types():
    src = """
    class W {
      java.util.Map<String, Integer> f(java.util.List<? extends Number> xs) {
        return null;
      }
    }
    """
    (m,) = extract(src)[0]
    name = method_file_name(m)
    assert name == (
        "W#java.util.Map<String,Integer>_f(java.util.List<?extendsNumber>).mjava"
    )


def test_multiple_parameters_comma_joined():
    src = "class M { static void f(int a, String b, long[] c) {} }"
    (m,) = extract(src)[0]
    assert method_file_name(m) == "M#static_void_f(int,String,long[]).mjava"


def test_policy_floor():
    with pytest.raises(NameError_):
        NamePolicy(max_file_name_bytes=31)


def test_short_names_pass_through_unchanged():
    policy = NamePolicy(max_file_name_bytes=255)
    assert shorten("Person#public_int_getLength()", policy, ".mjava") == (
        "Person#public_int_getLength().mjava"
    )


def test_long_name_is_truncated_with_hash_suffix():
    policy = NamePolicy(max_file_name_bytes=64)
    base = "Klass#public_static_void_" + "x" * 200 + "(int,int,int)"
    result = shorten(base, policy, ".mjava")
    assert result.endswith(".mjava")
    assert len(result.encode("utf-8")) <= 64
    stem = result[: -len(".mjava")]
    assert stem[-9] == "_"
    suffix = stem[-8:]
    assert suffix == hashlib.sha256(base.encode("utf-8")).hexdigest()[:8]
    budget = 64 - len(".mjava") - 9
    assert stem[:-9] == base.encode("utf-8")[:budget].decode("utf-8")


def test_truncation_respects_utf8_boundaries():
    policy = NamePolicy(max_file_name_bytes=40)
    base = "K#" + "é" * 100
    result = shorten(base, policy, ".mjava")
    assert len(result.encode("utf-8")) <= 40
    result.encode("utf-8")


def test_shortening_is_deterministic_and_injective_on_sample():
    policy = NamePolicy(max_file_name_bytes=48)
    seen = {}
    for i in range(50):
        base = "C#m_" + "y" * 60 + str(i)
        name = shorten(base, policy, ".mjava")
        assert shorten(base, policy, ".mjava") == name
        assert name not in seen
        seen[name] = base


def test_long_method_name_end_to_end():
    long_name = "do" + "Very" * 60 + "LongThing"
    src = f"class L {{ void {long_name}() {{}} }}"
    (m,) = extract(src)[0]
    name = method_file_name(m, NamePolicy(max_file_name_bytes=100))
    assert len(name.encode("utf-8")) <= 100
    assert name.endswith(".mjava")
    assert name[-15] == "_"


@given(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF),
        min_size=0,
        max_size=400,
    ),
    st.integers(min_value=32, max_value=200),
)
def test_shorten_always_fits_budget(base, limit):
    policy = NamePolicy(max_file_name_bytes=limit)
    result = shorten(base, policy, ".mjava")
    assert len(result.encode("utf-8")) <= limit
    assert result.endswith(".mjava")
