"""Rendering unit tests: golden outputs, tag assignment per construct,
delimiter elision, and the tag-strip reconstruction property."""

from __future__ import annotations

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from methodgit import ConversionConfig, LineFormat, RenderConfig, extract, render
from methodgit import emit
from methodgit.emit import (
    BRACKET_TAGS,
    PAREN_TAGS,
    SEMICOLON_TAGS,
    categorize,
    elided_indices,
)
from methodgit.errors import ParseError
from methodgit.extract import MethodDecl
from methodgit.rewrite import convert_blob

from conftest import (
    FINER,
    FINER_NO_H1,
    FINER_NO_H2,
    NESTED_JAVA,
    PERSON_JAVA,
    PLAIN,
    method_named,
    render_method,
)


def lines(source: str, name: str, config: RenderConfig) -> list[str]:
    return render_method(source, name, config).decode().split("\n")[:-1]


def tag_of(rendered_lines: list[str], token: str, nth: int = 0) -> str:
    hits = [
        ln.split(" ", 1)[1]
        for ln in rendered_lines
        if ln.startswith(token + " ")
    ]
    return hits[nth]


def test_getter_golden_h1_only():
    assert lines(PERSON_JAVA, "getLength", FINER_NO_H2) == [
        "public",
        "int",
        "getLength",
        "( METHOD_PARAMS",
        ") METHOD_PARAMS",
        "{ METHOD_BODY",
        "return",
        "length",
        "; RETURN",
        "} METHOD_BODY",
    ]


def test_getter_golden_both_heuristics():
    assert lines(PERSON_JAVA, "getLength", FINER) == [
        "public",
        "int",
        "getLength",
        "return",
        "length",
        "; RETURN",
    ]


def test_setter_golden_both_heuristics():
    assert lines(PERSON_JAVA, "setLength", FINER) == [
        "public",
        "void",
        "setLength",
        "int",
        "length",
        "this",
        ".",
        "length",
        "=",
        "length",
        "; EXPRESSION",
    ]


def test_plain_render_is_verbatim():
    assert lines(PERSON_JAVA, "getLength", PLAIN) == [
        "  public int getLength() {",
        "    return length;",
        "  }",
    ]


def test_render_ends_with_single_lf():
    out = render_method(PERSON_JAVA, "getLength", FINER)
    assert out.endswith(b"\n")
    assert not out.endswith(b"\n\n")


def test_no_h1_lines_are_bare_tokens():
    got = lines(PERSON_JAVA, "getLength", FINER_NO_H1)
    assert got == ["public", "int", "getLength", "return", "length", ";"]


def test_tag_enumerations_are_frozen():
    assert len(SEMICOLON_TAGS) == 18
    assert len(BRACKET_TAGS) == 21
    assert len(PAREN_TAGS) == 20
    assert "RETURN" in SEMICOLON_TAGS
    assert "METHOD_BODY" in BRACKET_TAGS
    assert "METHOD_PARAMS" in PAREN_TAGS
    assert set(SEMICOLON_TAGS) & set(BRACKET_TAGS) == set()


KITCHEN = """
class Kitchen {
  int f(int[] a, java.util.List<String> xs) {
    int total = 0;
    for (int i = 0; i < a.length; i++) { total += a[i]; }
    for (String s : xs) { total += s.length(); }
    while (total > 100) { total /= 2; }
    do { total--; } while (total > 50);
    if (total == 0) { total = 1; } else if (total < 0) { total = -1; }
    else { total += 2; }
    switch (total) { case 1: total = 9; break; default: total++; }
    try (java.io.Reader r = open()) { r.read(); }
    catch (Exception e) { throw new RuntimeException(e); }
    finally { total += (int) 3L; }
    synchronized (this) { total += ((total)); }
    Runnable run = () -> { helper(); };
    Object o = new Object() { public int hashCode() { return 7; } };
    int[] arr = { 1, 2, 3 };
    assert total >= 0;
    outer:
    while (true) { break outer; }
    return total;
  }
}
"""


def test_kitchen_sink_tags():
    got = lines(KITCHEN, "f", FINER_NO_H2)
    assert "( FOR" in got and ") FOR" in got
    assert "; FOR_INIT" in got and "; FOR_COND" in got
    assert "( ENHANCED_FOR" in got and "{ ENHANCED_FOR" in got
    assert "( WHILE_COND" in got and "{ WHILE" in got
    assert "{ DO" in got and "( DO_COND" in got and "; DO_WHILE" in got
    assert "( IF_COND" in got and "{ IF" in got and "{ ELSE" in got
    assert "( SWITCH_SELECTOR" in got and "{ SWITCH" in got
    assert "; BREAK" in got
    assert "( TRY_RESOURCE" in got and "{ TRY" in got
    assert "( CATCH_PARAM" in got and "{ CATCH" in got and "{ FINALLY" in got
    assert "; THROW" in got
    assert "( CONSTRUCTOR_CALL" in got
    assert "( CAST" in got and ") CAST" in got
    assert "( GROUPING" in got
    assert "( SYNCHRONIZED_EXPR" in got and "{ SYNCHRONIZED" in got
    assert "( LAMBDA_PARAMS" in got and "{ LAMBDA_BODY" in got
    assert "{ ANONYMOUS_CLASS" in got
    assert "{ ARRAY_INITIALIZER" in got
    assert "; ASSERT" in got
    assert "; LOCAL_VARIABLE" in got and "; EXPRESSION" in got
    assert "( METHOD_CALL" in got


def test_cast_vs_grouping_disambiguation():
    src = """
    class C {
      int f(Object o, int n) {
        int a = (int) o;
        int b = (n) + 1;
        long c = (long) (n + 1);
        Object d = (java.util.List<String>) o;
        return a + b;
      }
    }
    """
    got = lines(src, "f", FINER_NO_H2)
    casts = [ln for ln in got if ln == "( CAST"]
    groups = [ln for ln in got if ln == "( GROUPING"]
    assert len(casts) == 3
    assert len(groups) == 2


def test_switch_expression_with_yield():
    src = """
    class S {
      int pick(int n) {
        return switch (n) {
          case 0 -> 10;
          default -> { yield n * 2; }
        };
      }
    }
    """
    got = lines(src, "pick", FINER_NO_H2)
    assert "( SWITCH_SELECTOR" in got
    assert "; YIELD" in got
    assert "{ PLAIN_BLOCK" in got


def test_abstract_method_tags_and_elision():
    src = "interface I { int size(); }"
    assert lines(src, "size", FINER_NO_H2) == [
        "int",
        "size",
        "( METHOD_PARAMS",
        ") METHOD_PARAMS",
        "; ABSTRACT_METHOD",
    ]
    assert lines(src, "size", FINER) == ["int", "size", "; ABSTRACT_METHOD"]


def test_field_render_and_no_elision():
    src = "class F { private static final int LIMIT = 64; }"
    _, fields = extract(src)
    decl = fields[0]
    assert render(decl, FINER).decode().split("\n")[:-1] == [
        "private",
        "static",
        "final",
        "int",
        "LIMIT",
        "=",
        "64",
        "; FIELD",
    ]
    assert elided_indices(decl) == frozenset()


def test_compact_constructor_elides_only_braces():
    src = "record P(int x) { P { x = Math.abs(x); } }"
    m = method_named(src, "P")
    dropped = elided_indices(m)
    assert len(dropped) == 2
    texts = [m.tokens[i] for i in sorted(dropped)]
    assert texts == ["{", "}"]


def test_elided_indices_are_the_four_outer_delimiters():
    m = method_named(PERSON_JAVA, "setLength")
    dropped = elided_indices(m)
    assert len(dropped) == 4
    assert sorted(m.tokens[i] for i in dropped) == ["(", ")", "{", "}"]


def test_javadoc_block_precedes_tokens():
    src = """
class J {
  /**
   * Doc line.
   */
  void f() {}
}
"""
    got = lines(src, "f", FINER_NO_H2)
    assert got[0] == "  /**"
    assert got[1] == "   * Doc line."
    assert got[2] == "   */"
    assert got[3] == "void"


def test_categorize_is_total_on_every_terminator():
    methods, _ = extract(KITCHEN)
    for m in methods:
        tags = categorize(m)
        assert len(tags) == len(m.tokens)
        for tok, tag in zip(m.tokens, tags):
            if tok == ";":
                assert tag in SEMICOLON_TAGS
            elif tok in "{}":
                assert tag in BRACKET_TAGS
            elif tok in "()":
                assert tag in PAREN_TAGS
            else:
                assert tag is None


ALL_TAGS = frozenset(SEMICOLON_TAGS) | frozenset(BRACKET_TAGS) | frozenset(PAREN_TAGS)


def reconstruct(rendered: bytes, decl) -> list[str]:
    """Drop the javadoc, strip tags and re-insert elided delimiters; yields
    token texts.

    Only terminator tokens carry tags, so a tagged line is exactly one
    delimiter character, a space, and a known tag.
    """
    texts: list[str] = []
    for ln in rendered.decode().split("\n")[len(decl.javadoc_lines):-1]:
        if len(ln) > 2 and ln[0] in ";{}()" and ln[1] == " " and ln[2:] in ALL_TAGS:
            texts.append(ln[0])
        else:
            texts.append(ln)
    for idx in sorted(elided_indices(decl)):
        texts.insert(idx, decl.tokens[idx])
    return texts


RECONSTRUCT_CONFIG = RenderConfig()


def test_reconstruction_roundtrip_kitchen():
    methods, _ = extract(KITCHEN)
    for m in methods:
        rebuilt = reconstruct(render(m, RECONSTRUCT_CONFIG), m)
        assert rebuilt == m.tokens


def test_repeated_constructs_repeat_tag_lines():
    src = """
    class D {
      int f(int n) {
        if (n > 0) { n--; }
        if (n > 1) { n--; }
        return n;
      }
    }
    """
    got = lines(src, "f", FINER_NO_H2)
    assert got.count("( IF_COND") == 2
    assert got.count("{ IF") == 2


@given(st.integers(min_value=0, max_value=3), st.booleans(), st.booleans())
def test_line_count_matches_token_count(depth, h1, h2):
    nest = "if (x > 0) { x--; } " * depth
    src = f"class P {{ void f(int x) {{ {nest}x++; }} }}"
    m = method_named(src, "f")
    config = RenderConfig(heuristic1=h1, heuristic2=h2)
    got = render(m, config).decode().split("\n")[:-1]
    expected = len(m.tokens) - (4 if h2 else 0)
    assert len(got) == expected


NESTED_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "nested_finer_no_h2.txt")


def nested_renders() -> str:
    methods, fields = extract(NESTED_JAVA)
    decls = [d for d in fields if d.name == "task"] + [m for m in methods if m.name == "work"]
    return "".join(f"== {d.name}\n" + render(d, FINER_NO_H2).decode() for d in decls)


def test_nested_declarations_golden():
    with open(NESTED_GOLDEN, encoding="utf-8") as f:
        assert nested_renders() == f.read()


def test_sealed_as_a_nested_type_name_is_a_field_type():
    # 'sealed' is a modifier only before a type declaration; here it names
    # the type of a field of a local class.
    src = """
    class S {
      void f() {
        class Box {
          sealed value;
          int size() { return 1; }
        }
      }
    }
    """
    got = lines(src, "f", FINER_NO_H2)
    assert got[got.index("value") + 1] == "; FIELD"
    assert "( METHOD_PARAMS" in got[got.index("size"):]
    assert "; RETURN" in got


def test_type_keyword_without_a_name_is_not_a_declaration():
    # javac rejects a type keyword with no name after it, so the file is
    # skipped rather than converted with guessed tags.
    for keyword in ("class", "interface", "enum"):
        src = f"""
        class N {{
          void f(int n) {{
            {keyword} {{ int x; }}
            g(n);
          }}
        }}
        """
        with pytest.raises(ParseError, match="expected type name"):
            extract(src)
        assert convert_blob(src.encode(), ConversionConfig()) is None


@pytest.mark.parametrize("source", [PERSON_JAVA, NESTED_JAVA], ids=["person", "nested"])
def test_a_token_has_one_tag_in_every_declaration(source):
    # A nested method's tokens are rendered in its own file and in the file
    # of each declaration around it; their tags must agree.
    methods, fields = extract(source)
    first: dict[int, tuple[str, str | None]] = {}
    mismatches = []
    for decl in methods + fields:
        m = decl.member
        if isinstance(decl, MethodDecl):
            indices = range(m.start, m.end + 1)
        else:
            lo, _, end = decl.declarator
            indices = [*range(m.start, m.declarators[0][0]), *range(lo, end), m.end]
        assert [decl.file.tokens[k] for k in indices] == decl.tokens
        for k, tag in zip(indices, categorize(decl)):
            name, seen = first.setdefault(k, (decl.name, tag))
            if seen != tag:
                text, offset = decl.file.tokens[k], decl.file.offsets[k]
                mismatches.append((text, offset, name, seen, decl.name, tag))
    assert mismatches == []


def test_a_bracket_left_open_does_not_reach_other_declarations():
    # g( is never closed inside f; a later ')' belongs to another method.
    broken = "void f() { g( ; }"
    variants = [
        f"class A {{ {broken} }}",
        f"class A {{ {broken} void h() {{ k(); }} }}",
        f"class A {{ {broken} void h() {{ k()); }} }}",
        f"class A {{ {broken} int x = (3); void h() {{ ) }} }}",
    ]
    for src in variants:
        assert lines(src, "f", FINER_NO_H2) == [
            "void", "f", "( METHOD_PARAMS", ") METHOD_PARAMS", "{ METHOD_BODY",
            "g", "( OTHER", "; OTHER", "} METHOD_BODY",
        ]
    fixed = "class A { void f() { g(); } void h() { k(); } }"
    assert render_method(variants[1], "h", FINER) == render_method(fixed, "h", FINER)


def test_tagging_work_is_bounded_by_each_declaration(monkeypatch):
    # Tag slots kept per declaration, summed over a class of many one-line
    # methods: bounded by the file's tokens, not by methods x tokens.
    slots = []
    original = emit._Tagger.__init__

    def counting(self, *args):
        original(self, *args)
        slots.append(len(self.tags))

    monkeypatch.setattr(emit._Tagger, "__init__", counting)
    source = "class C {\n" + "".join(
        f"  int m{i}() {{ return {i}; }}\n" for i in range(1000)
    ) + "}\n"
    methods, _ = extract(source)
    for m in methods:
        render(m, FINER)
    assert len(slots) == 1000
    assert sum(slots) <= 2 * len(methods[0].file.tokens)


def test_tagger_signals_a_walk_past_the_declaration_as_parse_error():
    # Tagging, reading a tag or starting a statement past the declaration's
    # last token is the walker's own bound, so it raises ParseError, which
    # categorize turns into generic tags.
    decl = method_named(PERSON_JAVA, "getLength")
    m = decl.member
    tagger = emit._Tagger(decl, m.start, m.end)
    for walk in (
        lambda: tagger._tag(m.end + 1, "EMPTY"),
        lambda: tagger._tag_of(m.end + 1),
        lambda: tagger._statement(m.end + 1, m.end + 2, False),
    ):
        with pytest.raises(ParseError):
            walk()
    tagger._tag(m.end, "PLAIN_BLOCK")
    assert tagger._tag_of(m.end) == "PLAIN_BLOCK"


def test_categorize_lets_an_internal_index_error_propagate(monkeypatch):
    def broken(self, *args):
        raise IndexError("internal")

    decl = method_named(PERSON_JAVA, "getLength")
    monkeypatch.setattr(emit._Tagger, "_member", broken)
    with pytest.raises(IndexError, match="internal"):
        categorize(decl)
    # A walk that stops at its bound leaves every terminator a generic tag.
    monkeypatch.setattr(emit._Tagger, "_member", lambda self, *args: self._tag(10**6, "X"))
    generic = {";": "OTHER", "(": "OTHER", ")": "OTHER", "{": "PLAIN_BLOCK", "}": "PLAIN_BLOCK"}
    assert categorize(decl) == [generic.get(tok) for tok in decl.tokens]
