"""Extraction unit tests: declaration discovery, naming inputs, and the
verbatim source-line reconstruction used by plain rendering."""

from __future__ import annotations

from bisect import bisect_left
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from methodgit import extract, tokenize
from methodgit.errors import ParseError
from methodgit.extract import MethodDecl

from conftest import PERSON_JAVA


def methods_of(source: str) -> dict[str, MethodDecl]:
    methods, _ = extract(source)
    out: dict[str, MethodDecl] = {}
    for m in methods:
        out.setdefault(m.name, m)
    return out


def test_person_fixture_inventory():
    methods, fields = extract(PERSON_JAVA)
    assert [m.name for m in methods] == ["getLength", "setLength"]
    assert [f.name for f in fields] == ["length"]
    getter, setter = methods
    assert getter.class_chain == ["Person"]
    assert getter.modifiers == ["public"]
    assert getter.return_type == "int"
    assert getter.param_types == []
    assert setter.param_types == ["int"]
    assert fields[0].field_type == "int"
    assert fields[0].modifiers == ["private"]


def test_delimiter_indices_point_at_delimiters():
    methods, _ = extract(PERSON_JAVA)
    for m in methods:
        toks, member = m.file.tokens, m.member
        popen, pclose = member.params
        assert toks[popen] == "("
        assert toks[pclose] == ")"
        assert toks[member.body] == "{"
        assert toks[member.end] == "}"
        assert m.tokens == toks[member.start : member.end + 1]


def test_nested_and_anonymous_chains():
    src = """
    class Outer {
      class Inner {
        void deep() {}
      }
      void outer() {
        Runnable r = new Runnable() {
          public void run() {}
        };
      }
    }
    """
    methods, _ = extract(src)
    chains = {m.name: m.class_chain for m in methods}
    assert chains["deep"] == ["Outer", "Inner"]
    assert chains["outer"] == ["Outer"]
    assert chains["run"] == ["Outer", "$1"]


def test_constructor_and_compact_constructor():
    src = """
    record Pair(int a, int b) {
      Pair {
        a = Math.abs(a);
      }
    }
    class Box {
      Box(int size) {}
    }
    """
    methods, _ = extract(src)
    by_name = {(tuple(m.class_chain), m.name): m for m in methods}
    compact = by_name[(("Pair",), "Pair")]
    assert compact.return_type == ""
    assert compact.param_types == []
    assert compact.member.params is None
    ctor = by_name[(("Box",), "Box")]
    assert ctor.param_types == ["int"]
    assert ctor.return_type == ""


def test_enum_constants_are_not_fields():
    src = """
    enum Mode {
      FAST, SLOW;
      private int uses;
      int bump() { return ++uses; }
    }
    """
    methods, fields = extract(src)
    assert [f.name for f in fields] == ["uses"]
    assert [m.name for m in methods] == ["bump"]


def test_enum_constant_body_gets_numbered_chain():
    src = """
    enum Op {
      PLUS { int apply(int a) { return a + 1; } },
      MINUS;
      abstract int apply(int a);
    }
    """
    methods, _ = extract(src)
    chains = sorted((tuple(m.class_chain), m.name) for m in methods)
    assert (("Op", "$1"), "apply") in chains
    assert (("Op",), "apply") in chains


def test_generic_method_and_types():
    src = """
    class G {
      static <T extends Comparable<T>> java.util.List<T> sort(T[] items) {
        return null;
      }
    }
    """
    (m,) = extract(src)[0]
    assert m.name == "sort"
    assert m.modifiers == ["static"]
    assert m.return_type == "java.util.List<T>"
    assert m.param_types == ["T[]"]
    assert m.file.tokens[m.member.head] == "<"


def test_c_style_array_dims_move_to_return_type():
    src = "class A { int m()[] { return null; } }"
    (m,) = extract(src)[0]
    assert m.return_type == "int[]"


def test_varargs_and_receiver_parameter():
    src = """
    class V {
      void f(V this, final int a, String... rest) {}
    }
    """
    (m,) = extract(src)[0]
    assert m.param_types == ["int", "String..."]


def test_abstract_and_interface_methods_have_no_body():
    src = """
    interface I {
      int size();
      default int twice() { return 2 * size(); }
    }
    abstract class C {
      protected abstract void go();
    }
    """
    methods, _ = extract(src)
    by_name = {m.name: m for m in methods}
    assert by_name["size"].member.body is None
    assert by_name["size"].tokens[-1] == ";"
    assert by_name["twice"].member.body is not None
    assert by_name["go"].member.body is None
    assert by_name["go"].modifiers == ["protected", "abstract"]


def test_annotation_member_with_default():
    src = """
    @interface Marker {
      int priority() default 3 + 4;
      String name() default "x";
    }
    """
    methods, _ = extract(src)
    assert sorted(m.name for m in methods) == ["name", "priority"]


def test_field_declarator_list_splits_into_fields():
    src = "class F { private int a = 1, b, c[] = {2}; }"
    _, fields = extract(src)
    assert [f.name for f in fields] == ["a", "b", "c"]
    assert all(f.modifiers == ["private"] for f in fields)


def test_javadoc_attaches_to_following_member():
    src = """
    class D {
      /** for f */
      int f() { return 0; }
      int g() { return 1; }
      /** for x */
      private int x;
    }
    """
    methods, fields = extract(src)
    by_name = {m.name: m for m in methods}
    assert by_name["f"].javadoc_lines == ["      /** for f */"]
    assert by_name["g"].javadoc_lines == []
    assert fields[0].javadoc_lines == ["      /** for x */"]


def test_javadoc_survives_annotations_between():
    src = """
    class D {
      /** doc */
      @Deprecated
      void f() {}
    }
    """
    (m,) = extract(src)[0]
    assert m.javadoc_lines == ["      /** doc */"]


def test_plain_lines_are_verbatim_source():
    methods, _ = extract(PERSON_JAVA)
    getter = methods[0]
    assert getter.plain_lines == [
        "  public int getLength() {",
        "    return length;",
        "  }",
    ]


def test_plain_lines_splice_out_line_comments():
    src = """\
class S {
  void f() { // trailing note
    go(); /* inline */ stop();
    // whole line comment
    done();
  }
}
"""
    (m,) = extract(src)[0]
    # Comment text is excised verbatim: whitespace around the span stays,
    # and a line left empty by the splice is dropped.
    assert m.plain_lines == [
        "  void f() { ",
        "    go();  stop();",
        "    done();",
        "  }",
    ]


def test_javadoc_lines_kept_separately_from_plain_lines():
    src = """\
class J {
  /**
   * Two lines of doc.
   */
  void f() {}
}
"""
    (m,) = extract(src)[0]
    assert m.javadoc_lines == [
        "  /**",
        "   * Two lines of doc.",
        "   */",
    ]
    assert m.plain_lines == ["  void f() {}"]


def test_initializer_blocks_are_not_methods():
    src = """
    class B {
      static { System.out.println("s"); }
      { System.out.println("i"); }
      void real() {}
    }
    """
    methods, _ = extract(src)
    assert [m.name for m in methods] == ["real"]


def test_local_and_anonymous_classes_inside_methods():
    src = """
    class L {
      void host() {
        class Helper { void help() {} }
        Object o = new Object() { public String toString() { return ""; } };
        record P(int a) { int p() { return a; } }
        record G<T>(T a) { T g() { return a; } }
      }
    }
    """
    methods, _ = extract(src)
    names = sorted((tuple(m.class_chain), m.name) for m in methods)
    assert (("L",), "host") in names
    assert (("L", "Helper"), "help") in names
    assert (("L", "$1"), "toString") in names
    assert (("L", "P"), "p") in names
    assert (("L", "G"), "g") in names


def test_record_components_are_not_fields():
    src = "record R(int x, String y) { int sum() { return x; } }"
    methods, fields = extract(src)
    assert fields == []
    assert [m.name for m in methods] == ["sum"]


def test_unbalanced_source_raises_parse_error():
    # The last two end inside a member after a complete top-level type.
    for src in ("class A { void f() { ", "class X {} int a,", "class X {} void f("):
        with pytest.raises(ParseError):
            extract(src)


def test_interface_constants_are_fields():
    src = "interface K { int LIMIT = 10; }"
    _, fields = extract(src)
    assert [f.name for f in fields] == ["LIMIT"]
    assert fields[0].field_type == "int"


@pytest.mark.parametrize(
    "source, message",
    [
        ("int x;", "expected a type declaration near line 1"),
        ("/* a\n * b\n */\nclass A {\n  int 5;\n}", "expected member name near line 5"),
        ('class A {\n  String s = """\n    x\n    """;\n  int 5;\n}',
         "expected member name near line 5"),
        ("class A {\r\n  void f() {}\r\n  int = 3;\r\n}\r\n", "expected member name near line 3"),
        ("class A {\n  @ 5 void f() {}\n}", "expected annotation name near line 2"),
        ("class A {\n  void f(int) {}\n}", "expected parameter name"),
    ],
)
def test_parse_error_message_names_the_line(source, message):
    with pytest.raises(ParseError) as info:
        extract(source)
    assert str(info.value) == message


def test_extraction_reads_each_comment_a_bounded_number_of_times(monkeypatch):
    # Each declaration looks up the comments and javadocs on its own lines,
    # so the comment entries read grow with the file, not with its square.
    reads = [0]

    class Counting(list):
        def __getitem__(self, i):
            item = super().__getitem__(i)
            reads[0] += len(item) if isinstance(i, slice) else 1
            return item

        def __iter__(self):
            for item in super().__iter__():
                reads[0] += 1
                yield item

    def counting_tokenize(source, base=None):
        lex = tokenize(source, base)
        lex.comments, lex.javadocs = Counting(lex.comments), Counting(lex.javadocs)
        return lex

    monkeypatch.setattr(import_module("methodgit.extract"), "tokenize", counting_tokenize)

    def comment_reads(n: int) -> int:
        body = "".join(
            f"  /** Doc {i}. */\n  int m{i}() {{ return {i}; }} // note {i}\n" for i in range(n)
        )
        reads[0] = 0
        methods, _ = extract(f"class C {{\n{body}}}\n")
        for m in methods:
            assert m.plain_lines == [f"  int m{m.name[1:]}() {{ return {m.name[1:]}; }} "]
            assert m.javadoc_lines == [f"  /** Doc {m.name[1:]}. */"]
        return reads[0]

    # Bisecting per declaration gives a ratio of about 4.6 (4 times a log
    # factor); reading every comment per declaration gives 16.
    assert comment_reads(4000) < 6 * comment_reads(1000)


# The definitions extraction used before a declaration became token runs of
# its file, kept as the reference that the runs must reproduce.


def _reference_tokens(decl) -> list[str]:
    toks, m = decl.file.tokens, decl.member
    if isinstance(decl, MethodDecl):
        return toks[m.start : m.end + 1]
    lo, _, hi = decl.declarator
    return toks[m.start : m.declarators[0][0]] + toks[lo:hi] + [toks[m.end]]


def _reference_source_lines(lex, lo: int, hi: int) -> list[str]:
    src = lex.source
    start = src.rfind("\n", 0, lo) + 1
    end = src.find("\n", hi)
    if end == -1:
        end = len(src)
    spans = [
        (c.start, c.end) for c in lex.comments if not c.javadoc and c.start < end and c.end > start
    ]
    out: list[str] = []
    pos = start
    for line in src[start:end].split("\n"):
        ls, le = pos, pos + len(line)
        pos = le + 1
        kept: list[str] = []
        removed = False
        cursor = ls
        for cs, ce in spans:
            if ce <= ls or cs >= le:
                continue
            s, e = max(cs, ls), min(ce, le)
            if s > cursor:
                kept.append(src[cursor:s])
            removed = True
            cursor = max(cursor, e)
        kept.append(src[cursor:le])
        text = "".join(kept)
        if text.endswith("\r"):
            text = text[:-1]
        if removed and not text.strip():
            continue
        out.append(text)
    return out


def _reference_javadoc_lines(decl) -> list[str]:
    m = decl.member
    if isinstance(decl, MethodDecl):
        name_idx = (m.body if m.params is None else m.params[0]) - 1
    else:
        name_idx = m.declarators[0][0]
    found = None
    for jd in decl.file.javadocs:
        # the index of the first token after the javadoc
        attach_index = bisect_left(decl.file.offsets, jd.start)
        if m.start <= attach_index <= name_idx:
            found = jd
        elif attach_index > name_idx:
            break
    return [] if found is None else _reference_source_lines(decl.file, found.start, found.end)


_MEMBERS = [
    "public int m ( int a ) { return a ; }",
    "abstract void n ( ) ;",
    "@ Deprecated static void s ( String ... r ) { go ( ) ; }",
    "< T > T g ( T t ) { return t ; }",
    "C ( ) { super ( ) ; }",
    "private int a = 1 , b , c [ ] = { 2 } ;",
    'static final String s = "x" ;',
    "int x , y ;",
    "class In { int f ( ) { return 1 ; } long p , q ; }",
    "{ go ( ) ; }",
]

# What may separate two tokens: white space, comments, javadocs.
_GAPS = [
    " ", " ", "\n  ", " \r\n", " /* c */ ", "/* a\n b */", " // c\n  ",
    "\n  /** d */\n  ", "/***/", "/**/", "\n// w\n", " /** a */ /* b */ /** c */\n  ",
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_MEMBERS), max_size=6), st.data())
def test_runs_give_the_reference_tokens_and_lines(members, data):
    toks = ["class", "C", "{", *" ".join(members).split(), "}"]
    gaps = data.draw(st.lists(st.sampled_from(_GAPS), min_size=len(toks), max_size=len(toks)))
    source = "".join(gap + tok for gap, tok in zip(gaps, toks)) + "\n"
    methods, fields = extract(source)
    for decl in methods + fields:
        lex, m = decl.file, decl.member
        assert decl.tokens == _reference_tokens(decl)
        end = lex.offsets[m.end] + len(lex.tokens[m.end])
        assert decl.plain_lines == _reference_source_lines(lex, lex.offsets[m.start], end)
        assert decl.javadoc_lines == _reference_javadoc_lines(decl)
