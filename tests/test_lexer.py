"""Lexer unit tests: token boundaries, kinds, comments, and error cases."""

from __future__ import annotations

import time
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from methodgit import tokenize
from methodgit.errors import LexError
from methodgit.lexer import _ERRORS, _TOKEN_RE, CommentSpan, LexBase, TokenKind, position

from conftest import ENGINEER_JAVA, NESTED_JAVA, PERSON_JAVA


def texts(source: str) -> list[str]:
    return tokenize(source).tokens


def kinds(source: str) -> list[TokenKind]:
    return list(map(TokenKind, tokenize(source).kinds))


def extents(result: LexBase):
    """(text, offset, end) of each token of a lexed source."""
    return ((t, o, o + len(t)) for t, o in zip(result.tokens, result.offsets))


def test_simple_method_token_texts():
    assert texts("int f() { return 1; }") == [
        "int", "f", "(", ")", "{", "return", "1", ";", "}",
    ]


def test_token_kinds():
    got = kinds("int f() { return x1; }")
    assert got == [
        TokenKind.KEYWORD,
        TokenKind.IDENTIFIER,
        TokenKind.SEPARATOR,
        TokenKind.SEPARATOR,
        TokenKind.SEPARATOR,
        TokenKind.KEYWORD,
        TokenKind.IDENTIFIER,
        TokenKind.SEPARATOR,
        TokenKind.SEPARATOR,
    ]


def test_contextual_keywords_are_identifiers():
    for word in ("var", "record", "yield", "sealed", "permits", "module"):
        assert kinds(word) == [TokenKind.IDENTIFIER]


def test_non_sealed_is_one_token():
    assert texts("non-sealed class A {}")[0] == "non-sealed"


def test_longest_munch_operators():
    assert texts("a >>>= b") == ["a", ">>>=", "b"]
    assert texts("a >>> b") == ["a", ">>>", "b"]
    assert texts("x :: y") == ["x", "::", "y"]
    assert texts("f(Object... xs)") == ["f", "(", "Object", "...", "xs", ")"]
    assert texts("i+++++j") == ["i", "++", "++", "+", "j"]


def test_string_and_char_literals():
    assert texts(r'String s = "a\"b\\";') == [
        "String", "s", "=", r'"a\"b\\"', ";",
    ]
    assert texts(r"char c = '\n';") == ["char", "c", "=", r"'\n'", ";"]
    assert texts("char q = '\\'';") == ["char", "q", "=", "'\\''", ";"]


def test_text_block_single_token():
    src = 'String s = """\n  two\n  lines""";'
    toks = texts(src)
    assert toks[3] == '"""\n  two\n  lines"""'
    assert toks[4] == ";"


def test_numeric_literals():
    src = "0x1F 1_000 3.14f 1e9 0b1010 077 2L .5d"
    assert texts(src) == [
        "0x1F", "1_000", "3.14f", "1e9", "0b1010", "077", "2L", ".5d",
    ]
    assert kinds(src) == [TokenKind.LITERAL] * 8


def test_comments_are_recorded_not_tokenized():
    src = "int a; // line\nint b; /* block */ int c;"
    result = tokenize(src)
    assert result.tokens == [
        "int", "a", ";", "int", "b", ";", "int", "c", ";",
    ]
    assert len(result.comments) == 2
    assert not any(c.javadoc for c in result.comments)


def test_javadoc_recorded_with_attach_index():
    src = "/** doc */\nint f() {}"
    result = tokenize(src)
    assert len(result.javadocs) == 1
    doc = result.javadocs[0]
    assert doc is result.comments[0] and doc.javadoc
    assert src[doc.start : doc.end] == "/** doc */"
    # It attaches to the token after it, the first.
    attach_index = bisect_left(result.offsets, doc.start)
    assert attach_index == 0 and result.tokens[attach_index] == "int"


def test_javadocs_are_the_documentation_comments():
    src = "/** doc */\nint f() {} /* c */ /***/ // d\n/**/ int g;"
    result = tokenize(src)
    docs = [c for c in result.comments if c.javadoc]
    assert [src[d.start : d.end] for d in docs] == ["/** doc */", "/***/"]
    assert list(map(id, result.javadocs)) == list(map(id, docs))


def test_line_column_offset():
    src = "int a;\n  b++;"
    ((_, offset, end),) = [t for t in extents(tokenize(src)) if t[0] == "b"]
    assert position(src, offset) == (2, 3)
    assert src[offset] == "b"
    assert end == offset + 1


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('String s = "oops;')


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("int a; /* never closed")


def test_stray_character_raises():
    with pytest.raises(LexError):
        tokenize("int a = #;")


@pytest.mark.parametrize(
    "source, message, line, column",
    [
        ("int a; /* never closed", "unterminated block comment", 1, 8),
        ('String s = """\n abc', "unterminated text block", 1, 12),
        ('String s = "oops;', "unterminated string literal", 1, 12),
        ("char c = 'a;", "unterminated character literal", 1, 10),
        ("int a = #;", "unexpected character '#'", 1, 9),
        ('/* a\n b */ String s = """\n x""";\n  int y = #;', "unexpected character '#'", 4, 11),
        ('"ab\n"', "unterminated string literal", 1, 1),
        ("'a\n'", "unterminated character literal", 1, 1),
        ('"a\\', "unterminated string literal", 1, 1),
        ("'\\", "unterminated character literal", 1, 1),
        ('"""\nab""', "unterminated text block", 1, 1),
        ("/*/ x", "unterminated block comment", 1, 1),
    ],
)
def test_lex_error_message_and_position(source, message, line, column):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert str(info.value) == f"{message} at line {line}, column {column}"
    assert (info.value.line, info.value.column) == (line, column)


def spans(source: str) -> list[tuple[str, TokenKind, int, int, int]]:
    result = tokenize(source)
    return [
        (text, TokenKind(kind), *position(source, offset), offset)
        for text, kind, offset in zip(result.tokens, result.kinds, result.offsets)
    ]


def test_text_block_takes_surplus_closing_quotes():
    assert spans('s = """\n a"""";') == [
        ("s", TokenKind.IDENTIFIER, 1, 1, 0),
        ("=", TokenKind.OPERATOR, 1, 3, 2),
        ('"""\n a""""', TokenKind.LITERAL, 1, 5, 4),
        (";", TokenKind.SEPARATOR, 2, 7, 14),
    ]
    assert texts('""""""') == ['""""""']
    assert texts('"""""x"""') == ['"""""x"""']


def test_backslash_escapes_a_newline_inside_a_string():
    assert spans('"a\\\nb" c') == [
        ('"a\\\nb"', TokenKind.LITERAL, 1, 1, 0),
        ("c", TokenKind.IDENTIFIER, 2, 4, 7),
    ]


@pytest.mark.parametrize(
    "source, expected",
    [
        (".5d", [".5d"]),
        ("0x", ["0", "x"]),
        ("1e", ["1", "e"]),
        ("0x1.p3", ["0x1.p3"]),
        ("1.e5f", ["1.e5f"]),
        ("a.b", ["a", ".", "b"]),
    ],
)
def test_number_boundaries(source, expected):
    assert texts(source) == expected


def test_non_sealed_needs_exact_neighbours():
    assert spans("non-sealed non-sealedx nonx-sealed") == [
        ("non-sealed", TokenKind.IDENTIFIER, 1, 1, 0),
        ("non", TokenKind.IDENTIFIER, 1, 12, 11),
        ("-", TokenKind.OPERATOR, 1, 15, 14),
        ("sealedx", TokenKind.IDENTIFIER, 1, 16, 15),
        ("nonx", TokenKind.IDENTIFIER, 1, 24, 23),
        ("-", TokenKind.OPERATOR, 1, 28, 27),
        ("sealed", TokenKind.IDENTIFIER, 1, 29, 28),
    ]


def test_line_and_column_after_crlf_and_form_feed():
    assert spans("a\r\nb\fc") == [
        ("a", TokenKind.IDENTIFIER, 1, 1, 0),
        ("b", TokenKind.IDENTIFIER, 2, 1, 3),
        ("c", TokenKind.IDENTIFIER, 2, 3, 5),
    ]


def test_comment_opener_does_not_close_itself():
    src = "/*/ x */ y"
    result = tokenize(src)
    assert [(text, position(src, offset)[1]) for text, offset, _ in extents(result)] == [("y", 10)]
    assert result.comments == [CommentSpan(0, 8, False)]


@pytest.mark.parametrize(
    "source",
    ['"""\n' + '""\\"x' * 20_000, '"' + '\\"\\\\' * 25_000],
    ids=["text_block", "string"],
)
def test_long_unterminated_literal_fails_fast(source):
    start = time.perf_counter()
    with pytest.raises(LexError, match="^unterminated .* at line 1, column 1$"):
        tokenize(source)
    assert time.perf_counter() - start < 1.0


def test_offsets_cover_text_exactly():
    src = 'class A { String s = "x"; int n = 3 % 2; }'
    for text, offset, end in extents(tokenize(src)):
        assert src[offset:end] == text


@given(
    st.lists(
        st.one_of(
            st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
            st.sampled_from([";", "{", "}", "(", ")", "+", "==", "->"]),
            st.from_regex(r"[0-9]{1,6}", fullmatch=True),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_space_separated_items_roundtrip(items):
    src = " ".join(items)
    result = tokenize(src)
    assert result.tokens == items
    for text, offset, end in extents(result):
        assert src[offset:end] == text


def naive_position(source: str, offset: int) -> tuple[int, int]:
    line, column = 1, 1
    for ch in source[:offset]:
        if ch == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return line, column


LEXER_PIECES = [
    "a", "x1", "int", "7", ".5", " ", "\t", "\n", "\r", "\r\n", "\f", "é",
    '"', "'", "\\", "/", "*", "/*", "*/", "/**", "//", '"""', ";", "+", "#",
    '"q"', "'c'", "/* c\n*/", "// c\n", '"""\n t"""',
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=12).map("".join))
def test_offsets_and_positions_agree_with_a_naive_scan(source):
    for offset in range(len(source) + 1):
        assert position(source, offset) == naive_position(source, offset)
    try:
        result = tokenize(source)
    except LexError as e:
        # The lexer stops at the first match of an error alternative.
        stop = next(m for m in _TOKEN_RE.finditer(source) if m.lastgroup in _ERRORS)
        assert (e.line, e.column) == naive_position(source, stop.start())
        return
    last_end = 0
    for text, offset, end in extents(result):
        assert source[offset:end] == text
        assert last_end <= offset < end
        last_end = end


# Pieces that open, close or extend a token across an edit's boundary.
ADVERSARIAL = [
    '"', "'", '"""', "/*", "*/", "/**", "//", "\n", "\r", "\\", "0x1.", "p", "e", "+",
    ".", "non-sealed", "$", " ", "a", "1", ";", "{", "}",
]

JAVA = [
    PERSON_JAVA,
    ENGINEER_JAVA,
    NESTED_JAVA,
    "/** doc */\nint f() {}",
    'String s = """\n  two\n  lines""";',
    "int a; // line\nint b; /* block */ int c;",
    "0x1F 1_000 3.14f 1e9 0b1010 077 2L .5d",
    "/** A. */\nclass A {\n  /** f. */\n  int f() { return 1; }\n  /** g. */\n  int g;\n}\n",
]

alphabet_text = st.lists(st.sampled_from(ADVERSARIAL), max_size=16).map("".join)
edits = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=12), alphabet_text),
    min_size=1,
    max_size=3,
)


def apply_edits(source: str, changes: list[tuple[int, int, str]]) -> str:
    """Replace, at each position (modulo the length), a run of characters
    by a text."""
    for pos, cut, text in changes:
        i = pos % (len(source) + 1)
        source = source[:i] + text + source[i + cut :]
    return source


texts_to_lex = st.one_of(
    alphabet_text,
    st.sampled_from(JAVA),
    st.builds(apply_edits, st.sampled_from(JAVA), edits),
)


@st.composite
def lex_pairs(draw) -> tuple[str, str]:
    old = draw(texts_to_lex)
    new = draw(
        st.one_of(
            st.builds(apply_edits, st.just(old), edits),
            texts_to_lex,  # unrelated to old
            st.just(old),
            st.just(""),
        )
    )
    return old, new


def lexed(source: str, base: LexBase | None = None):
    """The lexed record, or the LexError's args."""
    try:
        return tokenize(source, base)
    except LexError as e:
        return e.args


@settings(max_examples=300, deadline=None)
@given(lex_pairs())
# A text block that starts before the prefix's last newline and ends past it.
@example(('s = """\n  x\n  """;\nint a;\n', 's = """\n  y\n  """;\nint a;\n'))
def test_lexing_against_any_base_equals_a_full_lex(pair):
    old, new = pair
    base = lexed(old, LexBase())
    if isinstance(base, tuple):  # old does not lex: lex against the empty source
        base = LexBase()
    before = LexBase(base.source, list(base.tokens), base.kinds, base.offsets[:],
                     list(base.comments), list(base.javadocs), base.copied)
    expected = lexed(new)
    result = lexed(new, base)
    assert result == expected
    # The base is only read, whether new lexes or not, and the result shares
    # none of its mutable sequences.
    assert base == before and base.copied == before.copied
    if not isinstance(result, tuple):
        for name in ("tokens", "offsets", "comments", "javadocs"):
            assert getattr(result, name) is not getattr(base, name)
        # The javadocs are the documentation comments, the same objects.
        docs = [c for c in result.comments if c.javadoc]
        assert list(map(id, result.javadocs)) == list(map(id, docs))


@settings(max_examples=300, deadline=None)
@given(lex_pairs())
def test_copied_says_what_was_taken_from_the_base(pair):
    old, new = pair
    try:
        before = tokenize(old)
        after = tokenize(new, before)
    except LexError:
        return
    copied = after.copied
    # Without a base, what was taken is taken from the empty source.
    assert tokenize(new).copied == tokenize(new, LexBase()).copied
    assert new[: copied.prefix] == old[: copied.prefix]
    head, tail, shift, delta = copied.head, copied.tail, copied.shift, copied.delta
    assert after.tokens[:head] == before.tokens[:head]
    assert after.offsets[:head] == before.offsets[:head]
    assert after.tokens[tail + shift :] == before.tokens[tail:]
    assert list(after.offsets[tail + shift :]) == [o + delta for o in before.offsets[tail:]]
    # Whatever starts at or after sync was copied from the tail.
    assert all(o >= copied.sync for o in after.offsets[tail + shift :])
    assert all(o < copied.sync for o in after.offsets[: tail + shift])
    assert [(c.start - delta, c.end - delta) for c in after.comments if c.start >= copied.sync] == [
        (c.start, c.end) for c in before.comments if c.start + delta >= copied.sync
    ]
