"""Lexer unit tests: token boundaries, kinds, comments, and error cases."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from methodgit import tokenize
from methodgit.errors import LexError
from methodgit.lexer import _ERRORS, _TOKEN_RE, CommentSpan, TokenKind, position


def texts(source: str) -> list[str]:
    return [t.text for t in tokenize(source).tokens]


def kinds(source: str) -> list[TokenKind]:
    return [t.kind for t in tokenize(source).tokens]


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
        (tok,) = tokenize(word).tokens
        assert tok.kind is TokenKind.IDENTIFIER


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
    result = tokenize(src)
    assert [t.text for t in result.tokens] == [
        "0x1F", "1_000", "3.14f", "1e9", "0b1010", "077", "2L", ".5d",
    ]
    assert all(t.kind is TokenKind.LITERAL for t in result.tokens)


def test_comments_are_recorded_not_tokenized():
    src = "int a; // line\nint b; /* block */ int c;"
    result = tokenize(src)
    assert [t.text for t in result.tokens] == [
        "int", "a", ";", "int", "b", ";", "int", "c", ";",
    ]
    assert len(result.comments) == 2
    assert not any(c.javadoc for c in result.comments)


def test_javadoc_recorded_with_attach_index():
    src = "/** doc */\nint f() {}"
    result = tokenize(src)
    assert len(result.javadocs) == 1
    doc = result.javadocs[0]
    assert doc.text == "/** doc */"
    assert doc.attach_index == 0
    assert result.tokens[doc.attach_index].text == "int"
    assert [c.javadoc for c in result.comments] == [True]


def test_line_column_offset():
    src = "int a;\n  b++;"
    toks = tokenize(src).tokens
    b = next(t for t in toks if t.text == "b")
    assert position(src, b.offset) == (2, 3)
    assert src[b.offset] == "b"
    assert b.end == b.offset + 1


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
    return [
        (t.text, t.kind, *position(source, t.offset), t.offset) for t in tokenize(source).tokens
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
    assert [(t.text, position(src, t.offset)[1]) for t in result.tokens] == [("y", 10)]
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
    for tok in tokenize(src).tokens:
        assert src[tok.offset : tok.end] == tok.text


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
    toks = tokenize(src).tokens
    assert [t.text for t in toks] == items
    for tok in toks:
        assert src[tok.offset : tok.end] == tok.text


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
        toks = tokenize(source).tokens
    except LexError as e:
        # The lexer stops at the first match of an error alternative.
        stop = next(m for m in _TOKEN_RE.finditer(source) if m.lastgroup in _ERRORS)
        assert (e.line, e.column) == naive_position(source, stop.start())
        return
    last_end = 0
    for tok in toks:
        assert source[tok.offset : tok.end] == tok.text
        assert last_end <= tok.offset < tok.end
        last_end = tok.end
