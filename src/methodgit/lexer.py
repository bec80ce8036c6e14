"""Java tokenizer.

Produces a flat token stream (identifiers, keywords, literals, operators,
separators) with comments removed.  Tokens carry source offsets only:
``position`` computes a line and column when an error is raised.  Javadoc
comments are captured separately together with the index of the token they
precede, so declaration extraction can reattach them.  Unicode escape
pre-translation is not applied.

One compiled pattern of ordered, named alternatives does the lexing: each
match is one token, comment or whitespace run.  Where a form can open but
not close (comments, text blocks, strings, characters), an "unterminated"
alternative follows it, and a final catch-all takes any other character, so
every error is a match and ``tokenize`` raises in one place.  String and
text-block bodies are unrolled loops with a single way to match any text,
so unterminated input fails in linear time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import LexError


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    LITERAL = "literal"
    OPERATOR = "operator"
    SEPARATOR = "separator"


@dataclass(slots=True)
class Token:
    text: str
    kind: TokenKind
    offset: int
    end: int


@dataclass(frozen=True)
class Javadoc:
    """A documentation comment, kept verbatim including its delimiters.

    attach_index is the index of the first token lexed after the comment;
    a declaration owns the comment when its first token sits at that index.
    """

    text: str
    attach_index: int
    start: int
    end: int


@dataclass(frozen=True)
class CommentSpan:
    start: int
    end: int
    javadoc: bool


@dataclass
class LexResult:
    tokens: list[Token]
    javadocs: list[Javadoc]
    comments: list[CommentSpan]


# Reserved words.  Contextual keywords (var, record, yield, sealed, ...)
# lex as identifiers, matching javac.  A lone underscore is reserved.
KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while _
    """.split()
)

LITERAL_WORDS = frozenset({"true", "false", "null"})

SEPARATORS = frozenset({"(", ")", "{", "}", "[", "]", ";", ",", ".", "...", "@", "::"})

OPERATORS = frozenset(
    {
        "=", ">", "<", "!", "~", "?", ":", "->",
        "==", ">=", "<=", "!=", "&&", "||", "++", "--",
        "+", "-", "*", "/", "&", "|", "^", "%",
        "<<", ">>", ">>>",
        "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=",
        "<<=", ">>=", ">>>=",
    }
)


# Order matters: the first alternative that matches wins.  Numbers are
# tried as hex float, hex, binary, decimal float, exponent, suffixed, plain,
# and punctuation longest first, so each match is a longest munch.  A text
# block ends at its first run of three or more quotes and takes the whole
# run: surplus quotes belong to the content.
_TOKEN_RE = re.compile(
    r"""
      (?P<space>[ \t\f\r\n]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<comment>/\*[\s\S]*?\*/)
    | (?P<open_comment>/\*)
    | (?P<text_block>\"{3}[^"\\]*(?:(?:\\[\s\S]|""?(?!"))[^"\\]*)*\"{3,})
    | (?P<open_text_block>\"{3})
    | (?P<string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")
    | (?P<open_string>")
    | (?P<char>'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*')
    | (?P<open_char>')
    | (?P<number>
          0[xX][0-9a-fA-F_]*\.[0-9a-fA-F_]*[pP][+-]?[0-9_]+[fFdD]?
        | 0[xX][0-9a-fA-F_]+[pP][+-]?[0-9_]+[fFdD]?
        | 0[xX][0-9a-fA-F_]+[lL]?
        | 0[bB][01_]+[lL]?
        | [0-9][0-9_]*\.[0-9_]*(?:[eE][+-]?[0-9_]+)?[fFdD]?
        | \.[0-9][0-9_]*(?:[eE][+-]?[0-9_]+)?[fFdD]?
        | [0-9][0-9_]*[eE][+-]?[0-9_]+[fFdD]?
        | [0-9][0-9_]*[fFdD]
        | [0-9][0-9_]*[lL]?
      )
    | (?P<word>non-sealed(?![\w$])|(?:[^\W\d]|\$)[\w$]*)
    | (?P<punct>"""
    + "|".join(map(re.escape, sorted(SEPARATORS | OPERATORS, key=len, reverse=True)))
    + r""")
    | (?P<unexpected>[\s\S])
    """,
    re.VERBOSE,
)

# LexError messages of the error alternatives; "{!r}" names the character.
_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_text_block": "unterminated text block",
    "open_string": "unterminated string literal",
    "open_char": "unterminated character literal",
    "unexpected": "unexpected character {!r}",
}

# Kinds of words and punctuation; any other word is an identifier.
_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    **dict.fromkeys(LITERAL_WORDS, TokenKind.LITERAL),
    **dict.fromkeys(SEPARATORS, TokenKind.SEPARATOR),
    **dict.fromkeys(OPERATORS, TokenKind.OPERATOR),
}


def position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of offset; only "\\n" ends a line."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def tokenize(source: str) -> LexResult:
    """Tokenize Java source.

    Comments never become tokens.  Javadoc comments (block comments opening
    with ``/**``, at least five characters long) are collected verbatim in
    the result.  Raises LexError for unterminated comments or literals and
    for characters that fit no token class.
    """
    tokens: list[Token] = []
    javadocs: list[Javadoc] = []
    comments: list[CommentSpan] = []
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "space":
            continue
        text = m.group()
        start, end = m.span()
        if group == "word" or group == "punct":
            tokens.append(Token(text, _KINDS.get(text, TokenKind.IDENTIFIER), start, end))
        elif group in _ERRORS:
            raise LexError(_ERRORS[group].format(text), *position(source, start))
        elif group == "line_comment":
            comments.append(CommentSpan(start, end, False))
        elif group == "comment":
            is_doc = text.startswith("/**") and len(text) >= 5
            comments.append(CommentSpan(start, end, is_doc))
            if is_doc:
                javadocs.append(Javadoc(text, len(tokens), start, end))
        else:
            tokens.append(Token(text, TokenKind.LITERAL, start, end))
    return LexResult(tokens, javadocs, comments)
