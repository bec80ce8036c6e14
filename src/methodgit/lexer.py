"""Java tokenizer.

Lexes a source into one record, a LexBase, that holds the token texts,
kind codes, source offsets and ends as parallel sequences, and the
comments, which never become tokens.  A token has no object of its own,
and no line or column: ``position`` computes them from an offset when an
error is raised.  Javadoc comments are also captured separately together
with the index of the token they precede, so declaration extraction can
reattach them.  Unicode escape pre-translation is not applied.

One compiled pattern of ordered, named alternatives does the lexing: each
match is one token, comment or whitespace run.  Where a form can open but
not close (comments, text blocks, strings, characters), an "unterminated"
alternative follows it, and a final catch-all takes any other character, so
every error is a match and ``tokenize`` raises in one place.  String and
text-block bodies are unrolled loops with a single way to match any text,
so unterminated input fails in linear time.

Lexing against a base, an earlier lexed version of the file, relexes only
what the edit can have changed.  Two locality rules make that exact:

- Prefix rule.  In a source that lexes without error, the match at p
  examines nothing past the first newline at or after the match's end:
  numbers, words, punctuation and line comments never cross a newline, and
  a comment, string or text block examines at most one character past its
  own end.  So every token or comment that ends at or before the last
  newline before the first changed character is lexed as before, and
  lexing resumes at the end of the last of them.
- Suffix rule.  The pattern has no anchors and no lookbehind, so a match
  at q depends only on source[q:].  Once the new source has a token or
  comment at q inside the suffix it shares with the old one, and q - delta
  (delta being the change in length) also starts an old token or comment,
  the rest of the old stream follows: offsets shift by delta and javadoc
  attach indices by the difference in token count.

Both copies are slices of the base's sequences, so no per-token object is
built for them.  The result's ``copied`` says what was copied, so a later
stage can reuse what it built from the base's copied tokens.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import IntEnum
from operator import attrgetter

from .errors import LexError


class TokenKind(IntEnum):
    """A token's kind; its value is the code LexBase.kinds stores."""

    IDENTIFIER = 0
    KEYWORD = 1
    LITERAL = 2
    OPERATOR = 3
    SEPARATOR = 4


# Module names for the members, which compare faster than attribute reads.
IDENTIFIER, KEYWORD, LITERAL, OPERATOR, SEPARATOR = TokenKind


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


@dataclass(frozen=True, slots=True)
class Copied:
    """What a lex against a base took from it.  Tokens [0, head) are the
    base's tokens at the same indices, and so is every comment before them.
    From source offset sync on, every token and comment is the base's, at
    its offset plus delta: base token t, for t >= tail, is token t + shift.
    When nothing after the change was copied, sync is len(source) + 1 and
    tail + shift is len(tokens).  The first prefix characters of the source
    are the base's."""

    head: int
    prefix: int
    tail: int
    sync: int
    shift: int
    delta: int


@dataclass(slots=True)
class LexBase:
    """A lexed source: token i is tokens[i], of kind TokenKind(kinds[i]),
    at source[offsets[i]:ends[i]].  comments holds every comment in source
    order, and javadocs the documentation comments among them.  copied is
    what the lex that made it took from its base, None without a base; it
    says how the record was made, not what it holds, so equality ignores
    it.  A new LexBase records the empty source."""

    source: str = ""
    tokens: list[str] = field(default_factory=list)
    kinds: bytes = b""
    offsets: array = field(default_factory=lambda: array("q"))
    ends: array = field(default_factory=lambda: array("q"))
    comments: list[CommentSpan] = field(default_factory=list)
    javadocs: list[Javadoc] = field(default_factory=list)
    copied: Copied | None = field(default=None, compare=False)


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
    **dict.fromkeys(KEYWORDS, KEYWORD),
    **dict.fromkeys(LITERAL_WORDS, LITERAL),
    **dict.fromkeys(SEPARATORS, SEPARATOR),
    **dict.fromkeys(OPERATORS, OPERATOR),
}


def position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of offset; only "\\n" ends a line."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _common_prefix(a: str, b: str, limit: int) -> int:
    """Length of the longest common prefix of a and b, at most limit."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


_start = attrgetter("start")
_end = attrgetter("end")


def tokenize(source: str, base: LexBase | None = None) -> LexBase:
    """Tokenize Java source.

    Comments never become tokens.  Javadoc comments (block comments opening
    with ``/**``, at least five characters long) are collected verbatim in
    the result.  Raises LexError for unterminated comments or literals and
    for characters that fit no token class.

    With a base, the parts of source that the locality rules (see the
    module docstring) show to lex as in base.source are copied from it
    instead of lexed again; the result is the same for any base.  When
    lexing succeeds, base is updated in place to equal the result, so one
    base passed with each new version of a file lexes it against the last;
    the result's copied says what was taken from base.
    """
    old = base if base is not None else LexBase()
    old_src = old.source
    n_old, n_new = len(old_src), len(source)
    prefix = _common_prefix(old_src, source, min(n_old, n_new))
    suffix = _common_prefix(old_src[::-1], source[::-1], min(n_old, n_new) - prefix)
    delta = n_new - n_old

    # Prefix rule: reproduce what ends at or before the last newline before
    # the first change, and resume lexing after it.
    cut = old_src.rfind("\n", 0, prefix)
    i = bisect_right(old.ends, cut)
    ci = bisect_right(old.comments, cut, key=_end)
    tokens, kinds = old.tokens[:i], bytearray(old.kinds[:i])
    offsets, ends = old.offsets[:i], old.ends[:i]
    comments = old.comments[:ci]
    javadocs = old.javadocs[: bisect_right(old.javadocs, cut, key=_end)]
    resume = max(ends[-1] if i else 0, comments[-1].end if ci else 0)

    # Suffix rule: from the first token or comment in the common suffix that
    # also starts an old one, the old stream is copied.
    shared = n_new - suffix
    tail = None
    for m in _TOKEN_RE.finditer(source, resume):
        group = m.lastgroup
        if group == "space":
            continue
        start, end = m.span()
        if start >= shared:
            q = start - delta
            k = bisect_left(old.offsets, q)
            c = bisect_left(old.comments, q, key=_start)
            if (k < len(old.offsets) and old.offsets[k] == q) or (
                c < len(old.comments) and old.comments[c].start == q
            ):
                tail = start, k, c, bisect_left(old.javadocs, q, key=_start)
                break
        text = m.group()
        if group == "word" or group == "punct":
            kind = _KINDS.get(text, IDENTIFIER)
        elif group in _ERRORS:
            raise LexError(_ERRORS[group].format(text), *position(source, start))
        elif group == "line_comment":
            comments.append(CommentSpan(start, end, False))
            continue
        elif group == "comment":
            is_doc = text.startswith("/**") and len(text) >= 5
            comments.append(CommentSpan(start, end, is_doc))
            if is_doc:
                javadocs.append(Javadoc(text, len(tokens), start, end))
            continue
        else:
            kind = LITERAL
        tokens.append(text)
        kinds.append(kind)
        offsets.append(start)
        ends.append(end)

    sync, k = n_new + 1, len(old.tokens)
    if tail is not None:
        sync, k, c, j = tail
    shift = len(tokens) - k
    if tail is not None:
        tokens += old.tokens[k:]
        kinds += old.kinds[k:]
        offsets.extend(map(delta.__add__, old.offsets[k:]))
        ends.extend(map(delta.__add__, old.ends[k:]))
        comments.extend(
            CommentSpan(s.start + delta, s.end + delta, s.javadoc) for s in old.comments[c:]
        )
        javadocs.extend(
            Javadoc(d.text, d.attach_index + shift, d.start + delta, d.end + delta)
            for d in old.javadocs[j:]
        )

    copied = None if base is None else Copied(i, prefix, k, sync, shift, delta)
    result = LexBase(source, tokens, bytes(kinds), offsets, ends, comments, javadocs, copied)
    if base is not None:
        base.source, base.tokens, base.kinds = source, tokens, result.kinds
        base.offsets, base.ends, base.comments, base.javadocs = offsets, ends, comments, javadocs
        base.copied = copied
    return result
