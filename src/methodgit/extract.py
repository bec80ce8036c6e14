"""Structural extraction of Java methods and fields from a lexed file.

The walker is a lightweight structural parser: it matches brace, paren, and
angle structure and recognizes declaration headers, which is all the
downstream stages need.  It does not build expression trees and it never
resolves names.  Anything it cannot make sense of raises ParseError and the
caller falls back to passing the file through untouched.  The structure it
walks is kept as records (TypeDecl, EnumConstant, Member), from which the
renderer tags terminators.  Every position a record or declaration carries
is a token index into the file's LexBase, which each declaration also
holds: the walker reads token texts from its tokens and kind codes from its
kinds, and turns an index into a source offset only for source lines and
error messages.  What a declaration owns is defined once, as runs of token
indices (see Declaration); its token texts and plain source lines are read
from them when asked for, and nothing else is copied.

A walk reuses the last walk of an earlier version of the file, or of the
empty source, which holds the LexBase it is lexed against (see Walk).  Each
member of a type that lies outside any body gets a MemberRecord, in which
Walk.settle keeps what the caller made of its declarations.  When the next
version copies the member's tokens and source lines unchanged and the member
sits in the same context, the walk steps over it and hands back what was
kept (see _Extractor._reuse).  A type body whose braces the edit leaves
paired as they were closes where it closed before, shifted, without a scan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat

from .errors import ParseError
from .lexer import IDENTIFIER, KEYWORD, CommentSpan, LexBase, _end, _start, position, tokenize

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double", "void"}
)

MODIFIER_KEYWORDS = frozenset(
    {
        "public", "protected", "private", "static", "final", "abstract",
        "native", "synchronized", "transient", "volatile", "strictfp",
        "default",
    }
)

# Contextual modifiers lex as identifiers; they are consumed as modifiers
# only when a type declaration follows.
CONTEXTUAL_MODIFIERS = frozenset({"sealed", "non-sealed"})

TYPE_DECL_KEYWORDS = frozenset({"class", "interface", "enum"})


@dataclass
class TypeDecl:
    """A type declaration, or the body of an anonymous class or enum
    constant, as the walk saw it.  Indices point into the file's tokens.

    kind is 'class', 'interface', 'enum', 'record', '@interface' or
    'anonymous'.  start is the declaring keyword ('@' of '@interface'), or
    the '{' of an anonymous body; header is the index after the name, type
    parameters and record components.  body_open is None for a declaration
    that ends in ';'; end is its closing '}' or that ';'.  constants_end is
    the ';' that closes an enum's constant list.
    """

    kind: str
    name: str | None
    start: int
    header: int
    body_open: int | None
    end: int
    constants: list[EnumConstant] = field(default_factory=list)
    constants_end: int | None = None
    members: list[Member] = field(default_factory=list)


@dataclass
class EnumConstant:
    """An enum constant: its name index, argument parens, anonymous body."""

    name: int
    args: tuple[int, int] | None
    body: TypeDecl | None


@dataclass
class Member:
    """A class-body member as the walk saw it.  Indices point into the
    file's tokens.

    kind is 'type', 'initializer', 'method' or 'field'.  head is the index
    after the member's annotations and modifiers, end its last token.  A
    method's params are its parameter parens, None only for a compact
    constructor.  A method body or initializer block runs from body to end;
    a method without one ends in ';'.  default is the [lo, hi) range of an
    annotation element's default value.  declarators holds, for each of a
    field's variables, the index of its name, of its initializer's first
    token (the third value when it has none) and of the ',' or ';' after it.
    """

    kind: str
    start: int
    head: int
    modifiers: list[str]
    end: int
    type: TypeDecl | None = None
    params: tuple[int, int] | None = None
    body: int | None = None
    default: tuple[int, int] | None = None
    declarators: list[tuple[int, int, int]] = field(default_factory=list)


@dataclass
class Declaration:
    """A method or a field variable: the runs of tokens it owns in its file.

    runs holds [lo, hi) ranges of indices into file.tokens, in order.  The
    declaration's tokens are those of its runs, except that the last always
    reads file.tokens[member.end], so a field variable's ',' reads as ';'.
    member is the walk's record of the declaration, and file the lexed
    file.  types maps the index of the keyword and of the body's '{' of each
    type declared inside a method body or an initializer of the file to its
    record.
    """

    class_chain: list[str]
    modifiers: list[str]
    name: str
    runs: tuple[tuple[int, int], ...]
    javadoc_lines: list[str]
    member: Member
    file: LexBase
    types: dict[int, TypeDecl]

    @property
    def tokens(self) -> list[str]:
        """The texts of the declaration's tokens."""
        toks = self.file.tokens
        out = [t for lo, hi in self.runs for t in toks[lo:hi]]
        out[-1] = toks[self.member.end]
        return out

    @property
    def plain_lines(self) -> list[str]:
        """The whole source lines of the member, as source_lines gives them."""
        lex = self.file
        return source_lines(lex, lex.offsets[self.runs[0][0]], lex.end(self.member.end))


@dataclass
class MethodDecl(Declaration):
    """A method, constructor, or compact record constructor; its one run
    is the whole declaration, annotations included."""

    return_type: str
    param_types: list[str]


@dataclass
class FieldDecl(Declaration):
    """One declared field variable.  A multi-variable declaration yields
    one per variable, each with two runs: the annotations, modifiers and
    type the variables share, then its own declarator through its ',' or
    ';'.  declarator is that declarator's entry in member.declarators."""

    field_type: str
    declarator: tuple[int, int, int]


@dataclass(slots=True, eq=False)
class MemberRecord:
    """A member of a type outside any body, as one walk saw it: a method,
    field or initializer, not a nested type, whose parentheses and braces
    pair up inside it, so that its walk reads none of the file's other
    tokens.

    start and end are its first and last token.  line is the offset of the
    first source line its declarations render from: the line of the last
    javadoc attached to its first token, else of that token.  lead is the
    text from line to the first token when that is white space, else None.
    after is the offset of the newline after its last token, -1 at the end
    of the file.
    chain and class_name are the context it was walked in, anon the number
    of anonymous classes numbered before it in the file and anons the
    number numbered inside it.  methods and fields are the positions of its
    declarations in the walk's lists.  kept is what the caller made of them,
    (method entries, field entries), and None until Walk.settle sets it.
    """

    start: int
    end: int
    line: int
    lead: str | None
    after: int
    chain: list[str]
    class_name: str | None
    anon: int
    anons: int
    methods: slice
    fields: slice
    kept: tuple[tuple, tuple] | None = None


@dataclass(eq=False)
class Walk:
    """All that a conversion keeps of a file for its next version: lex, the
    LexBase the next version is lexed against; members, a record of each
    member outside any body that the walk of lex walked or reused; closes,
    the '}' of each type body's '{'.  A new Walk records the empty source."""

    lex: LexBase = field(default_factory=LexBase)
    members: list[MemberRecord] = field(default_factory=list)
    closes: dict[int, int] = field(default_factory=dict)

    def settle(self, methods: list, fields: list) -> None:
        """Keep in each record the caller's entries for its member's
        declarations: methods and fields hold one per declaration the walk
        gave, None for one dropped; fields is empty when none are made.  A
        member with a dropped entry loses its record, to be walked again."""
        settled = []
        for rec in self.members:
            kept = tuple(methods[rec.methods]), tuple(fields[rec.fields])
            if None not in kept[0] and None not in kept[1]:
                rec.kept = kept
                settled.append(rec)
        self.members = settled


_PAIRED = frozenset("(){}")
# the characters the lexer reads as white space
_SPACE = " \t\f\r\n"
_BRACES = {"{": 1, "}": -1}.get


def _paired(toks: list[str], lo: int, hi: int) -> bool:
    """Whether the parentheses and braces of toks[lo:hi] pair up and nest
    inside it: only then does no scan that starts inside read past it."""
    text = "".join(filter(_PAIRED.__contains__, toks[lo:hi]))
    while text:
        inner = text.replace("()", "").replace("{}", "")
        if inner == text:
            return False
        text = inner
    return True


def _expect(cond: bool, msg: str, index: int | None = None) -> None:
    if not cond:
        raise ParseError(msg, index)


def _match(lex: LexBase, i: int, open_text: str, close_text: str, end: int | None) -> int:
    toks = lex.tokens
    n = len(toks) if end is None else end
    _expect(i < n and toks[i] == open_text, f"expected {open_text!r}", i if i < n else None)
    depth = 0
    j = i
    while j < n:
        t = toks[j]
        if t == open_text:
            depth += 1
        elif t == close_text:
            depth -= 1
            if depth == 0:
                return j
        j += 1
    raise ParseError(f"unbalanced {open_text!r}", i)


# The scanners below read the tokens before end only; end defaults to the
# whole file.  Their errors carry the index of the failing token.


def match_paren(lex: LexBase, i: int, end: int | None = None) -> int:
    return _match(lex, i, "(", ")", end)


def match_brace(lex: LexBase, i: int, end: int | None = None) -> int:
    return _match(lex, i, "{", "}", end)


def scan_annotation(lex: LexBase, i: int, end: int | None = None) -> int:
    """Skip an annotation starting at '@'; returns the index after it."""
    toks, kinds = lex.tokens, lex.kinds
    n = len(toks) if end is None else end
    _expect(i < n and toks[i] == "@", "expected '@'", i if i < n else None)
    j = i + 1
    _expect(j < n and kinds[j] == IDENTIFIER, "expected annotation name", i)
    j += 1
    while j + 1 < n and toks[j] == "." and kinds[j + 1] == IDENTIFIER:
        j += 2
    if j < n and toks[j] == "(":
        j = match_paren(lex, j, n) + 1
    return j


_ANGLE_WORDS = frozenset({"extends", "super"}) | PRIMITIVE_TYPES
_ANGLE_PUNCT = frozenset({".", ",", "?", "[", "]", "&"})


def match_angle(lex: LexBase, i: int, end: int | None = None) -> int | None:
    """Try to match generic arguments starting at '<'.

    Returns the index one past the closing token, or None when the region
    cannot be type arguments and '<' must be a comparison.
    """
    toks, kinds = lex.tokens, lex.kinds
    n = len(toks) if end is None else end
    if i >= n or toks[i] != "<":
        return None
    depth = 1
    j = i + 1
    while j < n:
        txt = toks[j]
        if txt == "<":
            depth += 1
            j += 1
            continue
        if txt in (">", ">>", ">>>"):
            depth -= len(txt)
            if depth < 0:
                return None
            j += 1
            if depth == 0:
                return j
            continue
        if txt == "@":
            try:
                j = scan_annotation(lex, j, n)
            except ParseError:
                return None
            continue
        if kinds[j] == IDENTIFIER or txt in _ANGLE_WORDS or txt in _ANGLE_PUNCT:
            j += 1
            continue
        return None
    return None


def _angle_text(lex: LexBase, lo: int, hi: int) -> str:
    toks = lex.tokens
    out = []
    j = lo
    while j < hi:
        if toks[j] == "@":
            j = scan_annotation(lex, j)
            continue
        out.append(toks[j])
        j += 1
    return "".join(out)


def scan_type(lex: LexBase, i: int, end: int | None = None) -> tuple[int, str] | None:
    """Scan a type at i: annotations, a primitive or dotted name with
    generics, then trailing dimensions.

    Returns (end, text); text has no whitespace and no annotations.  Returns
    None when i does not start a type.
    """
    toks, kinds = lex.tokens, lex.kinds
    n = len(toks) if end is None else end
    j = i
    parts: list[str] = []
    while j < n and toks[j] == "@" and not (j + 1 < n and toks[j + 1] == "interface"):
        try:
            j = scan_annotation(lex, j, n)
        except ParseError:
            return None
    if j >= n:
        return None
    t = toks[j]
    if kinds[j] == KEYWORD and t in PRIMITIVE_TYPES:
        parts.append(t)
        j += 1
    elif kinds[j] == IDENTIFIER:
        parts.append(t)
        j += 1
        g = match_angle(lex, j, n)
        if g is not None:
            parts.append(_angle_text(lex, j, g))
            j = g
        while j + 1 < n and toks[j] == "." and kinds[j + 1] == IDENTIFIER:
            parts.append("." + toks[j + 1])
            j += 2
            g = match_angle(lex, j, n)
            if g is not None:
                parts.append(_angle_text(lex, j, g))
                j = g
    else:
        return None
    while True:
        k = j
        while k < n and toks[k] == "@":
            try:
                k = scan_annotation(lex, k, n)
            except ParseError:
                return None
        if k + 1 < n and toks[k] == "[" and toks[k + 1] == "]":
            parts.append("[]")
            j = k + 2
        else:
            break
    return j, "".join(parts)


def source_lines(lex: LexBase, lo: int, hi: int) -> list[str]:
    """Full source lines covering character span [lo, hi), with
    non-Javadoc comments spliced out.  Lines that a removal left
    whitespace-only are dropped; line terminators are stripped.  The work
    grows with the lines and comments of the span, not with the file."""
    src, comments = lex.source, lex.comments
    start = src.rfind("\n", 0, lo) + 1
    end = src.find("\n", hi)
    if end == -1:
        end = len(src)
    # comments[i:j] end after start and start before end.
    i = bisect_right(comments, start, key=_end)
    j = bisect_left(comments, end, key=_start)
    spans = [(c.start, c.end) for c in comments[i:j] if not c.javadoc]
    out: list[str] = []
    pos = start
    first = 0  # the first span that does not end before the line
    for line in src[start:end].split("\n"):
        ls, le = pos, pos + len(line)
        pos = le + 1
        while first < len(spans) and spans[first][1] <= ls:
            first += 1
        kept: list[str] = []
        removed = False
        cursor = ls
        k = first
        while k < len(spans) and spans[k][0] < le:
            s, e = max(spans[k][0], ls), min(spans[k][1], le)
            if s > cursor:
                kept.append(src[cursor:s])
            removed = True
            cursor = max(cursor, e)
            k += 1
        kept.append(src[cursor:le])
        text = "".join(kept)
        if text.endswith("\r"):
            text = text[:-1]
        if removed and not text.strip():
            continue
        out.append(text)
    return out


class _Extractor:
    def __init__(self, lex: LexBase, walk: Walk):
        """walk is the walk of the version lex was lexed against; it is
        read here, then given lex and refilled as this walk goes."""
        self.lex = lex
        self.toks = lex.tokens
        self.kinds = lex.kinds
        self.methods: list[MethodDecl | tuple] = []
        self.fields: list[FieldDecl | tuple] = []
        self.types: dict[int, TypeDecl] = {}
        self._anon = 0
        # bodies being scanned for types; members inside one are not recorded
        self._bodies = 0
        self.walk = walk
        # new start index -> (record of the last walk, whether in the copied tail)
        self._reusable: dict[int, tuple[MemberRecord, bool]] = {}
        # new '{' index -> its '}', for the type bodies of the last walk
        self._closes: dict[int, int] = {}
        self._take(walk)
        walk.lex, walk.members, walk.closes = lex, [], {}

    def _take(self, last: Walk) -> None:
        """Map what the last walk kept to this version's token indices: the
        records of members whose tokens were copied, and the closes of type
        bodies whose braces still pair as they did."""
        copied, toks = self.lex.copied, self.toks
        for rec in last.members:
            if rec.kept is None:
                continue
            if 0 <= rec.after < copied.prefix:
                self._reusable[rec.start] = rec, False
            elif rec.start >= copied.tail:
                self._reusable[rec.start + copied.shift] = rec, True
        # A body open before the edited tokens and closed after them still
        # closes there when they net as many braces as the tokens they
        # replace and never close more than they open.
        head, tail, shift = copied.head, copied.tail, copied.shift
        depths = list(accumulate(map(_BRACES, toks[head : tail + shift], repeat(0)), initial=0))
        spans = min(depths) == 0 and depths[-1] == sum(
            map(_BRACES, last.lex.tokens[head:tail], repeat(0))
        )
        for lo, hi in last.closes.items():
            if hi < head:
                self._closes[lo] = hi
            elif lo >= tail:
                self._closes[lo + shift] = hi + shift
            elif spans and lo < head and hi >= tail:
                self._closes[lo] = hi + shift

    # ------------------------------------------------------------------
    # small helpers

    def _next_anon(self) -> str:
        self._anon += 1
        return f"${self._anon}"

    def _javadoc(self, lo: int, hi: int) -> CommentSpan | None:
        """The last javadoc attached to a token in [lo, hi]: the last that
        starts before token hi and after token lo - 1."""
        lex = self.lex
        docs, offsets = lex.javadocs, lex.offsets
        i = bisect_left(docs, offsets[hi], key=_start) - 1
        if i < 0 or (lo and docs[i].start < offsets[lo - 1]):
            return None
        return docs[i]

    def _line(self, start: int) -> int:
        """The offset of the line of the last javadoc attached to token
        start, or else of the token."""
        doc = self._javadoc(start, start)
        lo = self.lex.offsets[start] if doc is None else doc.start
        return self.lex.source.rfind("\n", 0, lo) + 1

    def _javadoc_lines(self, start: int, name_idx: int) -> list[str]:
        """Source lines of the last javadoc attached to a token in
        [start, name_idx]."""
        doc = self._javadoc(start, name_idx)
        return [] if doc is None else source_lines(self.lex, doc.start, doc.end)

    # ------------------------------------------------------------------
    # top level

    def run(self) -> None:
        toks = self.toks
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            if t in ("package", "import"):
                while i < n and toks[i] != ";":
                    i += 1
                i += 1
                continue
            if t == ";":
                i += 1
                continue
            i = self._type_decl(i, []).end + 1

    def _is_type_decl_ahead(self, j: int) -> bool:
        toks, kinds = self.toks, self.kinds
        for k in range(j, min(j + 4, len(toks))):
            txt = toks[k]
            if txt in TYPE_DECL_KEYWORDS or txt == "@":
                return True
            if txt == "record" and kinds[k] == IDENTIFIER:
                return True
            if txt in MODIFIER_KEYWORDS or txt in CONTEXTUAL_MODIFIERS:
                continue
            return False
        return False

    def _type_decl(self, i: int, chain: list[str]) -> TypeDecl:
        """Parse a top-level type declaration whose annotations/modifiers
        start at i."""
        n = len(self.toks)
        j, _ = self._modifiers(i, n)
        _expect(j < n, "unexpected end of file")
        kind = self._type_kind(j, n)
        if kind is None:
            raise ParseError("expected a type declaration", j)
        return self._class_like(j, chain, kind)

    def _modifiers(self, i: int, hi: int) -> tuple[int, list[str]]:
        """Skip the annotations and modifiers at i, before hi; returns the
        index after them and the modifiers.  'sealed' and 'non-sealed' are
        modifiers only before a type declaration."""
        toks, kinds = self.toks, self.kinds
        mods: list[str] = []
        j = i
        while j < hi:
            t = toks[j]
            if t == "@" and j + 1 < hi and toks[j + 1] == "interface":
                break
            if t == "@":
                j = scan_annotation(self.lex, j)
                continue
            if (kinds[j] == KEYWORD and t in MODIFIER_KEYWORDS) or (
                t in CONTEXTUAL_MODIFIERS and self._is_type_decl_ahead(j + 1)
            ):
                mods.append(t)
                j += 1
                continue
            break
        return j, mods

    def _type_kind(self, j: int, hi: int) -> str | None:
        """The kind of the type declaration whose keyword is at j, if any."""
        toks, kinds = self.toks, self.kinds
        t = toks[j]
        if t in TYPE_DECL_KEYWORDS:
            return t
        if t == "@" and j + 1 < hi and toks[j + 1] == "interface":
            return "@interface"
        if (
            kinds[j] == IDENTIFIER
            and t == "record"
            and j + 2 < hi
            and kinds[j + 1] == IDENTIFIER
            and toks[j + 2] in ("(", "<")
        ):
            return "record"
        return None

    def _class_like(self, start: int, chain: list[str], kind: str) -> TypeDecl:
        """Parse a type declaration from its keyword at start."""
        toks = self.toks
        n = len(toks)
        name_idx = start + (2 if kind == "@interface" else 1)
        _expect(
            name_idx < n and self.kinds[name_idx] == IDENTIFIER,
            "expected type name",
            name_idx if name_idx < n else None,
        )
        name = toks[name_idx]
        j = name_idx + 1
        if j < n and toks[j] == "<":
            g = match_angle(self.lex, j)
            _expect(g is not None, "malformed type parameters", j)
            j = g
        if kind == "record" and j < n and toks[j] == "(":
            j = match_paren(self.lex, j) + 1
        header = j
        while j < n and toks[j] != "{":
            if toks[j] == "@":
                j = scan_annotation(self.lex, j)
                continue
            if toks[j] == ";":
                return TypeDecl(kind, name, start, header, None, j)
            j += 1
        _expect(j < n, "missing type body", name_idx)
        close = self._closes.get(j)
        if close is None:
            close = match_brace(self.lex, j)
        self.walk.closes[j] = close
        rec = TypeDecl(kind, name, start, header, j, close)
        sub_chain = chain + [name]
        k = j + 1
        if kind == "enum":
            k = self._enum_constants(rec, sub_chain)
        rec.members = self._members(k, rec.end, sub_chain, name)
        return rec

    def _anonymous(self, i: int, chain: list[str]) -> TypeDecl:
        """The anonymous class body whose '{' is at i."""
        close = match_brace(self.lex, i)
        rec = TypeDecl("anonymous", None, i, i, i, close)
        rec.members = self._members(i + 1, close, chain + [self._next_anon()], None)
        return rec

    def _enum_constants(self, rec: TypeDecl, chain: list[str]) -> int:
        """Walk the enum constant list; returns the first member index.
        Constants are not extracted as fields; a constant body is an
        anonymous class and its members are extracted."""
        toks = self.toks
        close = rec.end
        j = rec.body_open + 1
        while j < close:
            t = toks[j]
            if t == ";":
                rec.constants_end = j
                return j + 1
            if t == "@":
                j = scan_annotation(self.lex, j)
                continue
            _expect(self.kinds[j] == IDENTIFIER, "expected enum constant", j)
            const = EnumConstant(j, None, None)
            j += 1
            if j < close and toks[j] == "(":
                c = match_paren(self.lex, j)
                self._scan_for_types(j + 1, c, chain)
                const.args = (j, c)
                j = c + 1
            if j < close and toks[j] == "{":
                const.body = self._anonymous(j, chain)
                j = const.body.end + 1
            rec.constants.append(const)
            if j < close and toks[j] == ",":
                j += 1
        return close

    # ------------------------------------------------------------------
    # members

    def _members(self, i: int, close: int, chain: list[str], class_name: str | None) -> list[Member]:
        """The members from i up to the body's close.  Outside any body,
        each is recorded, and one the last walk recorded may be reused;
        a reused member is left out of the list."""
        toks = self.toks
        records = None if self._bodies else self.walk.members
        out: list[Member] = []
        j = i
        while j < close:
            if toks[j] == ";":
                j += 1
                continue
            if records is not None:
                end = self._reuse(j, close, chain, class_name)
                if end is not None:
                    j = end + 1
                    continue
                methods, fields, anon = len(self.methods), len(self.fields), self._anon
            member = self._member(j, close, chain, class_name)
            out.append(member)
            end = member.end
            if records is not None and member.kind != "type" and _paired(toks, j, end + 1):
                src, line = self.lex.source, self._line(j)
                lead = src[line : self.lex.offsets[j]]
                records.append(MemberRecord(
                    j, end, line, None if lead.strip(_SPACE) else lead,
                    src.find("\n", self.lex.end(end)), chain, class_name,
                    anon, self._anon - anon,
                    slice(methods, len(self.methods)), slice(fields, len(self.fields)),
                ))
            j = end + 1
        return out

    def _reuse(self, j: int, close: int, chain: list[str], class_name: str | None) -> int | None:
        """Reuse the last walk's record of a member that starts at token j,
        if there is one; returns the member's last token, or None when it
        must be walked.

        A record is reused only when walking the member again would give
        what its walk gave.  Its tokens are copied and its lines are
        characters that both versions share and lex alike: in the copied
        prefix, through the newline after its last token; in the copied
        tail, from the start of its first line, which starts where it
        started, so the javadoc attached to it is the same, and lies in the
        copied tail or holds the same white space before its first token.
        It sits in the same chain of types, ends before the body does and,
        if it numbers anonymous classes, has the same count of them before
        it.  Its kept entries stand for its declarations, and the
        anonymous-class count steps over its own.
        """
        found = self._reusable.get(j)
        if found is None:
            return None
        old, in_tail = found
        copied = self.lex.copied
        end = old.end + copied.shift if in_tail else old.end
        if (
            end >= close
            or (old.anons and old.anon != self._anon)
            or old.class_name != class_name
            or old.chain != chain
        ):
            return None
        line, after = old.line, old.after
        if in_tail:
            line += copied.delta
            if self._line(j) != line or (
                line < copied.sync and self.lex.source[line : self.lex.offsets[j]] != old.lead
            ):
                return None
            if after >= 0:
                after += copied.delta
        methods, fields = old.kept
        m0, f0, anon = len(self.methods), len(self.fields), self._anon
        self.methods += methods
        self.fields += fields
        self._anon += old.anons
        self.walk.members.append(MemberRecord(
            j, end, line, old.lead, after, chain, class_name, anon, old.anons,
            slice(m0, len(self.methods)), slice(f0, len(self.fields)),
        ))
        return end

    def _member(self, start: int, close: int, chain: list[str], class_name: str | None) -> Member:
        toks, kinds = self.toks, self.kinds
        j, mods = self._modifiers(start, close)
        _expect(j < close, "truncated member", start)
        t = toks[j]
        head = j

        kind = self._type_kind(j, close)
        if kind is not None:
            rec = self._class_like(j, chain, kind)
            return Member("type", start, head, mods, rec.end, type=rec)

        if t == "{":
            b = match_brace(self.lex, j)
            self._scan_for_types(j + 1, b, chain)
            return Member("initializer", start, head, mods, b, body=j)

        if t == "<":
            g = match_angle(self.lex, j)
            _expect(g is not None, "malformed method type parameters", j)
            _expect(g < close, "truncated member", j)
            j = g
            t = toks[j]

        if (
            class_name is not None
            and kinds[j] == IDENTIFIER
            and t == class_name
            and j + 1 < close
            and toks[j + 1] in ("(", "{")
        ):
            return self._method(start, head, mods, "", j, chain, close)

        st = scan_type(self.lex, j)
        if st is None:
            raise ParseError("expected member type", j)
        type_end, type_text = st
        _expect(type_end < close, "truncated member", j)
        _expect(kinds[type_end] == IDENTIFIER, "expected member name", type_end)
        if type_end + 1 < close and toks[type_end + 1] == "(":
            return self._method(start, head, mods, type_text, type_end, chain, close)
        return self._field(start, head, mods, type_text, type_end, chain, close)

    def _method(
        self,
        start: int,
        head: int,
        mods: list[str],
        return_type: str,
        name_idx: int,
        chain: list[str],
        close: int,
    ) -> Member:
        """A method or constructor; a compact constructor when name_idx is
        followed by '{'."""
        toks = self.toks
        member = Member("method", start, head, mods, close)
        param_types: list[str] = []
        j = name_idx + 1
        ret = return_type
        if toks[j] == "(":
            pclose = match_paren(self.lex, j)
            param_types = self._param_types(j + 1, pclose)
            member.params = (j, pclose)
            j = pclose + 1
            while j + 1 < close and toks[j] == "[" and toks[j + 1] == "]":
                ret += "[]"
                j += 2
        while True:
            _expect(j < close, "unterminated method header", name_idx)
            txt = toks[j]
            if txt == "@":
                j = scan_annotation(self.lex, j)
                continue
            if txt == "{":
                member.body = j
                member.end = match_brace(self.lex, j)
                break
            if txt == ";":
                member.end = j
                break
            if txt == "default" and self.kinds[j] == KEYWORD:
                lo = j + 1
                j = self._expr_end(lo, close, (";",))
                member.default = (lo, j)
                continue
            j += 1

        end = member.end
        self.methods.append(
            MethodDecl(
                class_chain=list(chain),
                modifiers=mods,
                return_type=ret,
                name=toks[name_idx],
                param_types=param_types,
                runs=((start, end + 1),),
                javadoc_lines=self._javadoc_lines(start, name_idx),
                member=member,
                file=self.lex,
                types=self.types,
            )
        )
        if member.body is not None:
            self._scan_for_types(member.body + 1, end, chain)
        return member

    def _param_types(self, lo: int, hi: int) -> list[str]:
        toks, kinds = self.toks, self.kinds
        out: list[str] = []
        j = lo
        while j < hi:
            while j < hi:
                if toks[j] == "@":
                    j = scan_annotation(self.lex, j)
                    continue
                if toks[j] == "final":
                    j += 1
                    continue
                break
            if j >= hi:
                break
            st = scan_type(self.lex, j)
            if st is None:
                raise ParseError("malformed parameter", j)
            j, text = st
            while j < hi and toks[j] == "@":
                j = scan_annotation(self.lex, j)
            if j < hi and toks[j] == "...":
                text += "..."
                j += 1
            receiver = False
            if j < hi and toks[j] == "this":
                receiver = True
                j += 1
            elif (
                j + 2 < hi
                and kinds[j] == IDENTIFIER
                and toks[j + 1] == "."
                and toks[j + 2] == "this"
            ):
                receiver = True
                j += 3
            else:
                _expect(j < hi and kinds[j] == IDENTIFIER,
                        "expected parameter name", j if j < hi else None)
                j += 1
                while j + 1 < hi and toks[j] == "[" and toks[j + 1] == "]":
                    text += "[]"
                    j += 2
            if not receiver:
                out.append(text)
            if j < hi:
                _expect(toks[j] == ",", "malformed parameter list", j)
                j += 1
        return out

    def _field(
        self,
        start: int,
        head: int,
        mods: list[str],
        type_text: str,
        first_name_idx: int,
        chain: list[str],
        close: int,
    ) -> Member:
        toks = self.toks
        member = Member("field", start, head, mods, close)
        all_dims: list[str] = []
        j = first_name_idx
        while True:
            d_start = j
            _expect(self.kinds[j] == IDENTIFIER, "expected field name", d_start)
            j += 1
            dims = ""
            while j + 1 < close and toks[j] == "[" and toks[j + 1] == "]":
                dims += "[]"
                j += 2
            init = j
            if j < close and toks[j] == "=":
                init = j + 1
                j = self._expr_end(init, close, (",", ";"))
                self._scan_for_types(init, j, chain)
            _expect(j < close, "unterminated field", d_start)
            member.declarators.append((d_start, init, j))
            all_dims.append(dims)
            if toks[j] == ",":
                j += 1
                continue
            _expect(toks[j] == ";", "expected ';' after field", j)
            break
        member.end = j
        javadoc_lines = self._javadoc_lines(start, first_name_idx)
        for declarator, dims in zip(member.declarators, all_dims):
            lo, _, hi = declarator
            self.fields.append(
                FieldDecl(
                    class_chain=list(chain),
                    modifiers=list(mods),
                    field_type=type_text + dims,
                    name=toks[lo],
                    runs=((start, first_name_idx), (lo, hi + 1)),
                    javadoc_lines=javadoc_lines,
                    member=member,
                    declarator=declarator,
                    file=self.lex,
                    types=self.types,
                )
            )
        return member

    def _expr_end(self, i: int, close: int, stops: tuple[str, ...]) -> int:
        """Scan an expression; returns the index of the first stop token at
        zero paren/bracket/brace depth.  Generic argument runs are skipped
        when they are followed by '(' or '::' (calls and method refs)."""
        toks, kinds = self.toks, self.kinds
        depth = 0
        j = i
        while j < close:
            txt = toks[j]
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
                _expect(depth >= 0, "unbalanced expression", j)
            elif depth == 0 and txt in stops:
                return j
            elif txt == "<" and j > i and kinds[j - 1] == IDENTIFIER:
                g = match_angle(self.lex, j)
                if g is not None and g < close and toks[g] in ("(", "::"):
                    j = g
                    continue
            j += 1
        raise ParseError("unterminated expression", i if i < len(toks) else None)

    # ------------------------------------------------------------------
    # nested type discovery inside statement/expression regions

    def _scan_for_types(self, lo: int, hi: int, chain: list[str]) -> None:
        toks = self.toks
        self._bodies += 1
        j = lo
        while j < hi:
            txt = toks[j]
            if txt == "new":
                j = self._new_expr(j, hi, chain)
                continue
            # A type keyword must name a type (_class_like raises if not);
            # only a class literal, `X.class`, is something else.
            kind = None if txt == "class" and j and toks[j - 1] == "." else self._type_kind(j, hi)
            if kind is None:
                j += 1
                continue
            rec = self._class_like(j, chain, kind)
            self.types[j] = rec
            if rec.body_open is not None:
                self.types[rec.body_open] = rec
            j = rec.end + 1
        self._bodies -= 1

    def _new_expr(self, i: int, hi: int, chain: list[str]) -> int:
        """Handle a 'new' expression at i; extracts anonymous class members.
        Returns the index to resume scanning from."""
        toks, kinds = self.toks, self.kinds
        k = i + 1
        while k < hi and toks[k] == "@":
            k = scan_annotation(self.lex, k)
        if k < hi and kinds[k] == KEYWORD and toks[k] in PRIMITIVE_TYPES:
            return k + 1
        if k >= hi or kinds[k] != IDENTIFIER:
            return i + 1
        k += 1
        g = match_angle(self.lex, k)
        if g is not None:
            k = g
        while k + 1 < hi and toks[k] == "." and kinds[k + 1] == IDENTIFIER:
            k += 2
            g = match_angle(self.lex, k)
            if g is not None:
                k = g
        if k < hi and toks[k] == "(":
            c = match_paren(self.lex, k)
            self._scan_for_types(k + 1, c, chain)
            if c + 1 < hi and toks[c + 1] == "{":
                rec = self._anonymous(c + 1, chain)
                self.types[c + 1] = rec
                return rec.end + 1
            return c + 1
        return k


def extract(
    source: str, walk: Walk | None = None
) -> tuple[list[MethodDecl | tuple], list[FieldDecl | tuple]]:
    """Extract all method and field declarations from Java source.

    Raises LexError or ParseError when the file cannot be processed;
    callers then keep the original file untouched.  A ParseError's message
    ends with the line of its token.

    walk is the last walk of an earlier version of the file, a new Walk by
    default: source is lexed against walk.lex, and a member whose record
    can be reused is not walked, the entries its record kept standing for
    its declarations in their places.  A LexError leaves walk as it was;
    then walk takes the new lex and is refilled as the walk goes; its
    records keep nothing until Walk.settle, so a failed walk leaves none.
    """
    if walk is None:
        walk = Walk()
    lex = tokenize(source, walk.lex)
    ex = _Extractor(lex, walk)
    try:
        ex.run()
    except ParseError as e:
        if e.index is not None:
            e.args = (f"{e} near line {position(source, lex.offsets[e.index])[0]}",)
        raise
    return ex.methods, ex.fields
