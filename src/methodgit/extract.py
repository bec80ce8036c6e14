"""Structural extraction of Java methods and fields from token streams.

The walker is a lightweight structural parser: it matches brace, paren, and
angle structure and recognizes declaration headers, which is all the
downstream stages need.  It does not build expression trees and it never
resolves names.  Anything it cannot make sense of raises ParseError and the
caller falls back to passing the file through untouched.  The structure it
walks is kept as records (TypeDecl, EnumConstant, Member), from which the
renderer tags terminators.  Every position a record or declaration carries
is an index into the file's token list, which each declaration also holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .lexer import LexResult, Token, TokenKind, position, tokenize

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
class MethodDecl:
    """A method, constructor, or compact record constructor.

    tokens is the contiguous token run of the whole declaration including
    annotations, file_tokens[member.start : member.end + 1].  member is the
    walk's record of the declaration.  types maps the index of the keyword
    and of the body's '{' of each type declared inside a method body or an
    initializer of the file to its record.
    """

    class_chain: list[str]
    modifiers: list[str]
    return_type: str
    name: str
    param_types: list[str]
    tokens: list[Token]
    plain_lines: list[str]
    javadoc_lines: list[str]
    member: Member
    file_tokens: list[Token]
    types: dict[int, TypeDecl]


@dataclass
class FieldDecl:
    """One declared field variable.

    A multi-variable declaration yields one FieldDecl per variable; tokens
    are the shared annotations, modifiers and type, this variable's
    declarator (one of member.declarators) and the closing semicolon.
    file_tokens and types are as in MethodDecl.
    """

    class_chain: list[str]
    modifiers: list[str]
    field_type: str
    name: str
    tokens: list[Token]
    plain_lines: list[str]
    javadoc_lines: list[str]
    member: Member
    declarator: tuple[int, int, int]
    file_tokens: list[Token]
    types: dict[int, TypeDecl]


def _fail(msg: str, tok: Token | None = None) -> ParseError:
    return ParseError(msg, None if tok is None else tok.offset)


def _expect(cond: bool, msg: str, tok: Token | None = None) -> None:
    if not cond:
        raise _fail(msg, tok)


def _match(toks: list[Token], i: int, open_text: str, close_text: str, end: int | None) -> int:
    n = len(toks) if end is None else end
    _expect(
        i < n and toks[i].text == open_text,
        f"expected {open_text!r}",
        toks[i] if i < n else None,
    )
    depth = 0
    j = i
    while j < n:
        t = toks[j].text
        if t == open_text:
            depth += 1
        elif t == close_text:
            depth -= 1
            if depth == 0:
                return j
        j += 1
    raise _fail(f"unbalanced {open_text!r}", toks[i])


# The scanners below read toks[:end] only; end defaults to the whole list.


def match_paren(toks: list[Token], i: int, end: int | None = None) -> int:
    return _match(toks, i, "(", ")", end)


def match_brace(toks: list[Token], i: int, end: int | None = None) -> int:
    return _match(toks, i, "{", "}", end)


def scan_annotation(toks: list[Token], i: int, end: int | None = None) -> int:
    """Skip an annotation starting at '@'; returns the index after it."""
    n = len(toks) if end is None else end
    _expect(i < n and toks[i].text == "@", "expected '@'",
            toks[i] if i < n else None)
    j = i + 1
    _expect(j < n and toks[j].kind == TokenKind.IDENTIFIER,
            "expected annotation name", toks[i])
    j += 1
    while j + 1 < n and toks[j].text == "." and toks[j + 1].kind == TokenKind.IDENTIFIER:
        j += 2
    if j < n and toks[j].text == "(":
        j = match_paren(toks, j, n) + 1
    return j


_ANGLE_WORDS = frozenset({"extends", "super"}) | PRIMITIVE_TYPES
_ANGLE_PUNCT = frozenset({".", ",", "?", "[", "]", "&"})


def match_angle(toks: list[Token], i: int, end: int | None = None) -> int | None:
    """Try to match generic arguments starting at '<'.

    Returns the index one past the closing token, or None when the region
    cannot be type arguments and '<' must be a comparison.
    """
    n = len(toks) if end is None else end
    if i >= n or toks[i].text != "<":
        return None
    depth = 1
    j = i + 1
    while j < n:
        t = toks[j]
        txt = t.text
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
                j = scan_annotation(toks, j, n)
            except ParseError:
                return None
            continue
        if t.kind == TokenKind.IDENTIFIER or txt in _ANGLE_WORDS or txt in _ANGLE_PUNCT:
            j += 1
            continue
        return None
    return None


def _angle_text(toks: list[Token], lo: int, hi: int) -> str:
    out = []
    j = lo
    while j < hi:
        if toks[j].text == "@":
            j = scan_annotation(toks, j)
            continue
        out.append(toks[j].text)
        j += 1
    return "".join(out)


def scan_type(toks: list[Token], i: int, end: int | None = None) -> tuple[int, str] | None:
    """Scan a type at i: annotations, a primitive or dotted name with
    generics, then trailing dimensions.

    Returns (end, text); text has no whitespace and no annotations.  Returns
    None when i does not start a type.
    """
    n = len(toks) if end is None else end
    j = i
    parts: list[str] = []
    while j < n and toks[j].text == "@" and not (j + 1 < n and toks[j + 1].text == "interface"):
        try:
            j = scan_annotation(toks, j, n)
        except ParseError:
            return None
    if j >= n:
        return None
    t = toks[j]
    if t.kind == TokenKind.KEYWORD and t.text in PRIMITIVE_TYPES:
        parts.append(t.text)
        j += 1
    elif t.kind == TokenKind.IDENTIFIER:
        parts.append(t.text)
        j += 1
        g = match_angle(toks, j, n)
        if g is not None:
            parts.append(_angle_text(toks, j, g))
            j = g
        while j + 1 < n and toks[j].text == "." and toks[j + 1].kind == TokenKind.IDENTIFIER:
            parts.append("." + toks[j + 1].text)
            j += 2
            g = match_angle(toks, j, n)
            if g is not None:
                parts.append(_angle_text(toks, j, g))
                j = g
    else:
        return None
    while True:
        k = j
        while k < n and toks[k].text == "@":
            try:
                k = scan_annotation(toks, k, n)
            except ParseError:
                return None
        if k + 1 < n and toks[k].text == "[" and toks[k + 1].text == "]":
            parts.append("[]")
            j = k + 2
        else:
            break
    return j, "".join(parts)


class _Extractor:
    def __init__(self, source: str, lex: LexResult):
        self.source = source
        self.toks = lex.tokens
        self.javadocs = lex.javadocs
        self.comments = lex.comments
        self.methods: list[MethodDecl] = []
        self.fields: list[FieldDecl] = []
        self.types: dict[int, TypeDecl] = {}
        self._anon = 0

    # ------------------------------------------------------------------
    # small helpers

    def _next_anon(self) -> str:
        self._anon += 1
        return f"${self._anon}"

    def _source_lines(self, lo: int, hi: int) -> list[str]:
        """Full source lines covering character span [lo, hi), with
        non-Javadoc comments spliced out.  Lines that a removal left
        whitespace-only are dropped; line terminators are stripped."""
        src = self.source
        start = src.rfind("\n", 0, lo) + 1
        end = src.find("\n", hi)
        if end == -1:
            end = len(src)
        spans = [
            (c.start, c.end)
            for c in self.comments
            if not c.javadoc and c.start < end and c.end > start
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

    def _javadoc_lines(self, start: int, name_idx: int) -> list[str]:
        """Source lines of the last javadoc attached to a token in
        [start, name_idx]."""
        found = None
        for jd in self.javadocs:
            if start <= jd.attach_index <= name_idx:
                found = jd
            elif jd.attach_index > name_idx:
                break
        return [] if found is None else self._source_lines(found.start, found.end)

    # ------------------------------------------------------------------
    # top level

    def run(self) -> None:
        toks = self.toks
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            if t.text in ("package", "import"):
                while i < n and toks[i].text != ";":
                    i += 1
                i += 1
                continue
            if t.text == ";":
                i += 1
                continue
            i = self._type_decl(i, []).end + 1

    def _is_type_decl_ahead(self, j: int) -> bool:
        toks = self.toks
        for k in range(j, min(j + 4, len(toks))):
            txt = toks[k].text
            if txt in TYPE_DECL_KEYWORDS or txt == "@":
                return True
            if txt == "record" and toks[k].kind == TokenKind.IDENTIFIER:
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
            raise _fail("expected a type declaration", self.toks[j])
        return self._class_like(j, chain, kind)

    def _modifiers(self, i: int, hi: int) -> tuple[int, list[str]]:
        """Skip the annotations and modifiers at i, before hi; returns the
        index after them and the modifiers.  'sealed' and 'non-sealed' are
        modifiers only before a type declaration."""
        toks = self.toks
        mods: list[str] = []
        j = i
        while j < hi:
            t = toks[j]
            if t.text == "@" and j + 1 < hi and toks[j + 1].text == "interface":
                break
            if t.text == "@":
                j = scan_annotation(toks, j)
                continue
            if (t.kind == TokenKind.KEYWORD and t.text in MODIFIER_KEYWORDS) or (
                t.text in CONTEXTUAL_MODIFIERS and self._is_type_decl_ahead(j + 1)
            ):
                mods.append(t.text)
                j += 1
                continue
            break
        return j, mods

    def _type_kind(self, j: int, hi: int) -> str | None:
        """The kind of the type declaration whose keyword is at j, if any."""
        toks = self.toks
        t = toks[j]
        if t.text in TYPE_DECL_KEYWORDS:
            return t.text
        if t.text == "@" and j + 1 < hi and toks[j + 1].text == "interface":
            return "@interface"
        if (
            t.kind == TokenKind.IDENTIFIER
            and t.text == "record"
            and j + 2 < hi
            and toks[j + 1].kind == TokenKind.IDENTIFIER
            and toks[j + 2].text in ("(", "<")
        ):
            return "record"
        return None

    def _class_like(self, start: int, chain: list[str], kind: str) -> TypeDecl:
        """Parse a type declaration from its keyword at start."""
        toks = self.toks
        n = len(toks)
        name_idx = start + (2 if kind == "@interface" else 1)
        _expect(
            name_idx < n and toks[name_idx].kind == TokenKind.IDENTIFIER,
            "expected type name",
            toks[name_idx] if name_idx < n else None,
        )
        name = toks[name_idx].text
        j = name_idx + 1
        if j < n and toks[j].text == "<":
            g = match_angle(toks, j)
            _expect(g is not None, "malformed type parameters", toks[j])
            j = g
        if kind == "record" and j < n and toks[j].text == "(":
            j = match_paren(toks, j) + 1
        header = j
        while j < n and toks[j].text != "{":
            if toks[j].text == "@":
                j = scan_annotation(toks, j)
                continue
            if toks[j].text == ";":
                return TypeDecl(kind, name, start, header, None, j)
            j += 1
        _expect(j < n, "missing type body", toks[name_idx])
        rec = TypeDecl(kind, name, start, header, j, match_brace(toks, j))
        sub_chain = chain + [name]
        k = j + 1
        if kind == "enum":
            k = self._enum_constants(rec, sub_chain)
        rec.members = self._members(k, rec.end, sub_chain, name)
        return rec

    def _anonymous(self, i: int, chain: list[str]) -> TypeDecl:
        """The anonymous class body whose '{' is at i."""
        close = match_brace(self.toks, i)
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
            if t.text == ";":
                rec.constants_end = j
                return j + 1
            if t.text == "@":
                j = scan_annotation(toks, j)
                continue
            _expect(t.kind == TokenKind.IDENTIFIER, "expected enum constant", t)
            const = EnumConstant(j, None, None)
            j += 1
            if j < close and toks[j].text == "(":
                c = match_paren(toks, j)
                self._scan_for_types(j + 1, c, chain)
                const.args = (j, c)
                j = c + 1
            if j < close and toks[j].text == "{":
                const.body = self._anonymous(j, chain)
                j = const.body.end + 1
            rec.constants.append(const)
            if j < close and toks[j].text == ",":
                j += 1
        return close

    # ------------------------------------------------------------------
    # members

    def _members(self, i: int, close: int, chain: list[str], class_name: str | None) -> list[Member]:
        toks = self.toks
        out: list[Member] = []
        j = i
        while j < close:
            if toks[j].text == ";":
                j += 1
                continue
            member = self._member(j, close, chain, class_name)
            out.append(member)
            j = member.end + 1
        return out

    def _member(self, start: int, close: int, chain: list[str], class_name: str | None) -> Member:
        toks = self.toks
        j, mods = self._modifiers(start, close)
        _expect(j < close, "truncated member", toks[start])
        t = toks[j]
        head = j

        kind = self._type_kind(j, close)
        if kind is not None:
            rec = self._class_like(j, chain, kind)
            return Member("type", start, head, mods, rec.end, type=rec)

        if t.text == "{":
            b = match_brace(toks, j)
            self._scan_for_types(j + 1, b, chain)
            return Member("initializer", start, head, mods, b, body=j)

        if t.text == "<":
            g = match_angle(toks, j)
            _expect(g is not None, "malformed method type parameters", t)
            j = g
            _expect(j < close, "truncated member", t)
            t = toks[j]

        if (
            class_name is not None
            and t.kind == TokenKind.IDENTIFIER
            and t.text == class_name
            and j + 1 < close
            and toks[j + 1].text in ("(", "{")
        ):
            return self._method(start, head, mods, "", j, chain, close)

        st = scan_type(toks, j)
        if st is None:
            raise _fail("expected member type", t)
        type_end, type_text = st
        _expect(type_end < close, "truncated member", t)
        name_tok = toks[type_end]
        _expect(name_tok.kind == TokenKind.IDENTIFIER, "expected member name", name_tok)
        if type_end + 1 < close and toks[type_end + 1].text == "(":
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
        if toks[j].text == "(":
            pclose = match_paren(toks, j)
            param_types = self._param_types(j + 1, pclose)
            member.params = (j, pclose)
            j = pclose + 1
            while j + 1 < close and toks[j].text == "[" and toks[j + 1].text == "]":
                ret += "[]"
                j += 2
        while True:
            _expect(j < close, "unterminated method header", toks[name_idx])
            txt = toks[j].text
            if txt == "@":
                j = scan_annotation(toks, j)
                continue
            if txt == "{":
                member.body = j
                member.end = match_brace(toks, j)
                break
            if txt == ";":
                member.end = j
                break
            if txt == "default" and toks[j].kind == TokenKind.KEYWORD:
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
                name=toks[name_idx].text,
                param_types=param_types,
                tokens=toks[start : end + 1],
                plain_lines=self._source_lines(toks[start].offset, toks[end].end),
                javadoc_lines=self._javadoc_lines(start, name_idx),
                member=member,
                file_tokens=toks,
                types=self.types,
            )
        )
        if member.body is not None:
            self._scan_for_types(member.body + 1, end, chain)
        return member

    def _param_types(self, lo: int, hi: int) -> list[str]:
        toks = self.toks
        out: list[str] = []
        j = lo
        while j < hi:
            while j < hi:
                if toks[j].text == "@":
                    j = scan_annotation(toks, j)
                    continue
                if toks[j].text == "final":
                    j += 1
                    continue
                break
            if j >= hi:
                break
            st = scan_type(toks, j)
            if st is None:
                raise _fail("malformed parameter", toks[j])
            j, text = st
            while j < hi and toks[j].text == "@":
                j = scan_annotation(toks, j)
            if j < hi and toks[j].text == "...":
                text += "..."
                j += 1
            receiver = False
            if j < hi and toks[j].text == "this":
                receiver = True
                j += 1
            elif (
                j + 2 < hi
                and toks[j].kind == TokenKind.IDENTIFIER
                and toks[j + 1].text == "."
                and toks[j + 2].text == "this"
            ):
                receiver = True
                j += 3
            else:
                _expect(j < hi and toks[j].kind == TokenKind.IDENTIFIER,
                        "expected parameter name", toks[j] if j < hi else None)
                j += 1
                while j + 1 < hi and toks[j].text == "[" and toks[j + 1].text == "]":
                    text += "[]"
                    j += 2
            if not receiver:
                out.append(text)
            if j < hi:
                _expect(toks[j].text == ",", "malformed parameter list", toks[j])
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
            name_tok = toks[j]
            _expect(name_tok.kind == TokenKind.IDENTIFIER, "expected field name", name_tok)
            d_start = j
            j += 1
            dims = ""
            while j + 1 < close and toks[j].text == "[" and toks[j + 1].text == "]":
                dims += "[]"
                j += 2
            init = j
            if j < close and toks[j].text == "=":
                init = j + 1
                j = self._expr_end(init, close, (",", ";"))
                self._scan_for_types(init, j, chain)
            _expect(j < close, "unterminated field", name_tok)
            member.declarators.append((d_start, init, j))
            all_dims.append(dims)
            if toks[j].text == ",":
                j += 1
                continue
            _expect(toks[j].text == ";", "expected ';' after field", toks[j])
            break
        member.end = j
        semi = toks[j]
        plain_lines = self._source_lines(toks[start].offset, semi.end)
        javadoc_lines = self._javadoc_lines(start, first_name_idx)
        for declarator, dims in zip(member.declarators, all_dims):
            lo, _, hi = declarator
            self.fields.append(
                FieldDecl(
                    class_chain=list(chain),
                    modifiers=list(mods),
                    field_type=type_text + dims,
                    name=toks[lo].text,
                    tokens=toks[start:first_name_idx] + toks[lo:hi] + [semi],
                    plain_lines=plain_lines,
                    javadoc_lines=javadoc_lines,
                    member=member,
                    declarator=declarator,
                    file_tokens=toks,
                    types=self.types,
                )
            )
        return member

    def _expr_end(self, i: int, close: int, stops: tuple[str, ...]) -> int:
        """Scan an expression; returns the index of the first stop token at
        zero paren/bracket/brace depth.  Generic argument runs are skipped
        when they are followed by '(' or '::' (calls and method refs)."""
        toks = self.toks
        depth = 0
        j = i
        while j < close:
            txt = toks[j].text
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
                _expect(depth >= 0, "unbalanced expression", toks[j])
            elif depth == 0 and txt in stops:
                return j
            elif txt == "<" and j > i and toks[j - 1].kind == TokenKind.IDENTIFIER:
                g = match_angle(toks, j)
                if g is not None and g < close and toks[g].text in ("(", "::"):
                    j = g
                    continue
            j += 1
        raise _fail("unterminated expression", toks[i] if i < len(toks) else None)

    # ------------------------------------------------------------------
    # nested type discovery inside statement/expression regions

    def _scan_for_types(self, lo: int, hi: int, chain: list[str]) -> None:
        toks = self.toks
        j = lo
        while j < hi:
            t = toks[j]
            txt = t.text
            if txt == "new":
                j = self._new_expr(j, hi, chain)
                continue
            kind = None
            # A type keyword must name a type (_class_like raises if not);
            # only a class literal, `X.class`, is something else.
            if txt == "class" and (j == 0 or toks[j - 1].text != "."):
                kind = txt
            elif txt in ("interface", "enum"):
                kind = txt
            elif txt == "@" and j + 1 < hi and toks[j + 1].text == "interface":
                kind = "@interface"
            elif (
                txt == "record"
                and t.kind == TokenKind.IDENTIFIER
                and j + 2 < hi
                and toks[j + 1].kind == TokenKind.IDENTIFIER
                and toks[j + 2].text == "("
            ):
                kind = txt
            if kind is None:
                j += 1
                continue
            rec = self._class_like(j, chain, kind)
            self.types[j] = rec
            if rec.body_open is not None:
                self.types[rec.body_open] = rec
            j = rec.end + 1

    def _new_expr(self, i: int, hi: int, chain: list[str]) -> int:
        """Handle a 'new' expression at i; extracts anonymous class members.
        Returns the index to resume scanning from."""
        toks = self.toks
        k = i + 1
        while k < hi and toks[k].text == "@":
            k = scan_annotation(toks, k)
        if k < hi and toks[k].kind == TokenKind.KEYWORD and toks[k].text in PRIMITIVE_TYPES:
            return k + 1
        if k >= hi or toks[k].kind != TokenKind.IDENTIFIER:
            return i + 1
        k += 1
        g = match_angle(toks, k)
        if g is not None:
            k = g
        while k + 1 < hi and toks[k].text == "." and toks[k + 1].kind == TokenKind.IDENTIFIER:
            k += 2
            g = match_angle(toks, k)
            if g is not None:
                k = g
        if k < hi and toks[k].text == "(":
            c = match_paren(toks, k)
            self._scan_for_types(k + 1, c, chain)
            if c + 1 < hi and toks[c + 1].text == "{":
                rec = self._anonymous(c + 1, chain)
                self.types[c + 1] = rec
                return rec.end + 1
            return c + 1
        return k


def extract(source: str) -> tuple[list[MethodDecl], list[FieldDecl]]:
    """Extract all method and field declarations from Java source.

    Raises LexError or ParseError when the file cannot be processed; callers
    then keep the original file untouched.
    """
    ex = _Extractor(source, tokenize(source))
    try:
        ex.run()
    except ParseError as e:
        if e.offset is not None:
            e.args = (f"{e} near line {position(source, e.offset)[0]}",)
        raise
    return ex.methods, ex.fields
