"""Rendering of extracted declarations to one-token-per-line file content.

Terminator tokens (semicolons, braces, parens) optionally carry a role tag on
their line, and the four outermost method delimiters can be elided.  The
declaration-level tags (type bodies, enum constants, member parameters,
bodies and field terminators) follow the records of extract's walk; the
statement and expression walker here classifies the rest.  The tagger works
in the file token indices of those records, over the token texts and kind
codes of the declaration's lexed file up to the declaration's last token, so
a token gets the same tag in its own declaration and in any declaration
enclosing it.  A declaration renders from its own token texts.  Tagging is
best-effort: if the walker gets confused it stops, and a final pass fills
every remaining terminator with a generic tag so output is total.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ParseError
from .extract import (
    CONTEXTUAL_MODIFIERS,
    PRIMITIVE_TYPES,
    FieldDecl,
    Member,
    MethodDecl,
    TypeDecl,
    match_angle,
    match_brace,
    match_paren,
    scan_type,
)
from .lexer import IDENTIFIER, KEYWORD, LITERAL


class LineFormat(enum.Enum):
    TOKEN_PER_LINE = "token"
    PLAIN = "plain"


@dataclass(frozen=True)
class RenderConfig:
    line_format: LineFormat = LineFormat.TOKEN_PER_LINE
    heuristic1: bool = True
    heuristic2: bool = True


SEMICOLON_TAGS = (
    "RETURN", "EXPRESSION", "LOCAL_VARIABLE", "BREAK", "CONTINUE", "THROW",
    "ASSERT", "DO_WHILE", "FOR_INIT", "FOR_COND", "FOR_UPDATE", "EMPTY",
    "FIELD", "ABSTRACT_METHOD", "ENUM_CONSTANT_LIST", "YIELD", "LABELED",
    "OTHER",
)

BRACKET_TAGS = (
    "METHOD_BODY", "IF", "ELSE", "FOR", "ENHANCED_FOR", "WHILE", "DO", "TRY",
    "CATCH", "FINALLY", "SWITCH", "SYNCHRONIZED", "STATIC_INIT",
    "INSTANCE_INIT", "ARRAY_INITIALIZER", "LAMBDA_BODY", "ANONYMOUS_CLASS",
    "CLASS", "ENUM", "INTERFACE", "PLAIN_BLOCK",
)

PAREN_TAGS = (
    "METHOD_PARAMS", "METHOD_CALL", "CONSTRUCTOR_CALL", "IF_COND",
    "WHILE_COND", "DO_COND", "FOR", "ENHANCED_FOR", "SWITCH_SELECTOR",
    "CATCH_PARAM", "CAST", "GROUPING", "SYNCHRONIZED_EXPR", "ANNOTATION_ARGS",
    "LAMBDA_PARAMS", "TRY_RESOURCE", "ASSERT_EXPR", "ARRAY_ACCESS_GUARD",
    "SUPER_CALL", "OTHER",
)

# Modifiers that may precede a local variable or local class declaration.
_LOCAL_MODIFIERS = frozenset({"final", "abstract", "static", "strictfp"})

_TYPE_TAGS = {
    "class": "CLASS", "record": "CLASS", "enum": "ENUM", "interface": "INTERFACE",
    "@interface": "INTERFACE",
}

_CAST_NEXT = frozenset({"(", "!", "~", "new", "this", "super"})


class _Tagger:
    def __init__(self, decl: MethodDecl | FieldDecl, first: int, last: int):
        # Nothing past last is walked, so a bracket the declaration leaves
        # open is never paired with one in a later declaration: the walk
        # reads toks[:end], and a statement, tag or tag read past it raises
        # ParseError.  Tags are kept for first..last only, so the work is
        # bounded by the declaration's size, not by its place in the file.
        self.lex = decl.file
        self.toks = decl.file.tokens
        self.kinds = decl.file.kinds
        self.end = last + 1
        self.types = decl.types
        self.base = first
        self.tags: list[str | None] = [None] * (last + 1 - first)

    # -- pair helpers ---------------------------------------------------

    def _tag(self, k: int, tag: str) -> None:
        if k >= self.end:
            raise ParseError(f"tag past the declaration at token {k}")
        self.tags[k - self.base] = tag

    def _tag_of(self, k: int) -> str | None:
        if k >= self.end:
            raise ParseError(f"tag read past the declaration at token {k}")
        return self.tags[k - self.base]

    def _pair(self, open_idx: int, close_idx: int, tag: str) -> None:
        self._tag(open_idx, tag)
        self._tag(close_idx, tag)

    def _paren(self, j: int, tag: str) -> int:
        c = match_paren(self.lex, j, self.end)
        self._pair(j, c, tag)
        return c

    def _brace(self, j: int, tag: str) -> int:
        c = match_brace(self.lex, j, self.end)
        self._pair(j, c, tag)
        return c

    def _annotation(self, j: int, hi: int) -> int:
        """Skip an annotation, tagging its argument parens."""
        toks, kinds = self.toks, self.kinds
        k = j + 1
        while k + 1 < hi and toks[k + 1] == "." and kinds[k] == IDENTIFIER:
            k += 2
        if k < hi and kinds[k] == IDENTIFIER:
            k += 1
        if k < hi and toks[k] == "(":
            c = self._paren(k, "ANNOTATION_ARGS")
            self._expr(k + 1, c, False)
            return c + 1
        return k

    def _annotations(self, lo: int, hi: int) -> None:
        """Tag the annotations among the tokens in [lo, hi)."""
        toks = self.toks
        j = lo
        while j < hi:
            if toks[j] == "@":
                j = self._annotation(j, hi)
            else:
                j += 1

    def _scan_to(self, lo: int, hi: int, stops: tuple[str, ...]) -> int:
        """Index of the first stop token in [lo, hi) outside brackets, or hi.

        A stop counts at depth zero or below, so a stray closer in broken
        input does not carry the scan past the end of its statement.
        """
        toks = self.toks
        depth = 0
        j = lo
        while j < hi:
            txt = toks[j]
            if txt in ("(", "[", "{"):
                depth += 1
            elif txt in (")", "]", "}"):
                depth -= 1
            elif depth <= 0 and txt in stops:
                return j
            j += 1
        return hi

    # -- records of extract's walk ----------------------------------------

    def field(self, decl: FieldDecl) -> None:
        """Tag one variable of a field declaration: the shared head, its
        own initializer and its ',' or ';', which stands for the ';'."""
        m = decl.member
        _, init, end = decl.declarator
        self._annotations(m.start, m.declarators[0][0])
        self._expr(init, end, False)
        self._tag(end, "FIELD")

    def _type(self, rec: TypeDecl, hi: int) -> int:
        """Tag a type declaration in a region ending at hi; returns the
        index after it."""
        stop = rec.end if rec.body_open is None else rec.body_open
        if stop >= hi:
            # extract looked for the body past the end of the enclosing
            # block; only the header lies inside it
            self._annotations(rec.header, hi)
            return hi
        self._annotations(rec.header, stop)
        if rec.body_open is None:
            return stop + 1
        return self._type_body(rec, _TYPE_TAGS[rec.kind])

    def _type_body(self, rec: TypeDecl, tag: str) -> int:
        """Tag a type body: enum constants, then members."""
        self._pair(rec.body_open, rec.end, tag)
        j = rec.body_open + 1
        for const in rec.constants:
            self._annotations(j, const.name)
            j = const.name + 1
            if const.args is not None:
                lo, c = const.args
                self._pair(lo, c, "CONSTRUCTOR_CALL")
                self._expr(lo + 1, c, False)
                j = c + 1
            if const.body is not None:
                j = self._type_body(const.body, "ANONYMOUS_CLASS")
        if rec.kind == "enum":
            semi = rec.end if rec.constants_end is None else rec.constants_end
            self._annotations(j, semi)
            if semi < rec.end:
                self._tag(semi, "ENUM_CONSTANT_LIST")
        for m in rec.members:
            self._member(m, rec.end)
        return rec.end + 1

    def _member(self, m: Member, hi: int) -> None:
        """Tag a member.  Its header annotations run up to its parameter
        list or body (method), its first variable (field), or its keyword or
        block (type, initializer)."""
        if m.kind == "type":
            self._annotations(m.start, m.head)
            self._type(m.type, hi)
        elif m.kind == "initializer":
            self._annotations(m.start, m.head)
            self._pair(m.body, m.end, "STATIC_INIT" if "static" in m.modifiers else "INSTANCE_INIT")
            self._block(m.body + 1, m.end, False)
        elif m.kind == "method":
            self._annotations(m.start, m.body if m.params is None else m.params[0])
            self._callable(m)
        else:
            self._annotations(m.start, m.declarators[0][0])
            for _, init, init_end in m.declarators:
                self._expr(init, init_end, False)
            self._tag(m.end, "FIELD")

    def _callable(self, m: Member) -> None:
        """Tag a method or constructor from its parameter list on."""
        tail = m.body
        if m.params is not None:
            popen, pclose = m.params
            self._pair(popen, pclose, "METHOD_PARAMS")
            self._annotations(popen + 1, pclose)
            tail = pclose + 1
        if m.body is not None:
            self._pair(m.body, m.end, "METHOD_BODY")
            self._annotations(tail, m.body)
            self._block(m.body + 1, m.end, False)
            return
        if m.default is None:
            self._annotations(tail, m.end)
        else:
            lo, hi = m.default
            self._annotations(tail, lo - 1)
            self._expr(lo, hi, False)
        self._tag(m.end, "ABSTRACT_METHOD")

    # -- statements -----------------------------------------------------

    def _block(self, lo: int, hi: int, in_switch: bool) -> None:
        j = lo
        while j < hi:
            j = self._statement(j, hi, in_switch)

    def _statement(self, j: int, hi: int, in_switch: bool) -> int:
        toks, kinds = self.toks, self.kinds
        if j >= self.end:
            # a label that ends the declaration
            raise ParseError(f"statement past the declaration at token {j}")
        txt = toks[j]
        kind = kinds[j]

        if txt == ";":
            self._tag(j, "EMPTY")
            return j + 1

        if txt == "{":
            c = self._brace(j, "PLAIN_BLOCK")
            self._block(j + 1, c, in_switch)
            return c + 1

        if kind == KEYWORD:
            if txt == "if":
                return self._if(j, hi, in_switch)
            if txt == "while":
                c = self._paren(j + 1, "WHILE_COND")
                self._expr(j + 2, c, in_switch)
                return self._body(c + 1, hi, "WHILE", in_switch)
            if txt == "do":
                return self._do(j, hi, in_switch)
            if txt == "for":
                return self._for(j, hi, in_switch)
            if txt == "try":
                return self._try(j, hi, in_switch)
            if txt == "switch":
                return self._switch(j, hi)
            if txt == "synchronized":
                c = self._paren(j + 1, "SYNCHRONIZED_EXPR")
                self._expr(j + 2, c, in_switch)
                return self._body(c + 1, hi, "SYNCHRONIZED", in_switch)
            if txt in ("return", "throw", "assert"):
                tag = {"return": "RETURN", "throw": "THROW", "assert": "ASSERT"}[txt]
                s = self._scan_to(j + 1, hi, (";",))
                self._expr(j + 1, s, in_switch)
                if s < hi:
                    self._tag(s, tag)
                return s + 1
            if txt in ("break", "continue"):
                s = self._scan_to(j + 1, hi, (";",))
                if s < hi:
                    self._tag(s, "BREAK" if txt == "break" else "CONTINUE")
                return s + 1

        if in_switch and kind == IDENTIFIER and txt == "yield":
            s = self._scan_to(j + 1, hi, (";",))
            self._expr(j + 1, s, in_switch)
            if s < hi:
                self._tag(s, "YIELD")
            return s + 1

        # labeled statement
        if kind == IDENTIFIER and j + 1 < hi and toks[j + 1] == ":":
            return self._statement(j + 2, hi, in_switch)

        # annotations and local modifiers, then a declaration or expression
        k = j
        while k < hi:
            tk = toks[k]
            if tk == "@" and not (k + 1 < hi and toks[k + 1] == "interface"):
                k = self._annotation(k, hi)
                continue
            if tk in _LOCAL_MODIFIERS and kinds[k] == KEYWORD:
                k += 1
                continue
            if tk in CONTEXTUAL_MODIFIERS:
                k += 1
                continue
            break
        local = self.types.get(k) if k < hi and toks[k] != "{" else None
        if local is not None:
            return self._type(local, hi)

        s = self._scan_to(j, hi, (";",))
        self._expr(j, s, in_switch)
        if s < hi:
            self._tag(s, self._stmt_semi_tag(k, s))
        return s + 1

    def _stmt_semi_tag(self, lo: int, semi: int) -> str:
        st = scan_type(self.lex, lo, self.end)
        if st is not None:
            end, _ = st
            if end < semi and self.kinds[end] == IDENTIFIER:
                return "LOCAL_VARIABLE"
        return "EXPRESSION"

    def _body(self, j: int, hi: int, tag: str, in_switch: bool) -> int:
        """A statement body: a tagged block or a single statement."""
        if j < hi and self.toks[j] == "{":
            c = self._brace(j, tag)
            self._block(j + 1, c, in_switch)
            return c + 1
        if j >= hi:
            return hi
        return self._statement(j, hi, in_switch)

    def _if(self, j: int, hi: int, in_switch: bool) -> int:
        toks, kinds = self.toks, self.kinds
        c = self._paren(j + 1, "IF_COND")
        self._expr(j + 2, c, in_switch)
        j = self._body(c + 1, hi, "IF", in_switch)
        if j < hi and toks[j] == "else" and kinds[j] == KEYWORD:
            j += 1
            if j < hi and toks[j] == "if" and kinds[j] == KEYWORD:
                return self._if(j, hi, in_switch)
            return self._body(j, hi, "ELSE", in_switch)
        return j

    def _do(self, j: int, hi: int, in_switch: bool) -> int:
        toks = self.toks
        j = self._body(j + 1, hi, "DO", in_switch)
        if j < hi and toks[j] == "while":
            c = self._paren(j + 1, "DO_COND")
            self._expr(j + 2, c, in_switch)
            j = c + 1
            if j < hi and toks[j] == ";":
                self._tag(j, "DO_WHILE")
                j += 1
        return j

    def _for(self, j: int, hi: int, in_switch: bool) -> int:
        toks = self.toks
        popen = j + 1
        pclose = match_paren(self.lex, popen, self.end)
        first = self._scan_to(popen + 1, pclose, (";",))
        if first < pclose:
            self._pair(popen, pclose, "FOR")
            self._tag(first, "FOR_INIT")
            second = self._scan_to(first + 1, pclose, (";",))
            if second < pclose:
                self._tag(second, "FOR_COND")
            self._expr(popen + 1, first, in_switch)
            self._expr(first + 1, min(second, pclose), in_switch)
            if second < pclose:
                self._expr(second + 1, pclose, in_switch)
            return self._body(pclose + 1, hi, "FOR", in_switch)
        self._pair(popen, pclose, "ENHANCED_FOR")
        self._expr(popen + 1, pclose, in_switch)
        return self._body(pclose + 1, hi, "ENHANCED_FOR", in_switch)

    def _try(self, j: int, hi: int, in_switch: bool) -> int:
        toks = self.toks
        j += 1
        if j < hi and toks[j] == "(":
            c = self._paren(j, "TRY_RESOURCE")
            k = j + 1
            while k < c:
                s = self._scan_to(k, c, (";",))
                self._expr(k, s, in_switch)
                if s < c:
                    self._tag(s, "LOCAL_VARIABLE")
                k = s + 1
            j = c + 1
        j = self._body(j, hi, "TRY", in_switch)
        while j < hi and toks[j] == "catch":
            c = self._paren(j + 1, "CATCH_PARAM")
            j = self._body(c + 1, hi, "CATCH", in_switch)
        if j < hi and toks[j] == "finally":
            j = self._body(j + 1, hi, "FINALLY", in_switch)
        return j

    def _switch(self, j: int, hi: int) -> int:
        toks = self.toks
        c = self._paren(j + 1, "SWITCH_SELECTOR")
        self._expr(j + 2, c, False)
        j = c + 1
        if j < hi and toks[j] == "{":
            b = self._brace(j, "SWITCH")
            self._switch_body(j + 1, b)
            return b + 1
        return j

    def _switch_body(self, lo: int, hi: int) -> None:
        toks, kinds = self.toks, self.kinds
        j = lo
        while j < hi:
            t = toks[j]
            if kinds[j] == KEYWORD and t == "case":
                k = self._scan_to(j + 1, hi, (":", "->"))
                self._expr(j + 1, k, True)
                j = k + 1 if k < hi else hi
                continue
            if kinds[j] == KEYWORD and t == "default" and j + 1 < hi and toks[j + 1] in (":", "->"):
                j += 2
                continue
            j = self._statement(j, hi, True)

    # -- expressions ------------------------------------------------------

    def _expr(self, lo: int, hi: int, in_switch: bool) -> None:
        toks, kinds = self.toks, self.kinds
        j = lo
        while j < hi:
            txt = toks[j]

            if txt == "(":
                if self._tag_of(j) is None:
                    self._classify_paren(j, lo)
                j += 1
                continue

            if txt == "{":
                if self._tag_of(j) is not None:
                    j += 1
                    continue
                if j > lo and toks[j - 1] == "->":
                    c = self._brace(j, "LAMBDA_BODY")
                    self._block(j + 1, c, False)
                    j = c + 1
                    continue
                self._brace(j, "ARRAY_INITIALIZER")
                j += 1
                continue

            if txt == "new":
                j = self._new_expr(j, hi)
                continue

            if txt == "@":
                j = self._annotation(j, hi)
                continue

            if txt == "switch" and kinds[j] == KEYWORD:
                j = self._switch(j, hi)
                continue

            if txt == "<" and j > lo and kinds[j - 1] == IDENTIFIER:
                g = match_angle(self.lex, j, self.end)
                if g is not None and g < hi and toks[g] in ("(", "::"):
                    if toks[g] == "(":
                        self._paren(g, "METHOD_CALL")
                    j = g + 1
                    continue

            j += 1

    def _classify_paren(self, j: int, lo: int) -> None:
        toks, kinds = self.toks, self.kinds
        c = match_paren(self.lex, j, self.end)
        if c + 1 < self.end and toks[c + 1] == "->":
            self._pair(j, c, "LAMBDA_PARAMS")
            return
        if j > lo:
            prev, prev_kind = toks[j - 1], kinds[j - 1]
            if prev_kind == KEYWORD and prev in ("super", "this"):
                self._pair(j, c, "SUPER_CALL")
                return
            if prev_kind == IDENTIFIER:
                self._pair(j, c, "METHOD_CALL")
                return
            if prev == ")":
                tag = "GROUPING" if self._tag_of(j - 1) == "CAST" else "METHOD_CALL"
                self._pair(j, c, tag)
                return
        if self._is_cast(j, c):
            self._pair(j, c, "CAST")
            return
        self._pair(j, c, "GROUPING")

    def _is_cast(self, j: int, c: int) -> bool:
        toks, kinds = self.toks, self.kinds
        if c + 1 >= self.end:
            return False
        k = j + 1
        primitive = False
        while True:
            st = scan_type(self.lex, k, self.end)
            if st is None:
                return False
            if toks[k] in PRIMITIVE_TYPES:
                primitive = True
            k = st[0]
            if k == c:
                break
            if toks[k] == "&":
                k += 1
                continue
            return False
        nxt = toks[c + 1]
        if kinds[c + 1] in (IDENTIFIER, LITERAL):
            return True
        if nxt in _CAST_NEXT:
            return True
        if primitive and nxt in ("-", "+"):
            return True
        return False

    def _new_expr(self, j: int, hi: int) -> int:
        toks, kinds = self.toks, self.kinds
        k = j + 1
        while k < hi and toks[k] == "@":
            k = self._annotation(k, hi)
        if k < hi and toks[k] in PRIMITIVE_TYPES:
            return k + 1
        if k >= hi or kinds[k] != IDENTIFIER:
            return j + 1
        k += 1
        g = match_angle(self.lex, k, self.end) if k < hi and toks[k] == "<" else None
        if g is not None:
            k = g
        while k + 1 < hi and toks[k] == "." and kinds[k + 1] == IDENTIFIER:
            k += 2
            g = match_angle(self.lex, k, self.end) if k < hi and toks[k] == "<" else None
            if g is not None:
                k = g
        if k < hi and toks[k] == "(":
            c = self._paren(k, "CONSTRUCTOR_CALL")
            self._expr(k + 1, c, False)
            if c + 1 < hi and toks[c + 1] == "{":
                body = self.types.get(c + 1)
                if body is not None:
                    return self._type_body(body, "ANONYMOUS_CLASS")
            return c + 1
        return k


def categorize(decl: MethodDecl | FieldDecl) -> list[str | None]:
    """Role tags for every terminator token of the declaration.

    Always total: every ';', brace, and paren token receives a tag, falling
    back to a generic one where the walker could not classify.
    """
    m = decl.member
    if isinstance(decl, MethodDecl):
        indices = range(m.start, m.end + 1)
    else:
        lo, _, end = decl.declarator
        indices = [*range(m.start, m.declarators[0][0]), *range(lo, end), end]
    tagger = _Tagger(decl, indices[0], indices[-1])
    try:
        if isinstance(decl, MethodDecl):
            tagger._member(m, m.end + 1)
        else:
            tagger.field(decl)
    except ParseError:
        pass
    tags = [tagger._tag_of(k) for k in indices]
    for i, tok in enumerate(decl.tokens):
        if tags[i] is not None:
            continue
        if tok == ";":
            tags[i] = "OTHER"
        elif tok in ("{", "}"):
            tags[i] = "PLAIN_BLOCK"
        elif tok in ("(", ")"):
            tags[i] = "OTHER"
    return tags


def elided_indices(decl: MethodDecl | FieldDecl) -> frozenset[int]:
    """Token indices removed by the delimiter-elision heuristic."""
    if not isinstance(decl, MethodDecl):
        return frozenset()
    m = decl.member
    drop = set(m.params or ())
    if m.body is not None:
        drop.update((m.body, m.end))
    return frozenset(i - m.start for i in drop)


def render(decl: MethodDecl | FieldDecl, config: RenderConfig) -> bytes:
    """File content for a declaration.

    Every line is LF-terminated; there is no trailing blank line.  Tagged
    terminator lines are '<token> <TAG>'.
    """
    lines = list(decl.javadoc_lines)
    if config.line_format is LineFormat.PLAIN:
        lines.extend(decl.plain_lines)
    else:
        tags = categorize(decl) if config.heuristic1 else None
        drop = elided_indices(decl) if config.heuristic2 else frozenset()
        for i, tok in enumerate(decl.tokens):
            if i in drop:
                continue
            if tags is not None and tags[i] is not None:
                lines.append(f"{tok} {tags[i]}")
            else:
                lines.append(tok)
    return "".join(line + "\n" for line in lines).encode("utf-8")
