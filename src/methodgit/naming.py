"""File names for extracted method and field declarations."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import NameError_
from .extract import FieldDecl, MethodDecl

METHOD_EXT = ".mjava"
FIELD_EXT = ".fjava"

_MIN_BUDGET = 32


@dataclass(frozen=True)
class NamePolicy:
    """The byte budget of a generated file name."""

    max_file_name_bytes: int = 255

    def __post_init__(self) -> None:
        if self.max_file_name_bytes < _MIN_BUDGET:
            raise NameError_(
                f"max_file_name_bytes must be at least {_MIN_BUDGET}, "
                f"got {self.max_file_name_bytes}"
            )


def join_chain(chain: list[str]) -> str:
    """Join class chain elements with '$'; anonymous '$k' elements already
    carry their separator."""
    if not chain:
        return ""
    out = chain[0]
    for el in chain[1:]:
        out += el if el.startswith("$") else "$" + el
    return out


def _clean(type_text: str) -> str:
    return "".join(type_text.split())


def shorten(base: str, policy: NamePolicy, ext: str) -> str:
    """base + ext, truncated to the policy's byte budget.

    Over-long names are cut at a UTF-8 boundary and suffixed with '_' plus
    the first 8 hex digits of the SHA-256 of the full base name, so distinct
    long names stay distinct.
    """
    full = base + ext
    if len(full.encode("utf-8")) <= policy.max_file_name_bytes:
        return full
    digest = hashlib.sha256(base.encode("utf-8")).hexdigest()[:8]
    budget = policy.max_file_name_bytes - len(ext.encode("utf-8")) - 9
    raw = base.encode("utf-8")[:budget]
    head = raw.decode("utf-8", errors="ignore")
    return f"{head}_{digest}{ext}"


def method_base_name(decl: MethodDecl) -> str:
    segments = list(decl.modifiers)
    if decl.return_type:
        segments.append(_clean(decl.return_type))
    params = ",".join(_clean(p) for p in decl.param_types)
    segments.append(f"{decl.name}({params})")
    return f"{join_chain(decl.class_chain)}#{'_'.join(segments)}"


def field_base_name(decl: FieldDecl) -> str:
    segments = list(decl.modifiers)
    segments.append(_clean(decl.field_type))
    segments.append(decl.name)
    return f"{join_chain(decl.class_chain)}#{'_'.join(segments)}"


def method_file_name(decl: MethodDecl, policy: NamePolicy | None = None) -> str:
    return shorten(method_base_name(decl), policy or NamePolicy(), METHOD_EXT)


def field_file_name(decl: FieldDecl, policy: NamePolicy | None = None) -> str:
    return shorten(field_base_name(decl), policy or NamePolicy(), FIELD_EXT)
