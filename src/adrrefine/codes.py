"""Hierarchical clinical code handling and item normalization.

Two code systems appear in the event data: 5-character diagnosis codes
whose trailing dots mark unused positions (more leading characters =
more specific), and 4-part dotted drug-classification codes whose
trailing zeros play the same role. Mining does not use the raw codes
directly; every event is normalized to a coarsened "item": diagnosis
codes truncated to level 3, drug codes truncated to level 2, and gender
as a dedicated item kind.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ParseError

READ_LENGTH = 5
READ_NORMALIZE_LEVEL = 3
BNF_PARTS = 4
BNF_NORMALIZE_LEVEL = 2

# Upper/lower Latin letters plus digits; '.' is the filler for unused positions.
_READ_ALPHABET = frozenset(string.ascii_letters + string.digits)


class ItemKind(str, Enum):
    READ = "READ"
    BNF = "BNF"
    GENDER = "GENDER"


@dataclass(frozen=True, slots=True)
class ReadCode:
    """A 5-character diagnosis code; dots form a contiguous suffix."""

    chars: str

    def __post_init__(self):
        c = self.chars
        if len(c) != READ_LENGTH:
            raise ParseError(f"read code must have exactly {READ_LENGTH} characters: {c!r}")
        seen_dot = False
        for ch in c:
            if ch == ".":
                seen_dot = True
            elif ch in _READ_ALPHABET:
                if seen_dot:
                    raise ParseError(f"read code has a dot before a non-dot character: {c!r}")
            else:
                raise ParseError(f"read code contains invalid character {ch!r}: {c!r}")
        if c[0] == ".":
            raise ParseError(f"read code must have at least one non-dot character: {c!r}")

    def __str__(self) -> str:
        return self.chars


@dataclass(frozen=True, slots=True)
class BnfCode:
    """A 4-part drug classification code; zeros form a contiguous suffix."""

    parts: tuple[int, int, int, int]

    def __post_init__(self):
        p = self.parts
        if len(p) != BNF_PARTS:
            raise ParseError(f"bnf code must have exactly {BNF_PARTS} parts: {p!r}")
        if any(not isinstance(v, int) or v < 0 for v in p):
            raise ParseError(f"bnf code parts must be non-negative integers: {p!r}")
        if p[0] == 0:
            raise ParseError(f"bnf code first part must be positive: {p!r}")
        seen_zero = False
        for v in p:
            if v == 0:
                seen_zero = True
            elif seen_zero:
                raise ParseError(f"bnf code has a zero before a non-zero part: {p!r}")

    def __str__(self) -> str:
        return ".".join(str(v) for v in self.parts)


@dataclass(frozen=True, slots=True)
class Item:
    """A canonical mining item. Equal items compare equal byte-wise via token."""

    kind: ItemKind
    value: str

    @property
    def token(self) -> str:
        """Serialized form. Gender carries a namespace prefix so it can
        never collide with a code; code tokens are self-identifying."""
        if self.kind is ItemKind.GENDER:
            return f"GENDER:{self.value}"
        return self.value

    def __str__(self) -> str:
        return self.token


def _text(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a string: {value!r}")
    return value


def parse_read(text: str) -> ReadCode:
    """Parse a diagnosis code string, e.g. "A11zz" or "A11.."."""
    return ReadCode(_text(text, "read code"))


def parse_bnf(text: str) -> BnfCode:
    """Parse a dotted drug code string, e.g. "5.1.12.3"."""
    pieces = _text(text, "bnf code").split(".")
    if len(pieces) != BNF_PARTS:
        raise ParseError(f"bnf code must have {BNF_PARTS} dot-separated parts: {text!r}")
    try:
        parts = tuple(int(p) for p in pieces)
    except ValueError:
        raise ParseError(f"bnf code parts must be integers: {text!r}") from None
    return BnfCode(parts)  # type: ignore[arg-type]


def read_level(code: ReadCode) -> int:
    """Level of a diagnosis code: the largest 1-based position holding a
    non-dot character."""
    level = 0
    for i, ch in enumerate(code.chars):
        if ch != ".":
            level = i + 1
    return level


def read_parent(code: ReadCode) -> ReadCode:
    """Direct parent: the last significant character replaced by a dot."""
    level = read_level(code)
    if level < 2:
        raise DomainError(f"level-1 read code has no parent: {code}")
    chars = code.chars[: level - 1] + "." * (READ_LENGTH - level + 1)
    return ReadCode(chars)


def read_truncate(code: ReadCode, k: int) -> ReadCode:
    """Level-k form of a diagnosis code: positions beyond k become dots.
    Truncating above the code's own level is the identity."""
    if not 1 <= k <= READ_LENGTH:
        raise DomainError(f"read truncation level must be in [1, {READ_LENGTH}]: {k}")
    chars = code.chars[:k] + "." * (READ_LENGTH - k)
    return ReadCode(chars)


def bnf_level(code: BnfCode) -> int:
    """Level of a drug code: the largest 1-based position holding a
    non-zero part."""
    level = 0
    for i, v in enumerate(code.parts):
        if v != 0:
            level = i + 1
    return level


def bnf_truncate(code: BnfCode, k: int) -> BnfCode:
    """Level-k form of a drug code: parts beyond k become zero."""
    if not 1 <= k <= BNF_PARTS:
        raise DomainError(f"bnf truncation level must be in [1, {BNF_PARTS}]: {k}")
    parts = code.parts[:k] + (0,) * (BNF_PARTS - k)
    return BnfCode(parts)  # type: ignore[arg-type]


def code_item(code: ReadCode | BnfCode) -> Item:
    """Mining item of a parsed code: diagnosis at level 3, drug at level 2."""
    if isinstance(code, ReadCode):
        return Item(ItemKind.READ, str(read_truncate(code, READ_NORMALIZE_LEVEL)))
    return Item(ItemKind.BNF, str(bnf_truncate(code, BNF_NORMALIZE_LEVEL)))


def parse_code(code_type: str, code: str) -> ReadCode | BnfCode:
    """Parse a raw event code by its type: the one READ/BNF dispatch."""
    if code_type == "READ":
        return parse_read(code)
    if code_type == "BNF":
        return parse_bnf(code)
    raise ParseError(f"code_type must be READ or BNF: {code_type!r}")


def gender_item(gender: str) -> Item:
    if gender not in ("M", "F"):
        raise ParseError(f"gender must be M or F: {gender!r}")
    return Item(ItemKind.GENDER, gender)


def normalize_item(code_type: str, code: str) -> Item:
    """Normalize a raw coded event into its canonical mining item.

    Diagnosis codes map to their level-3 form, drug codes to their
    level-2 form. Raises ParseError for unparseable input.
    """
    return code_item(parse_code(code_type, code))


def parse_item(token: str) -> Item:
    """Inverse of Item.token; round-trips any canonical item string."""
    if _text(token, "item").startswith("GENDER:"):
        return gender_item(token[len("GENDER:"):])
    code = parse_bnf(token) if "." in token and len(token) != READ_LENGTH else parse_read(token)
    item = code_item(code)
    if item.value != str(code):
        levels = f"diagnosis level {READ_NORMALIZE_LEVEL}, drug level {BNF_NORMALIZE_LEVEL}"
        raise ParseError(f"item is deeper than its normalized level ({levels}): {token!r}")
    return item
