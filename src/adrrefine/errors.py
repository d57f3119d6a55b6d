"""Exception types shared across the package, the one way inputs are opened
and read, and the one check of the `workers` keyword.

The CLI maps these onto exit codes: DomainError (and subclasses) -> 1,
ParseError and I/O failures -> 2.
"""

import csv
import json
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import islice
from typing import Any, TextIO

# CSV records read at a time by `csv_blocks`.
_CSV_BLOCK = 4096


class AdrRefineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AdrRefineError):
    """A request that is well-formed but has no defined answer
    (e.g. parent of a level-1 code, risk with zero exposures)."""


class ConfigError(DomainError):
    """An invalid configuration value (bad probability, empty catalog, ...)."""


def check_workers(workers: int | None) -> None:
    """Reject a `workers` value below 1; None and any count from 1 up pass.

    The library runs on the caller's thread, so the value has no other
    effect: numpy's BLAS threads (`OPENBLAS_NUM_THREADS`) are the only
    parallelism.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1: {workers}")


class ParseError(AdrRefineError):
    """Malformed input data. Carries optional source location context."""

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        if line is not None:
            prefix = f"{source or 'input'}:{line}: "
            message = prefix + message
        elif source is not None:
            message = f"{source}: {message}"
        super().__init__(message)


@contextmanager
def open_input(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text. Bytes that are not UTF-8, met
    anywhere while the file is read, raise a ParseError naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end].hex(" ")
        raise ParseError(f"not UTF-8 text: cannot decode byte(s) {bad}", source=path) from None


def read_json(path: str) -> Any:
    """The value of a JSON file; text that is not JSON is a ParseError
    naming the file."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), source=path) from None


def json_list(value: Any, field: str) -> list:
    """`value` if it is a JSON list, else a TypeError naming `field` and the
    JSON type it holds."""
    if not isinstance(value, list):
        kind = {dict: "an object", str: "a string", bool: "a boolean", type(None): "null"}
        raise TypeError(f"{field} must be a list, not {kind.get(type(value), 'a number')}")
    return value


def csv_blocks(path: str, header: list[str]) -> Iterator[tuple[int, list[list[str]]]]:
    """The records after a CSV file's header, a block at a time, each block
    with the line number of its first record. Records are numbered from
    the header's 1, blank ones (empty lists) included. A header other than
    `header`, or a record the csv module cannot read, is a ParseError with
    the file and line."""
    line, block = 0, []
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != header:
                raise ParseError(f"expected header {','.join(header)}", source=path, line=1)
            line = 1
            while True:
                block = []
                block.extend(islice(reader, _CSV_BLOCK))  # keeps the records before a csv.Error
                if not block:
                    return
                yield line + 1, block
                line += len(block)
        except csv.Error as exc:
            raise ParseError(str(exc), source=path, line=line + len(block) + 1) from None


def block_rows(
    path: str, first: int, block: list[list[str]], width: int
) -> Iterator[tuple[int, list[str]]]:
    """The non-blank records of a block from `csv_blocks`, each with its
    line number; a record without `width` fields is a ParseError."""
    for line, row in enumerate(block, first):
        if row:
            if len(row) != width:
                message = f"expected {width} fields, got {len(row)}"
                raise ParseError(message, source=path, line=line)
            yield line, row


def csv_rows(path: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank records after a CSV file's header, each with its line
    number, checked as `csv_blocks` and `block_rows` check them."""
    for first, block in csv_blocks(path, header):
        yield from block_rows(path, first, block, len(header))
