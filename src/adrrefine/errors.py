"""Exception types shared across the package, the one way inputs are opened
and read, the one way a bad input value becomes a ParseError, the one check
of the `workers` keyword, and the one test and checks of integer values.

The CLI maps these onto exit codes: DomainError (and subclasses) -> 1,
ParseError and I/O failures -> 2.

Readers convert what they read through `checked`, or a block at a time
through `converted`, which re-runs a failed block's conversion row by row:
any of `INPUT_FAULTS` raised while converting a CSV row or a JSON value
becomes a ParseError with the file and, for CSV, the line. JSON values are taken through
`json_list`, `json_int` and `json_number`, which name the field they
reject. A ConfigError raised by validating a converted configuration is
not a conversion fault and keeps its exit code 1.
"""

import csv
import io
import json
import numbers
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from itertools import chain, islice, repeat
from typing import Any, TextIO

# Characters of CSV text read at a time by `csv_columns`, then extended to
# the end of the line.
_CSV_BLOCK_CHARS = 1 << 16


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


def integral(value: Any) -> bool:
    """True for an int or numpy integer; a bool is not a count or a size."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integers(what: str, *values: Any) -> None:
    """A DomainError naming `what` for the first value that is not `integral`."""
    if bad := [value for value in values if not integral(value)]:
        raise DomainError(f"{what} must be integers: {bad[0]!r}")


def check_setting(name: str, value: Any) -> None:
    """A ConfigError naming `name` unless `value` is `integral` and >= 0."""
    if not integral(value):
        raise ConfigError(f"{name} must be an integer: {value!r}")
    if value < 0:
        raise ConfigError(f"{name} must be >= 0: {value}")


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


# The exceptions converting a value read from an input may raise: a
# missing key or index, a value of the wrong type or form, a number out of
# range, a malformed code (ParseError) or a broken invariant (DomainError).
INPUT_FAULTS = (LookupError, TypeError, ValueError, OverflowError, ParseError, DomainError)


def checked(
    rows: Iterable[tuple[int | None, Any]], convert: Callable, source: str, prefix: str = ""
) -> Iterator:
    """`convert(row)` for each `(line, row)`, line None for a JSON value.
    The first conversion that raises one of `INPUT_FAULTS` is a ParseError
    of `prefix` and its message, with `source` and the line."""
    for line, row in rows:
        try:
            value = convert(row)
        except INPUT_FAULTS as exc:
            raise ParseError(prefix + str(exc), source=source, line=line) from None
        yield value


def converted(convert: Callable, block: Any, rows: Iterable, source: str, prefix: str = "") -> Any:
    """`convert(block)`; when that raises one of `INPUT_FAULTS`, `convert`
    of each of the block's `rows` by itself, in order, so the first bad
    row raises its own message as `checked` does. A `convert` that fails
    keeps nothing but caches of the values it did convert."""
    try:
        return convert(block)
    except INPUT_FAULTS:
        list(checked(rows, convert, source, prefix))  # raises at the first bad row
    raise AssertionError("a block failed but none of its rows")


def read_json(path: str) -> Any:
    """The value of a JSON file; text that is not JSON, an integer with
    more digits than Python converts, or nesting deeper than the parser
    recurses is a ParseError naming the file."""
    with open_input(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc), source=path) from None


def json_list(value: Any, field: str) -> list:
    """`value` if it is a JSON list, else a TypeError naming `field` and the
    JSON type it holds."""
    if not isinstance(value, list):
        kind = {dict: "an object", str: "a string", bool: "a boolean", type(None): "null"}
        raise TypeError(f"{field} must be a list, not {kind.get(type(value), 'a number')}")
    return value


def json_int(obj: dict, key: str) -> int:
    """`obj[key]` when it is a JSON integer; a bool, string or fraction is
    a TypeError naming `key`."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {json.dumps(value)}")
    return value


def json_number(obj: dict, key: str) -> float:
    """`obj[key]` as a float when it is a JSON number; a bool or string is
    a TypeError and an integer too large for a float a ValueError, each
    naming `key`."""
    value = obj[key]
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a number, not {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise ValueError(f"{key} must fit a float, not an integer of {digits} digits") from None


def column_values(known: dict, values: Sequence, add: Callable) -> list:
    """`known[value]` for each value. A value not yet known is added first
    as `add(value)`, once per distinct value, in first-seen order."""
    try:
        return list(map(known.__getitem__, values))
    except KeyError:
        for value in dict.fromkeys(values):
            if value not in known:
                known[value] = add(value)
        return list(map(known.__getitem__, values))


class CsvBlock:
    """Consecutive records of a CSV file, after its header.

    `first` is the line number of the first record. `columns` holds the
    fields of the non-blank records, one list per header column, or is
    None when some record does not have one field per column. `rows()`
    checks and gives those records one at a time, and `row_columns()`
    gives each as columns of one field.
    """

    __slots__ = ("path", "first", "width", "columns", "_records")

    def __init__(self, path: str, first: int, width: int, records: list, columns: list | None):
        self.path = path
        self.first = first
        self.width = width
        self.columns = columns
        self._records = records  # lines of the split path, or csv.reader records

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        """The non-blank records, each with its line number; a record
        without one field per column is a ParseError."""
        for line, record in enumerate(self._records, self.first):
            if record:
                row = _fields(record)
                if len(row) != self.width:
                    message = f"expected {self.width} fields, got {len(row)}"
                    raise ParseError(message, source=self.path, line=line)
                yield line, row

    def row_columns(self) -> Iterator[tuple[int, list[list[str]]]]:
        return ((line, [[field] for field in row]) for line, row in self.rows())


def _split_lines(text: str, width: int) -> list[str] | None:
    """The lines of whole-line text, blank ones included, when splitting
    each on commas reads it as `csv.reader` does: the text has no `"` and
    no `\r` outside `\r\n`, each non-blank line has `width - 1` commas,
    and no line is longer than the csv module's field limit. Else None."""
    if '"' in text:
        return None
    newline = "\n"
    if "\r" in text:
        crlf = text.count("\r\n")
        if text.count("\r") != crlf:
            return None
        if text.count("\n") == crlf:
            newline = "\r\n"
        else:
            text = text.replace("\r\n", "\n")
    lines = text.split(newline)  # not `splitlines`, which also splits on \x0b, \x1c, ...
    if not lines[-1]:
        lines.pop()  # the text's last newline ends a line and starts none
    rows = [line for line in lines if line] if "" in lines else lines
    if set(map(str.count, rows, repeat(","))) - {width - 1}:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, rows), default=0) > limit:
        return None
    return lines


def _fields(record: str | list[str]) -> list[str]:
    """The fields of a split-path line or a csv.reader record."""
    return record.split(",") if isinstance(record, str) else record


def _columns(rows: list, width: int) -> list | None:
    """The columns of non-blank records, all split-path lines or all
    csv.reader records, or None if some record is not `width` long."""
    if isinstance(rows[0], str):
        fields = ",".join(rows).split(",")
        return [fields[j::width] for j in range(width)]
    if set(map(len, rows)) != {width}:
        return None
    return [list(column) for column in zip(*rows)]


def csv_columns(path: str, header: list[str]) -> Iterator[CsvBlock]:
    """The records after a CSV file's header, as blocks of columns.

    The file is opened once and read a block of whole lines at a time. A
    block that `_split_lines` accepts becomes columns by splitting its
    lines on commas, which reads it exactly as `csv.reader` would. The
    first block it does not accept, and the rest of the file after it,
    go through `csv.reader`, so quoted fields may hold commas and span
    lines. Records are numbered from the header's 1, blank ones
    included; a block of blank records only is skipped. A header other
    than `header` is a ParseError at line 1. A record the csv module
    cannot read is a ParseError with the file and line, raised after the
    block of the records before it.
    """
    width = len(header)
    read = 0  # records read so far, the header's included

    def block(records: list) -> CsvBlock | None:
        nonlocal read
        if not read:
            if not records or _fields(records[0]) != header:
                raise ParseError(f"expected header {','.join(header)}", source=path, line=1)
            records = records[1:]
            read = 1
        first, read = read + 1, read + len(records)
        rows = list(filter(None, records))
        if not rows:
            return None
        return CsvBlock(path, first, width, records, _columns(rows, width))

    with open_input(path, newline="") as fh:
        while True:
            text = fh.read(_CSV_BLOCK_CHARS)
            if not text.endswith("\n"):
                text += fh.readline()  # to the end of the line; "\n" after a "\r"
            lines = _split_lines(text, width)
            if lines is None:
                break
            if not lines and read:
                return
            if (found := block(lines)) is not None:
                yield found
        reader = csv.reader(chain(io.StringIO(text, newline=""), fh))
        size = text.count("\n") + 1  # records per block
        while True:
            records, error = [], None
            try:
                records.extend(islice(reader, size))  # keeps the records before a csv.Error
            except csv.Error as exc:
                error = ParseError(str(exc), source=path, line=read + len(records) + 1)
            if records or (error is None and not read):
                if (found := block(records)) is not None:
                    yield found
            if error is not None:
                raise error
            if not records:
                return


def csv_rows(path: str, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank records after a CSV file's header, each with its line
    number, read and checked as `csv_columns` and `CsvBlock.rows` do."""
    for block in csv_columns(path, header):
        yield from block.rows()
