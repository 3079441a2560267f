"""Text serialization of voter matrices.

One voter per line as a Y/N string, optionally prefixed with an integer
multiplicity ("3x YNN"). '#' starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import re

from .core import ParameterError, ShapeError, VoterMatrix, VoterRow, parse_opinions

_LINE = re.compile(r"^(?:(\d+)\s*x\s+)?(\S+)$")  # parse_opinions checks the characters


class MatrixFormatError(ValueError):
    def __init__(self, message: str, line_number: int | None = None):  # None: no one line
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


def parse_matrix(text: str) -> VoterMatrix:
    rows, line_numbers = [], []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.match(line)
        if m is None:
            raise MatrixFormatError(
                "expected an optional 'COUNTx ' prefix followed by a Y/N string",
                line_number,
            )
        weight = int(m.group(1)) if m.group(1) else 1
        try:
            rows.append(VoterRow(*parse_opinions(m.group(2)), weight))
        except ParameterError as exc:
            raise MatrixFormatError(str(exc), line_number) from exc
        line_numbers.append(line_number)
    if not rows:
        raise MatrixFormatError("no voter rows found")
    try:  # the matrix owns the shape rule: every row has the first row's topics
        return VoterMatrix(rows[0].t, tuple(rows))
    except ShapeError as exc:
        raise MatrixFormatError(str(exc), line_numbers[exc.index]) from exc


def write_matrix(matrix: VoterMatrix, header: str | None = None) -> str:
    lines = [f"# {header}"] if header else []
    for row in matrix.rows:
        text = row.to_string()
        lines.append(text if row.weight == 1 else f"{row.weight}x {text}")
    return "\n".join(lines) + "\n"
