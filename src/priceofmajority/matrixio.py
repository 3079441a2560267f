"""Text serialization of voter matrices.

One voter per line as a Y/N string, optionally prefixed with an integer
multiplicity ("3x YNN"). '#' starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .core import ParameterError, VoterMatrix, VoterRow, parse_opinions

_LINE = re.compile(r"^(?:(\d+)\s*x\s+)?([YN]+)$")


class MatrixFormatError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_matrix(text: str) -> VoterMatrix:
    rows = []
    t = None
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
        mask, row_t = parse_opinions(m.group(2))
        if t is None:
            t = row_t
        elif row_t != t:
            raise MatrixFormatError(
                f"row has {row_t} topics, earlier rows have {t}", line_number
            )
        try:
            rows.append(VoterRow(mask, row_t, weight))
        except ParameterError as exc:
            raise MatrixFormatError(str(exc), line_number) from exc
    if not rows:
        raise MatrixFormatError("no voter rows found", 0)
    return VoterMatrix(t, tuple(rows))


def write_matrix(matrix: VoterMatrix, header: str | None = None) -> str:
    """Serialize; rational weights are cleared to integers by a common scale.

    The scale factor, when not 1, is recorded in a header comment so the file
    remains a faithful (scaled) copy of the original weighted matrix.
    """
    scaled, scale = scale_to_integer_weights(matrix)
    lines = []
    if header:
        lines.append(f"# {header}")
    if scale != 1:
        lines.append(f"# weights scaled by {scale} to clear denominators")
    for row in scaled.rows:
        text = row.to_string()
        lines.append(text if row.weight == 1 else f"{row.weight}x {text}")
    return "\n".join(lines) + "\n"


def scale_to_integer_weights(matrix: VoterMatrix) -> tuple[VoterMatrix, int]:
    """Smallest integer multiple making all row weights integral."""
    if matrix.has_integer_weights():
        return matrix, 1
    scale = math.lcm(*(Fraction(row.weight).denominator for row in matrix.rows))
    rows = tuple(
        VoterRow(r.mask, r.t, int(Fraction(r.weight) * scale)) for r in matrix.rows
    )
    return VoterMatrix(matrix.t, rows), scale
