"""Domain model for multi-topic binary voting.

Voters and proposals are vectors of binary opinions (Y/N) over ``t`` topics,
stored as bitmasks with Y=1 (bit ``i`` is topic ``i+1``); masks are Python
ints, so t has no width limit. A voter matrix is a weighted multiset of
voter rows with positive integer weights; all quantities defined here depend
only on that multiset, so ``w`` identical rows and one row with weight ``w``
are interchangeable, and none changes when every weight is scaled by one
factor (a construction with rational voter masses clears their denominators).

All types are immutable and all operations are pure functions, so values can
be freely shared between threads. A matrix counts its column sums at most once,
on their first read (:attr:`VoterMatrix.y_weights`); a concurrent first read
computes the same value, so which thread stores it does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

ENUMERATION_TOPIC_CAP = 20  # largest t of a call that enumerates or materialises up to 2^t items


class ParameterError(ValueError):
    """A parameter is outside the range an operation is defined for."""


class ShapeError(ParameterError):
    """A row's topic count differs from its matrix's; ``index`` is the row's position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class ResourceLimitError(RuntimeError):
    """The instance is too large for the requested (usually exhaustive) method."""


_DELETE_YN = str.maketrans("", "", "YN")
_Y_AS_BIT = str.maketrans("YN", "10")


def parse_opinions(text: str) -> tuple[int, int]:
    """Parse a Y/N string into ``(mask, t)`` with Y=1 at bit ``i`` for topic ``i+1``."""
    # validated first: int() would also take '_' and whitespace
    rest = text.translate(_DELETE_YN)
    if rest:
        raise ParameterError(f"invalid opinion character {rest[0]!r} (expected Y or N)")
    # topic 1 is the lowest bit, so the last character is the leading digit
    return int(text[::-1].translate(_Y_AS_BIT) or "0", 2), len(text)


def opinions_to_string(mask: int, t: int) -> str:
    return "".join("Y" if mask >> i & 1 else "N" for i in range(t))


def check_topics(t: int) -> None:
    """Raise ParameterError unless t >= 1: the one owner of that rule."""
    if t < 1:
        raise ParameterError(f"t must be at least 1, got {t}")


def check_enumeration(t: int, what: str) -> None:
    """Raise ResourceLimitError when t > ENUMERATION_TOPIC_CAP; ``what`` names the
    call that would enumerate or materialise up to 2^t items."""
    if t > ENUMERATION_TOPIC_CAP:
        raise ResourceLimitError(
            f"{what} enumerates up to 2^t items; t={t} exceeds {ENUMERATION_TOPIC_CAP}"
        )


@dataclass(frozen=True)
class OpinionVector:
    """One binary opinion per topic: the common shape of proposals and voters."""

    mask: int
    t: int
    _noun = "opinion"  # names the vector in its error messages

    def __post_init__(self):
        check_topics(self.t)
        if not 0 <= self.mask < 1 << self.t:
            raise ParameterError(f"{self._noun} mask has bits outside the topic range")

    @property
    def ones_count(self) -> int:
        return self.mask.bit_count()

    def to_string(self) -> str:
        return opinions_to_string(self.mask, self.t)


@dataclass(frozen=True)
class Proposal(OpinionVector):
    """A candidate compromise.

    A proposal with exactly ``k`` Ys is called a k-proposal.
    """

    _noun = "proposal"

    @classmethod
    def from_string(cls, text: str) -> "Proposal":
        return cls(*parse_opinions(text))

    def opposite(self) -> "Proposal":
        return Proposal(self.mask ^ ((1 << self.t) - 1), self.t)


@dataclass(frozen=True)
class VoterRow(OpinionVector):
    """A voter opinion vector with a positive integer multiplicity.

    A row with exactly ``l`` Ys is called an l-voter.
    """

    weight: int = 1
    _noun = "voter"

    def __post_init__(self):
        OpinionVector.__post_init__(self)  # direct: the super() lookup slows every row
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ParameterError("row weight must be a positive int")


@dataclass(frozen=True)
class VoterMatrix:
    """A weighted multiset of voter rows over ``t`` topics.

    ``n`` is the total voter weight and ``y_weights`` the Y-weight of each
    topic, counted on first read and then kept (not a field: equality, hash
    and repr ignore it). In canonical form every column has Y-weight >=
    N-weight (Y is the weak majority opinion on every topic); see
    :func:`canonicalize`.
    """

    t: int
    rows: tuple[VoterRow, ...]
    n: int = field(init=False)

    def __post_init__(self):
        check_topics(self.t)
        object.__setattr__(self, "rows", tuple(self.rows))  # before the checks read them
        if not self.rows:
            raise ParameterError("voter matrix needs at least one row")
        for index, row in enumerate(self.rows):
            if row.t != self.t:
                raise ShapeError(f"row has {row.t} topics but the matrix has {self.t}", index)
        object.__setattr__(self, "n", sum(r.weight for r in self.rows))

    @classmethod
    def from_strings(
        cls, opinions: Sequence[str], weights: Sequence[int] | None = None
    ) -> "VoterMatrix":
        if weights is None:
            weights = [1] * len(opinions)
        if len(weights) != len(opinions):
            raise ParameterError("weights and opinion rows differ in length")
        rows = tuple(VoterRow(*parse_opinions(text), w) for text, w in zip(opinions, weights))
        return cls(rows[0].t if rows else 1, rows)  # the matrix checks the shape

    def has_integer_weights(self) -> bool:
        """Always True, as row weights are ints; bench/tracing.py still reads it."""
        return all(isinstance(r.weight, int) for r in self.rows)

    @cached_property
    def y_weights(self) -> tuple[int, ...]:
        """Per-topic Y-weights; the matrix is frozen, so they never go stale."""
        return _count_y_weights(self)


def _count_y_weights(matrix: VoterMatrix) -> tuple[int, ...]:
    """Sum each row's weight into the topics of its set bits: the one full count."""
    tallies = [0] * matrix.t
    for row in matrix.rows:
        mask = row.mask
        while mask:
            low = mask & -mask
            tallies[low.bit_length() - 1] += row.weight
            mask ^= low
    return tuple(tallies)


@dataclass(frozen=True)
class ColumnTally:
    """Per-topic Y-weights of a voter matrix."""

    y_weights: tuple[int, ...]
    n: int

    @property
    def t(self) -> int:
        return len(self.y_weights)

    @property
    def m_V(self) -> Fraction:
        """Average Y-fraction over all topics."""
        return Fraction(sum(self.y_weights)) / (self.n * self.t)


@dataclass(frozen=True)
class TypeProfile:
    """Fractions of l-voters for l = 0..t; nonnegative and summing to one."""

    fractions: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "fractions", tuple(Fraction(f) for f in self.fractions)
        )
        if any(f < 0 for f in self.fractions):
            raise ParameterError("type profile fractions must be nonnegative")
        if sum(self.fractions) != 1:
            raise ParameterError("type profile fractions must sum to 1")

    @property
    def t(self) -> int:
        return len(self.fractions) - 1


def column_tally(matrix: VoterMatrix) -> ColumnTally:
    return ColumnTally(matrix.y_weights, matrix.n)


def canonicalize(matrix: VoterMatrix) -> tuple[VoterMatrix, int]:
    """Flip every column whose Y-weight is below half, and report the flip mask.

    Tie columns (Y-weight exactly half) are not flipped. Applying the returned
    flip mask again restores the input. The result's Y-weights are mapped from
    the input's (a flipped topic holds n - y), not counted again.
    """
    ys, n = matrix.y_weights, matrix.n
    flip_mask = 0
    for i, y in enumerate(ys):
        if 2 * y < n:
            flip_mask |= 1 << i
    if flip_mask == 0:
        return matrix, 0
    rows = tuple(
        VoterRow(row.mask ^ flip_mask, row.t, row.weight) for row in matrix.rows
    )
    canonical = VoterMatrix(matrix.t, rows)
    # a list, not a generator: tuple() then sizes the result once
    object.__setattr__(canonical, "y_weights", tuple([n - y if 2 * y < n else y for y in ys]))
    return canonical, flip_mask


def agreements(voter_mask: int, proposal_mask: int, t: int) -> int:
    return t - (voter_mask ^ proposal_mask).bit_count()


def support_threshold(t: int) -> int:
    """Minimum number of agreements for a voter to support a proposal."""
    return (t + 1) // 2


def supporter_weight(matrix: VoterMatrix, proposal: Proposal) -> int:
    if matrix.t != proposal.t:
        raise ParameterError("matrix and proposal topic counts differ")
    threshold = support_threshold(matrix.t)
    return sum(
        row.weight
        for row in matrix.rows
        if agreements(row.mask, proposal.mask, matrix.t) >= threshold
    )


def has_majority_support(matrix: VoterMatrix, proposal: Proposal) -> bool:
    """True iff at least half of all voter weight supports the proposal."""
    return 2 * supporter_weight(matrix, proposal) >= matrix.n


def matches(matrix: VoterMatrix, proposal: Proposal) -> int:
    """Total weighted count of (voter, topic) opinions agreeing with the proposal."""
    if matrix.t != proposal.t:
        raise ParameterError("matrix and proposal topic counts differ")
    return sum(
        row.weight * agreements(row.mask, proposal.mask, matrix.t)
        for row in matrix.rows
    )


def absolute_representativeness(matrix: VoterMatrix, proposal: Proposal) -> Fraction:
    """Fraction of the n*t voter opinions that match the proposal; in [0, 1]."""
    return Fraction(matches(matrix, proposal)) / (matrix.n * matrix.t)


def relative_representativeness(matrix: VoterMatrix, proposal: Proposal) -> Fraction:
    """Absolute representativeness divided by the average majority size m_V.

    Both are over the n*t opinions, so this is matches / sum_i y_i. Requires
    canonical input so that m_V is the average majority; equals 1 exactly
    for the all-Y proposal. Raises ParameterError when no column holds a Y.
    """
    y_sum = sum(matrix.y_weights)
    if y_sum == 0:
        raise ParameterError(
            "relative representativeness requires canonical input; no column holds a Y"
        )
    return Fraction(matches(matrix, proposal)) / y_sum
