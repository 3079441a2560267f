"""Domain model for multi-topic binary voting.

Voters and proposals are vectors of binary opinions (Y/N) over ``t`` topics,
stored as bitmasks with Y=1 (bit ``i`` is topic ``i+1``). A voter matrix is a
weighted multiset of voter rows; all quantities defined here depend only on
that multiset, so ``w`` identical rows and one row with weight ``w`` are
interchangeable.

All types are immutable and all operations are pure functions, so values can
be freely shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

MAX_TOPICS = 64

Weight = Union[int, Fraction]


class ParameterError(ValueError):
    """A parameter is outside the range an operation is defined for."""


class ResourceLimitError(RuntimeError):
    """The instance is too large for the requested (usually exhaustive) method."""


def parse_opinions(text: str) -> tuple[int, int]:
    """Parse a Y/N string into ``(mask, t)`` with Y=1 at bit ``i`` for topic ``i+1``."""
    mask = 0
    for i, ch in enumerate(text):
        if ch == "Y":
            mask |= 1 << i
        elif ch != "N":
            raise ParameterError(f"invalid opinion character {ch!r} (expected Y or N)")
    return mask, len(text)


def opinions_to_string(mask: int, t: int) -> str:
    return "".join("Y" if mask >> i & 1 else "N" for i in range(t))


def _check_topics(t: int) -> None:
    if t < 1:
        raise ParameterError("topic count must be >= 1")
    if t > MAX_TOPICS:
        raise ParameterError(f"topic count {t} exceeds the bitmask limit of {MAX_TOPICS}")


@dataclass(frozen=True)
class OpinionVector:
    """One binary opinion per topic: the common shape of proposals and voters."""

    mask: int
    t: int
    _noun = "opinion"  # names the vector in its error messages

    def __post_init__(self):
        _check_topics(self.t)
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
    """A voter opinion vector with a positive multiplicity.

    A row with exactly ``l`` Ys is called an l-voter. Weights are integers for
    ordinary matrices; positive rationals are allowed so that constructions
    with fractional voter masses can be represented directly.
    """

    weight: Weight = 1
    _noun = "voter"

    def __post_init__(self):
        OpinionVector.__post_init__(self)  # direct: the super() lookup slows every row
        if isinstance(self.weight, int):
            if self.weight < 1:
                raise ParameterError("integer row weight must be >= 1")
        elif isinstance(self.weight, Fraction):
            if self.weight <= 0:
                raise ParameterError("row weight must be positive")
        else:
            raise ParameterError("row weight must be an int or Fraction")


@dataclass(frozen=True)
class VoterMatrix:
    """A weighted multiset of voter rows over ``t`` topics.

    ``n`` is the total voter weight. In canonical form every column has
    Y-weight >= N-weight (Y is the weak majority opinion on every topic);
    see :func:`canonicalize`.
    """

    t: int
    rows: tuple[VoterRow, ...]
    n: Weight = field(init=False)

    def __post_init__(self):
        _check_topics(self.t)
        if not self.rows:
            raise ParameterError("voter matrix needs at least one row")
        for row in self.rows:
            if row.t != self.t:
                raise ParameterError(
                    f"row has {row.t} topics but the matrix has {self.t}"
                )
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "n", sum(r.weight for r in self.rows))

    @classmethod
    def from_strings(
        cls, opinions: Sequence[str], weights: Sequence[Weight] | None = None
    ) -> "VoterMatrix":
        if weights is None:
            weights = [1] * len(opinions)
        if len(weights) != len(opinions):
            raise ParameterError("weights and opinion rows differ in length")
        rows = tuple(VoterRow(*parse_opinions(text), w) for text, w in zip(opinions, weights))
        return cls(rows[0].t if rows else 1, rows)  # the matrix checks the shape

    def has_integer_weights(self) -> bool:
        return all(isinstance(r.weight, int) for r in self.rows)


@dataclass(frozen=True)
class ColumnTally:
    """Per-topic Y-weights of a voter matrix."""

    y_weights: tuple[Weight, ...]
    n: Weight

    @property
    def t(self) -> int:
        return len(self.y_weights)

    def m(self, i: int) -> Fraction:
        """Fraction of Ys on topic ``i`` (0-based); >= 1/2 in canonical form."""
        return Fraction(self.y_weights[i]) / self.n

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
    tallies = [0] * matrix.t
    for row in matrix.rows:
        mask = row.mask
        while mask:
            low = mask & -mask
            tallies[low.bit_length() - 1] += row.weight
            mask ^= low
    return ColumnTally(tuple(tallies), matrix.n)


def canonicalize(matrix: VoterMatrix) -> tuple[VoterMatrix, int]:
    """Flip every column whose Y-weight is below half, and report the flip mask.

    Tie columns (Y-weight exactly half) are not flipped. Applying the returned
    flip mask again restores the input.
    """
    tally = column_tally(matrix)
    flip_mask = 0
    for i, y in enumerate(tally.y_weights):
        if 2 * y < matrix.n:
            flip_mask |= 1 << i
    if flip_mask == 0:
        return matrix, 0
    rows = tuple(
        VoterRow(row.mask ^ flip_mask, row.t, row.weight) for row in matrix.rows
    )
    return VoterMatrix(matrix.t, rows), flip_mask


def is_canonical(matrix: VoterMatrix) -> bool:
    return all(2 * y >= matrix.n for y in column_tally(matrix).y_weights)


def agreements(voter_mask: int, proposal_mask: int, t: int) -> int:
    return t - (voter_mask ^ proposal_mask).bit_count()


def support_threshold(t: int) -> int:
    """Minimum number of agreements for a voter to support a proposal."""
    return (t + 1) // 2


def supports(voter: VoterRow, proposal: Proposal) -> bool:
    """True iff the voter agrees with the proposal on at least half the topics.

    Equivalently, the hamming distance between voter and proposal is at most
    t/2.
    """
    if voter.t != proposal.t:
        raise ParameterError("voter and proposal topic counts differ")
    return agreements(voter.mask, proposal.mask, voter.t) >= support_threshold(voter.t)


def supporter_weight(matrix: VoterMatrix, proposal: Proposal) -> Weight:
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


def matches(matrix: VoterMatrix, proposal: Proposal) -> Weight:
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
    y_sum = sum(column_tally(matrix).y_weights)
    if y_sum == 0:
        raise ParameterError(
            "relative representativeness requires canonical input; no column holds a Y"
        )
    return Fraction(matches(matrix, proposal)) / y_sum


def majority_decisions(proposal: Proposal) -> int:
    """Number of topics decided in favor of the majority (Ys, canonical frame)."""
    return proposal.ones_count


def type_profile(matrix: VoterMatrix) -> TypeProfile:
    """Fraction of total weight held by l-voters, for l = 0..t."""
    weights = [0] * (matrix.t + 1)
    for row in matrix.rows:
        weights[row.ones_count] += row.weight
    return TypeProfile(tuple(Fraction(w) / matrix.n for w in weights))
