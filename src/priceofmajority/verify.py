"""Named property suites over exact identities and seeded random matrices.

A suite is a generator of ``(ok, description, matrix)`` checks, called with a
fresh ``random.Random(seed)`` and the number of matrices to draw; the exact
suites cover a fixed range and ignore both. ``run_suites`` runs them for the
``verify`` command and for the acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle
from .combinatorics import binomial, c_l, min_k, s_kl, s_kl_oracle
from .constructions import lemma1_matrix
from .core import ParameterError, VoterMatrix, absolute_representativeness, has_majority_support
from .sampling import random_matrix

DEFAULT_SEED = 2022


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[tuple[str, VoterMatrix | None]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def suite_skl(rng, samples):
    """Closed formula vs direct enumeration for every (t, k, l) with t <= 12."""
    for t in range(1, 13):
        for k in range(min_k(t), t + 1):
            for l in range(t + 1):
                ok = s_kl(t, k, l) == s_kl_oracle(t, k, l)
                yield ok, f"s_kl mismatch at t={t}, k={k}, l={l}", None


def suite_identity(rng, samples):
    """Weighted support sums collapse to l * C(t-1, floor(t/2)) for odd t <= 30."""
    for t in range(1, 31, 2):
        for l in range(t + 1):
            ok = c_l(t, l) == l * binomial(t - 1, t // 2)
            yield ok, f"coefficient identity fails at t={t}, l={l}", None


def suite_mdtight(rng, samples):
    """md >= ceil((t+1)/2) on random matrices, with equality on the lemma-1 family."""
    for t in range(1, 13):
        matrix = lemma1_matrix(t)
        ok = oracle.md_of(matrix) == min_k(t)
        yield ok, f"lemma1 matrix md != ceil((t+1)/2) at t={t}", matrix
    for _ in range(samples):
        matrix = random_matrix(rng)
        yield oracle.md_of(matrix) >= min_k(matrix.t), "md < ceil((t+1)/2)", matrix


def suite_r3(rng, samples):
    """Random 3-topic matrices always allow a majority-supported r >= 5/6."""
    floor = Fraction(5, 6)
    for _ in range(samples):
        matrix = random_matrix(rng, t=3)
        yield oracle.r_V(matrix) >= floor, "3-topic matrix with r_V < 5/6", matrix


def suite_rule34(rng, samples):
    """Average majority >= 3/4 always implies all-Y majority support."""
    for _ in range(samples):
        matrix = random_matrix(rng)
        yield oracle.rule_of_three_fourths_check(matrix), "rule-of-three-fourths violated", matrix


def suite_invariants(rng, samples):
    """Pair support, r_V >= 1/3 and the half proposal, on the rule34 draws."""
    for _ in range(samples):
        matrix = random_matrix(rng)
        supp, _ = oracle.proposal_stats(matrix)  # indexed by mask; reversed: the opposites
        ok = all(a + b >= matrix.n for a, b in zip(supp, reversed(supp)))
        yield ok, "supporter weights of a proposal and its opposite sum below n", matrix
        yield oracle.r_V(matrix) >= Fraction(1, 3), "r_V < 1/3", matrix
        p = oracle.half_proposal(matrix)
        ok = has_majority_support(matrix, p) and (
            absolute_representativeness(matrix, p) >= Fraction(1, 2) - Fraction(1, matrix.t)
        )
        yield ok, "half proposal unsupported or below R = 1/2 - 1/t", matrix


SUITES = {
    "skl": suite_skl,
    "identity": suite_identity,
    "mdtight": suite_mdtight,
    "r3": suite_r3,
    "rule34": suite_rule34,
    "invariants": suite_invariants,
}


def run_suites(names, seed: int = DEFAULT_SEED, samples: int = 10_000) -> list[SuiteResult]:
    """Run the named suites ("all" runs every one), each sampled suite on
    ``samples`` matrices drawn from ``random.Random(seed)``."""
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    if "all" in names:
        names = list(SUITES)
    results = []
    for name in names:
        result = SuiteResult(name)
        for ok, description, matrix in SUITES[name](random.Random(seed), samples):
            result.checks += 1
            if not ok:
                result.failures.append((description, matrix))
        results.append(result)
    return results
