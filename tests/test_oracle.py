import random
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from priceofmajority import (
    ParameterError,
    Proposal,
    ResourceLimitError,
    VoterMatrix,
    absolute_representativeness,
    best_representation,
    canonicalize,
    column_tally,
    has_majority_support,
    half_proposal,
    lemma1_matrix,
    md_of,
    r_V,
    relative_representativeness,
    rule_of_three_fourths_check,
    solve_ma,
    theorem2_matrix,
    theorem3_matrix,
    vlp_matrix,
)
from priceofmajority import core, oracle
from priceofmajority.core import (
    VoterRow,
    agreements,
    matches,
    support_threshold,
    supporter_weight,
)
from priceofmajority.matrixio import parse_matrix
from priceofmajority.oracle import proposal_stats
from priceofmajority.sampling import random_matrix


def _assert_refused_before_allocation(t, level):
    """t - 2 singletons, a YY voter on the last two topics and an all-Y block of
    weight t - 2: both oracle calls refuse the scan of ``level``, with a tracemalloc
    peak of at most 1 MiB."""
    rows = [VoterRow(1 << i, t) for i in range(t - 2)]
    rows += [VoterRow(0b11 << (t - 2), t), VoterRow((1 << t) - 1, t, t - 2)]
    matrix = VoterMatrix(t, tuple(rows))
    size = comb(t, level)
    message = rf"^scanning level {level} of {t} topics needs {size} masks; the budget is "
    for fn in (md_of, best_representation):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=message):
                fn(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestMdOf:
    def test_intro_matrix(self, intro_matrix):
        assert md_of(intro_matrix) == 6

    def test_lemma1_matrices_are_tight(self):
        # no level is scanned: a short-cut, a ceiling or reach decides each one,
        # also past 64 topics, where the masks outgrow int64
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            for t in (*range(1, 65), 65, 100, 200, 1000):
                matrix = lemma1_matrix(t)
                assert md_of(matrix) == (t + 2) // 2
                assert r_V(matrix) == 1 - Fraction((t - 1) // 2, t * t)
        assert not scan.called

    def test_single_all_y_voter(self):
        for t in (1, 4, 9):
            matrix = VoterMatrix(t, (VoterRow((1 << t) - 1, t),))
            assert md_of(matrix) == t

    def test_floor_on_random_matrices(self):
        rng = random.Random(3)
        for _ in range(400):
            matrix = random_matrix(rng, max_t=8)
            assert md_of(matrix) >= (matrix.t + 2) // 2

    def test_resource_cap(self):
        # the scan22 matrix of the CLI checks at t = 26: level 15's ceiling lacks
        # support and the level holds C(26, 15) masks, over the budget C(24, 12);
        # both calls refuse it before any mask array is allocated
        _assert_refused_before_allocation(26, 15)

    def test_resource_cap_past_64_topics(self):
        # the same shape at t = 100 is refused at level 52 just as early, so no
        # mask of 2^64 or more reaches numpy
        _assert_refused_before_allocation(100, 52)

    def test_short_cuts_need_no_scan_at_30_topics(self):
        # one voter of t = 30: all-N supports the column-majority proposal (itself)
        # and every mask with at most 15 Ys, all-Y supports itself; no mask is scanned
        for mask, md in ((0, 15), ((1 << 30) - 1, 30)):
            matrix = VoterMatrix(30, (VoterRow(mask, 30),))
            with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                result = best_representation(matrix)
                assert md_of(matrix) == md
            assert not scan.called
            assert result.best_proposal.mask == mask
            assert (result.value, result.supporter_weight) == (30, 1)


class TestBestRepresentation:
    def test_intro_matrix(self, intro_matrix):
        result = best_representation(intro_matrix)
        assert result.value == 37
        assert r_V(intro_matrix) == Fraction(37, 39)
        assert has_majority_support(intro_matrix, result.best_proposal)

    def test_unanimous_matrix(self):
        matrix = VoterMatrix.from_strings(["YYYY"], weights=[3])
        result = best_representation(matrix)
        assert result.best_proposal.to_string() == "YYYY"
        assert r_V(matrix) == 1

    def test_theorem2_value(self):
        assert r_V(theorem2_matrix(10)) == Fraction(98, 117)

    def test_large_weights(self):
        # weights near and beyond byte range must not wrap the match counts
        for l in (43, 64, 200):
            assert r_V(theorem2_matrix(l)) == Fraction(10 * l - 2, 12 * l - 3)
        huge = VoterMatrix.from_strings(["YNY", "NYN"], weights=[2**70, 1])
        result = best_representation(huge)
        assert result.best_proposal.to_string() == "YNY"
        assert result.value == 3 * 2**70

    def test_deterministic_witness(self, intro_matrix):
        first = best_representation(intro_matrix)
        second = best_representation(intro_matrix)
        assert first == second

    def test_matches_minimize_hamming(self):
        # maximal matches == n*t - minimal weighted hamming distance sum
        rng = random.Random(5)
        for _ in range(100):
            matrix = random_matrix(rng, max_t=6)
            result = best_representation(matrix)
            t = matrix.t
            best_h = min(
                sum(
                    r.weight * (t - agreements(r.mask, p, t))
                    for r in matrix.rows
                )
                for p in range(1 << t)
                if has_majority_support(matrix, Proposal(p, t))
            )
            assert result.value == matrix.n * t - best_h

    def test_scaled_weights_scale_the_results(self):
        # every weight times d gives the same witness and md, and sums times d
        rng = random.Random(9)
        for i in range(30):
            matrix = random_matrix(rng, max_t=6)
            if i % 2:  # random_matrix is canonical; flip some columns
                matrix = _flipped((matrix, rng.randrange(1, 1 << matrix.t)))
            base = best_representation(matrix)
            supp, match = proposal_stats(matrix)
            for d in (2, 3, 7, 42):
                copy = VoterMatrix(
                    matrix.t, tuple(VoterRow(r.mask, r.t, r.weight * d) for r in matrix.rows)
                )
                scaled = best_representation(copy)
                assert scaled.best_proposal == base.best_proposal
                assert scaled.value == base.value * d
                assert scaled.supporter_weight == base.supporter_weight * d
                assert md_of(copy) == md_of(matrix)
                assert proposal_stats(copy) == ([x * d for x in supp], [x * d for x in match])

    def test_integer_weights_give_integer_results(self):
        rng = random.Random(10)
        for _ in range(20):
            matrix = random_matrix(rng, max_t=6)
            result = best_representation(matrix)
            assert type(result.value) is int and type(result.supporter_weight) is int
            supp, match = proposal_stats(matrix)
            assert all(type(x) is int for x in supp + match)

    def test_sums_beyond_int64_run_on_python_ints(self):
        # n*t passes 2^62: the same scan runs with dtype=object
        rng = random.Random(11)
        for _ in range(20):
            t = rng.randint(3, 7)
            rows = tuple(
                VoterRow(rng.randrange(1 << t), t, 2**64 + rng.randrange(1000))
                for _ in range(rng.randint(1, 4))
            )
            matrix = VoterMatrix(t, rows)
            assert oracle._dtype(matrix) is object and matrix.n * t >= 2**62
            md, witness, value, supp = brute_force(matrix)
            result = best_representation(matrix)
            assert (result.best_proposal, result.value, result.supporter_weight) == (
                witness,
                value,
                supp,
            )
            assert md_of(matrix) == md
            stats_supp, stats_match = proposal_stats(matrix)
            for p in range(1 << t):
                proposal = Proposal(p, t)
                assert stats_supp[p] == supporter_weight(matrix, proposal)
                assert stats_match[p] == matches(matrix, proposal)


def brute_force(matrix):
    """(md, witness, matches, supporter weight) over all 2^t proposals via core."""
    t = matrix.t
    md, best = -1, None
    for p in range(1 << t):
        proposal = Proposal(p, t)
        supp = supporter_weight(matrix, proposal)
        if 2 * supp >= matrix.n:
            md = max(md, p.bit_count())
            cand = (matches(matrix, proposal), p.bit_count(), -p, supp)
            if best is None or cand[:3] > best[:3]:
                best = cand
    return md, Proposal(-best[2], t), best[0], best[3]


def oracle_matrices():
    """Random integer matrices (t <= 7), their canonical forms and worst cases,
    each as drawn or with columns flipped, and matrices of 3 to 8 rows with at
    most two Ys each over an odd t <= 7.

    The sparse rows leave all-Y and the levels near it without support, so
    md_of walks down the levels; it scans in about 2% of the draws, against
    under 1% without them. An odd t asks a supporter for a strict majority of
    the topics, which leaves more ceilings without support, and the sparse
    matrices are not flipped, as that would make their rows dense.

    The worst cases (theorem2, lemma1, theorem3) leave the column-majority
    proposal without majority support, so they reach the level search, where
    each is decided by a level's ceiling without a scan.
    """
    rows = st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=5)),
        min_size=1,
        max_size=6,
    )
    random_rows = st.tuples(st.integers(min_value=1, max_value=7), rows).map(
        lambda x: VoterMatrix(x[0], tuple(VoterRow(m % (1 << x[0]), x[0], w) for m, w in x[1]))
    )
    worst = st.one_of(
        st.integers(min_value=1, max_value=5).map(theorem2_matrix),
        st.integers(min_value=3, max_value=7).map(lemma1_matrix),
        st.tuples(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=3))
        .flatmap(lambda tk: st.integers(min_value=tk[1] + 1, max_value=2 * tk[1] + 1).map(
            lambda M: theorem3_matrix(tk[0], tk[1], M)
        )),
    )
    sparse_rows = st.sampled_from((3, 5, 7)).flatmap(
        lambda t: st.lists(
            st.tuples(
                st.sets(st.integers(0, t - 1), max_size=2).map(lambda ys: sum(1 << i for i in ys)),
                st.integers(1, 5),
            ),
            min_size=3,
            max_size=8,
        ).map(lambda x: VoterMatrix(t, tuple(VoterRow(m, t, w) for m, w in x)))
    )
    drawn = st.one_of(random_rows, random_rows.map(lambda m: canonicalize(m)[0]), worst)
    flipped = st.tuples(drawn, st.integers(min_value=1)).map(_flipped)
    return st.one_of(drawn, flipped, sparse_rows)


def _flipped(drawn):
    """Flip the columns set in a drawn mask."""
    matrix, flip = drawn
    flip %= 1 << matrix.t
    return VoterMatrix(
        matrix.t, tuple(VoterRow(r.mask ^ flip, r.t, r.weight) for r in matrix.rows)
    )


class TestAgainstBruteForce:
    """Short-cuts, ceilings and the scan all equal a brute force built from core."""

    @given(oracle_matrices())
    @settings(max_examples=300, deadline=None)
    def test_md_and_best_representation(self, matrix):
        md, witness, value, supp = brute_force(matrix)
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            assert md_of(matrix) == md
        # the md scan runs exactly when the restated walk leaves a level to scan
        assert scan.called == bool(_md_walk(matrix)[0])
        event("md scan" if scan.called else "md no scan")
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            result = best_representation(matrix)
        assert result.best_proposal == witness
        assert result.value == value
        assert result.supporter_weight == supp
        # no scan when the column-majority short-cut or the ceilings decide
        assert scan.called == (not _majority_supported(matrix) and bool(_level_walk(matrix)[0]))
        event("best scan" if scan.called else "best no scan")

    def test_both_paths_are_exercised(self):
        # each call ends in a short-cut (all-Y for md, the column-majority proposal
        # for best_representation: no ceiling computed), at a ceiling (ceilings
        # computed, no scan) or in a scan
        # in the last matrix the level-4 ceiling YYNYY has supporter weight 3 of
        # n = 7, while another 4-Y proposal has 4
        scans = VoterMatrix.from_strings(
            ["YYYYY", "NYNNY", "YNYNN", "NNNYN"], weights=[1, 2, 1, 3]
        )
        cases = (
            (theorem2_matrix(4), "ceiling", "ceiling"),
            (lemma1_matrix(6), "ceiling", "ceiling"),
            (VoterMatrix.from_strings(["YNYY", "YNYY", "NYNN"]), "short-cut", "short-cut"),
            (VoterMatrix.from_strings(["NNY", "NNY", "YYN"]), "ceiling", "short-cut"),
            (scans, "scan", "scan"),
        )
        for matrix, md_path, best_path in cases:
            results, scanned = [], []
            for fn, path in ((md_of, md_path), (best_representation, best_path)):
                with mock.patch.object(oracle, "_ceilings", wraps=oracle._ceilings) as ceilings:
                    with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                        results.append(fn(matrix))
                taken = "scan" if scan.called else "ceiling" if ceilings.called else "short-cut"
                assert taken == path
                scanned.append(_scanned(scan))
            # in the last matrix md_of's supported 4-Y mask is in the second of
            # level 4's blocks, so it scans both (2 + 3 masks)
            md_levels, md_count = _md_walk(matrix)
            assert scanned[0] == (set(md_levels), md_count)
            md, result = results
            assert (md, result.best_proposal, result.value, result.supporter_weight) == (
                brute_force(matrix)
            )


class TestProposalStats:
    def test_enumeration_cap(self):
        matrix = lemma1_matrix(21)
        with pytest.raises(ResourceLimitError, match=r"^proposal_stats enumerates up to 2\^t "):
            proposal_stats(matrix)

    def test_pair_support_over_all_proposals(self):
        rng = random.Random(13)
        for _ in range(100):
            matrix = random_matrix(rng, max_t=7)
            supp, _ = proposal_stats(matrix)
            full = (1 << matrix.t) - 1
            for p in range(1 << matrix.t):
                assert supp[p] + supp[full - p] >= matrix.n

    def test_agrees_with_core_on_vlp_witnesses(self):
        for t in range(1, 9):
            for w in range((t + 2) // 2, t + 1):
                _agrees_with_core(vlp_matrix(t, w, solve_ma(t, w).profile))


def _agrees_with_core(matrix):
    """proposal_stats against core's supporter_weight and matches on every mask,
    in value and in number type (int)."""
    supp, match = proposal_stats(matrix)
    assert len(supp) == len(match) == 1 << matrix.t
    for p in range(1 << matrix.t):
        proposal = Proposal(p, matrix.t)
        core_supp, core_match = supporter_weight(matrix, proposal), matches(matrix, proposal)
        assert (supp[p], match[p]) == (core_supp, core_match)
        assert type(supp[p]) is type(core_supp) and type(match[p]) is type(core_match)
        assert type(core_supp) is type(core_match) is int


class TestHalfProposal:
    def test_unanimous_four_topics(self):
        matrix = VoterMatrix.from_strings(["YYYY"], weights=[4])
        p = half_proposal(matrix)
        assert has_majority_support(matrix, p)
        assert absolute_representativeness(matrix, p) >= Fraction(1, 2) - Fraction(1, 4)

    def test_single_topic(self):
        matrix = VoterMatrix.from_strings(["Y", "N"], weights=[2, 1])
        p = half_proposal(matrix)
        assert p.to_string() == "Y"

    def test_theorem2_matrices(self):
        for l in range(1, 12):
            matrix = theorem2_matrix(l)
            p = half_proposal(matrix)
            assert has_majority_support(matrix, p)
            assert absolute_representativeness(matrix, p) >= Fraction(1, 6)

    def test_postcondition_on_random_matrices(self):
        rng = random.Random(17)
        for _ in range(400):
            matrix = random_matrix(rng)
            p = half_proposal(matrix)
            t = matrix.t
            assert has_majority_support(matrix, p)
            assert absolute_representativeness(matrix, p) >= Fraction(1, 2) - Fraction(1, t)

    def test_choice_follows_the_representativeness_rule(self):
        """The mask is that of the rule restated in Fractions: the longest prefix
        of majority topics whose proposal p keeps R(p) <= 1/2, then p when it is
        supported and R(p) > R(q) or its opposite q is not supported, else q."""
        rng = random.Random(37)
        branches = set()
        for i in range(2400):
            t = rng.randint(1, 10)
            weights = [
                rng.randint(1, 3) if i % 2 else rng.randint(1, 36)
                for _ in range(rng.randint(1, 6))
            ]
            matrix = VoterMatrix(t, tuple(VoterRow(rng.randrange(1 << t), t, w) for w in weights))
            if i % 4 < 2:
                matrix, _ = canonicalize(matrix)
            tally = column_tally(matrix)
            total, k = sum(1 - tally.m(j) for j in range(t)), 0
            while k < t and total + 2 * tally.m(k) - 1 <= Fraction(t, 2):
                total += 2 * tally.m(k) - 1
                k += 1
            p = Proposal((1 << k) - 1, t)
            q = p.opposite()
            p_ok, q_ok = has_majority_support(matrix, p), has_majority_support(matrix, q)
            if p_ok and q_ok:
                p_wins = absolute_representativeness(matrix, p) > absolute_representativeness(
                    matrix, q
                )
                expected, branch = (p, "p over q") if p_wins else (q, "q over p")
            else:
                expected, branch = (p, "p alone") if p_ok else (q, "q alone")
            branches.add(branch)
            assert half_proposal(matrix).mask == expected.mask
        assert branches == {"p over q", "q over p", "p alone", "q alone"}


class TestRuleOfThreeFourths:
    def test_unanimous(self):
        matrix = VoterMatrix.from_strings(["YYY"], weights=[2])
        assert column_tally(matrix).m_V == 1
        assert rule_of_three_fourths_check(matrix)

    def test_intro_matrix_vacuous(self, intro_matrix):
        assert column_tally(intro_matrix).m_V < Fraction(3, 4)
        assert rule_of_three_fourths_check(intro_matrix)

    def test_random_matrices(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(600):
            matrix = random_matrix(rng, max_t=6, max_rows=3)
            if column_tally(matrix).m_V >= Fraction(3, 4):
                hits += 1
            assert rule_of_three_fourths_check(matrix)
        assert hits > 0  # the non-vacuous branch was exercised


class TestColumnSumsCountedOnce:
    """A matrix counts its column sums once; canonicalize maps them to its result."""

    @staticmethod
    def counting():
        return mock.patch.object(core, "_count_y_weights", wraps=core._count_y_weights)

    def test_analyze_path(self):
        # the 4-topic block flips its second column: y = 3 1 3 5 of n = 6 becomes 3 5 3 5
        text = "3x {}\n{}\n2x {}\n".format(*(row * 5 for row in ("YNNY", "NYYN", "NNYY")))
        with self.counting() as count:
            canonical, flip = canonicalize(parse_matrix(text))
            tally = column_tally(canonical)
            md, best = md_of(canonical), best_representation(canonical)
            r = r_V(canonical)
        assert count.call_count == 1
        assert flip == sum(0b0010 << 4 * j for j in range(5))
        assert tally.y_weights == (3, 5, 3, 5) * 5
        assert (md, best.best_proposal.ones_count, r) == (20, 20, 1)

    def test_verify_path(self):
        rng, draws = random.Random(37), 60
        with self.counting() as count:
            for _ in range(draws):
                matrix = random_matrix(rng)  # canonicalize reads the drawn matrix
                r_V(matrix)
                rule_of_three_fourths_check(matrix)
                half_proposal(matrix)
                md_of(matrix)
        assert count.call_count == draws


class TestRelativeFloor:
    def test_r_v_at_least_one_third(self):
        rng = random.Random(29)
        for _ in range(400):
            assert r_V(random_matrix(rng, max_t=8)) >= Fraction(1, 3)

    def test_r_v_lemma5_consequence(self):
        rng = random.Random(31)
        for _ in range(400):
            matrix = random_matrix(rng)
            t = matrix.t
            r = r_V(matrix)
            assert r >= Fraction(2, 3) - Fraction(4, 3 * t)
            best = best_representation(matrix).best_proposal
            assert r == relative_representativeness(matrix, best)

    def test_r_v_requires_canonical_input(self):
        # no column holds a Y, so there is no Y-weight to divide by
        for opinions in (["NN"], ["N", "N"], ["NNN", "NNN"]):
            with pytest.raises(ParameterError, match="canonical"):
                r_V(VoterMatrix.from_strings(opinions))


def _majority_supported(matrix):
    """Whether the column-majority proposal (Y where 2*y_i >= n) has majority support."""
    ys = column_tally(matrix).y_weights
    mask = sum(1 << i for i, y in enumerate(ys) if 2 * y >= matrix.n)
    return has_majority_support(matrix, Proposal(mask, matrix.t))


def _ceiling(matrix, k):
    """(mask, matches) of level k's ceiling, restated from core: of the masks
    with k Ys that have the most matches, the smallest."""
    t = matrix.t
    level = [p for p in range(1 << t) if p.bit_count() == k]
    most = max(matches(matrix, Proposal(p, t)) for p in level)
    return min(p for p in level if matches(matrix, Proposal(p, t)) == most), most


def _level_walk(matrix):
    """(levels scanned, levels decided by their ceiling, levels out of reach)
    of the best_representation level search, restated from core.

    The levels are visited best first, by (most matches, Y-count), and the walk
    stops at the first level below the (matches, Y-count) of the best found.
    A visited level is decided by its ceiling when that has majority support,
    out of reach when the voters within t - |k - l| >= threshold of it weigh
    under n/2, and scanned otherwise."""
    t, n = matrix.t, matrix.n
    tops = [_ceiling(matrix, k) for k in range(t + 1)]  # (mask, most matches) of each level
    best, scanned, ceilings, skipped = (-1,), [], [], []
    for most, k in sorted(((most, k) for k, (_, most) in enumerate(tops)), reverse=True):
        if (most, k) < best:
            break
        if has_majority_support(matrix, Proposal(tops[k][0], t)):
            ceilings.append(k)
            best = (most, k)
        elif 2 * _reach(matrix, k) < n:
            skipped.append(k)
        else:
            scanned.append(k)
            for p in range(1 << t):
                proposal = Proposal(p, t)
                if p.bit_count() == k and has_majority_support(matrix, proposal):
                    best = max(best, (matches(matrix, proposal), k))
    return scanned, ceilings, skipped


def _md_walk(matrix):
    """(levels md_of scans, masks it scans), restated from core: none when
    all-Y has majority support; otherwise each level from t - 1 down to md
    whose possible supporters weigh at least n/2, except md itself when its
    ceiling has majority support. Each level above md is scanned whole, and
    md's scan ends with its first block that holds a supported mask."""
    t, n = matrix.t, matrix.n
    md = brute_force(matrix)[0]
    if md == t:
        return [], 0
    levels = [k for k in range(t - 1, md, -1) if 2 * _reach(matrix, k) >= n]
    count = sum(comb(t, k) for k in levels)
    if not has_majority_support(matrix, Proposal(_ceiling(matrix, md)[0], t)):
        levels.append(md)
        for block in _blocks(t, md):
            count += len(block)
            if any(has_majority_support(matrix, Proposal(p, t)) for p in block):
                break
    return levels, count


def _blocks(t, k):
    """The masks with k ones in the oracle's blocks at the default chunk: one
    per number j of ones in the low t // 2 bits, j ascending."""
    low = (1 << t // 2) - 1
    groups = [
        [p for p in range(1 << t) if p.bit_count() == k and (p & low).bit_count() == j]
        for j in range(t // 2 + 1)
    ]
    return [group for group in groups if group]


def _reach(matrix, k):
    """Weight of the voters that can support some k-Y proposal."""
    t = matrix.t
    near = (r for r in matrix.rows if t - abs(k - r.mask.bit_count()) >= support_threshold(t))
    return sum(r.weight for r in near)


def _scanned(scan):
    """(popcounts of the masks passed to a wrapped _scan, how many masks)."""
    masks = [int(m) for call in scan.call_args_list for m in call.args[2]]
    return {m.bit_count() for m in masks}, len(masks)


class TestLevelSearch:
    """The level search examines only the levels the bounds and ceilings leave."""

    @given(oracle_matrices())
    @settings(max_examples=200, deadline=None)
    def test_levels_scanned_follow_the_bounds(self, matrix):
        t = matrix.t
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            result = best_representation(matrix)
        if _majority_supported(matrix):
            assert not scan.called
            return
        scanned, ceilings, skipped = _level_walk(matrix)
        levels, count = _scanned(scan)
        assert levels == set(scanned)
        assert count == sum(comb(t, k) for k in scanned)
        if skipped:
            event("level out of reach")
        if ceilings:
            event("ceiling decides a level")
        assert has_majority_support(matrix, result.best_proposal)
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            md_of(matrix)
        md_levels, md_count = _md_walk(matrix)
        assert _scanned(scan) == (set(md_levels), md_count)

    @pytest.mark.parametrize("t", range(8, 21))
    def test_worst_cases_scan_one_level(self, t):
        # md and best both sit on one level, and its ceiling has majority support
        cases = [lemma1_matrix(t)] + [theorem3_matrix(t, t - 1, M) for M in range(t, 2 * t)]
        for matrix in cases:
            for fn in (md_of, best_representation):
                with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                    fn(matrix)
                assert _scanned(scan)[1] == 0
        assert md_of(cases[0]) == (t + 2) // 2

    def test_ceiling_after_a_scan_without_support(self):
        # column Y-weights 3, 3, 4 of n = 8: level 1 has the most matches (14,
        # tied with level 0, and more Ys), but none of its masks has majority
        # support; level 0's ceiling, all-N, then wins and stops the walk
        matrix = VoterMatrix.from_strings(["NNY", "YYY", "YNN", "NYN"], weights=[3, 1, 2, 2])
        assert column_tally(matrix).y_weights == (3, 3, 4)
        assert _level_walk(matrix) == ([1], [0], [])
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            result = best_representation(matrix)
        assert _scanned(scan) == ({1}, 3)
        md, witness, value, supp = brute_force(matrix)
        assert (result.best_proposal, result.value, result.supporter_weight) == (
            witness,
            value,
            supp,
        )
        assert witness.mask == 0 and md_of(matrix) == md

    def test_best_first_stop(self):
        # column Y-weights 3, 2, 3 of n = 7: all-N (13 matches) is out of reach,
        # and level 1's ceiling YNN (12) has supporter weight 6, which ends the
        # walk; a walk from t Ys down would first scan level 2 (masks 3, 5 and 6)
        matrix = VoterMatrix.from_strings(["YNY", "NNN", "YYN", "NYY"], weights=[2, 3, 1, 1])
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            result = best_representation(matrix)
        assert (result.best_proposal.to_string(), result.value, result.supporter_weight) == (
            "YNN",
            12,
            6,
        )
        assert _scanned(scan) == (set(), 0)
        assert _level_walk(matrix) == ([], [1], [0])

    @pytest.mark.parametrize("chunk", [2**4])
    def test_blocks_split_across_chunks(self, monkeypatch, chunk):
        # a block joins a run of high halves to every low half with j ones, so
        # blocks stay at most _CHUNK while _CHUNK >= C(h, h // 2), h = t // 2:
        # 10 here (t <= 10), and 6,435 at t = 30 against the default 2^20. A
        # tiny chunk splits those groups, so the tie-breaks run between blocks
        # of one group as well as between groups
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        rng = random.Random(37)
        cases = [lemma1_matrix(t) for t in (7, 9, 10)]
        cases += [theorem3_matrix(t, t - 1, M) for t, M in ((8, 9), (9, 9), (10, 11))]
        cases += [theorem3_matrix(10, 3, 5), theorem2_matrix(3)]
        cases += [random_matrix(rng, max_t=10, max_rows=8) for _ in range(12)]
        split = False
        for i, matrix in enumerate(cases):
            if i % 2:
                matrix = _flipped((matrix, rng.randrange(1, 1 << matrix.t)))
            rows = []
            for j, r in enumerate(matrix.rows):  # rows reweighted by 1, 2 and 3
                rows.append(VoterRow(r.mask, r.t, r.weight * (1 + j % 3)))
            matrix = VoterMatrix(matrix.t, tuple(rows))
            with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                md = md_of(matrix)
                result = best_representation(matrix)
            t, h = matrix.t, matrix.t // 2
            for call in scan.call_args_list:
                masks = call.args[2]
                assert masks.size <= chunk
                k, j = int(masks[0]).bit_count(), (int(masks[0]) & ((1 << h) - 1)).bit_count()
                split |= masks.size < comb(h, j) * comb(t - h, k - j)  # part of a group
            assert (md, result.best_proposal, result.value, result.supporter_weight) == (
                brute_force(matrix)
            )
        assert split

    def test_memory_stays_below_the_full_scan(self):
        # a scan over all 2^t masks in 2^20-mask chunks peaks at about 64 MiB
        # here; a level is built in blocks and no array holds 2^t masks.
        # lemma1(22) with the singletons of topics 20 and 21 merged into one
        # YY voter and the all-Y block one lighter: every column tallies 21 of
        # n = 41, so level 13's ceiling is topics 0..12, which only the block
        # (20) supports, while a 13-Y proposal with topics 20 and 21 also has the
        # YY voter (21). Both calls scan level 13 only: best_representation all
        # C(22, 13) of its masks, md_of its first block, which joins all 11
        # high topics (20 and 21 among them) to the C(11, 2) low halves with 2
        t = 22
        rows = [VoterRow(1 << i, t) for i in range(20)]
        rows += [VoterRow(0b11 << 20, t), VoterRow((1 << t) - 1, t, 20)]
        matrix = VoterMatrix(t, tuple(rows))
        for fn, count in ((md_of, comb(11, 2)), (best_representation, comb(22, 13))):
            with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                fn(matrix)
            assert _scanned(scan) == ({13}, count)
            tracemalloc.start()
            try:
                fn(matrix)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * 2**20
