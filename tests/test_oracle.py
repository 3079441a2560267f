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
from priceofmajority import oracle
from priceofmajority.core import (
    VoterRow,
    agreements,
    matches,
    support_threshold,
    supporter_weight,
)
from priceofmajority.oracle import proposal_stats
from priceofmajority.sampling import random_matrix


class TestMdOf:
    def test_intro_matrix(self, intro_matrix):
        assert md_of(intro_matrix) == 6

    def test_lemma1_matrices_are_tight(self):
        for t in range(1, 11):
            assert md_of(lemma1_matrix(t)) == (t + 2) // 2

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
        matrix = VoterMatrix(30, (VoterRow(0, 30),))
        with pytest.raises(ResourceLimitError):
            md_of(matrix)

    def test_resource_cap_checked_before_short_cuts(self):
        # all-Y is supported here, so only the cap stands between it and an answer
        matrix = VoterMatrix(30, (VoterRow((1 << 30) - 1, 30),))
        for fn in (md_of, best_representation):
            with pytest.raises(ResourceLimitError):
                fn(matrix)


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

    def test_rational_weights_scale_back(self):
        # copies with weights w/d give the integer result divided by d, in Fractions;
        # the copies hold mixed denominators (w=6 gives 3, 2, 6/7 and 1/7)
        rng = random.Random(9)
        for i in range(30):
            matrix = random_matrix(rng, max_t=6)
            if i % 2:  # random_matrix is canonical; flip some columns
                matrix = _flipped((matrix, rng.randrange(1, 1 << matrix.t)))
            fast = best_representation(matrix)
            supp, match = proposal_stats(matrix)
            for d in (1, 2, 3, 7, 42):
                copy = VoterMatrix(
                    matrix.t,
                    tuple(VoterRow(r.mask, r.t, Fraction(r.weight, d)) for r in matrix.rows),
                )
                slow = best_representation(copy)
                assert slow.best_proposal == fast.best_proposal
                assert slow.value == Fraction(fast.value, d)
                assert slow.supporter_weight == Fraction(fast.supporter_weight, d)
                assert type(slow.value) is type(slow.supporter_weight) is Fraction
                assert md_of(copy) == md_of(matrix)
                copy_supp, copy_match = proposal_stats(copy)
                assert copy_supp == [Fraction(x, d) for x in supp]
                assert copy_match == [Fraction(x, d) for x in match]
                assert all(type(x) is Fraction for x in copy_supp + copy_match)

    def test_integer_weights_give_integer_results(self):
        rng = random.Random(10)
        for _ in range(20):
            matrix = random_matrix(rng, max_t=6)
            result = best_representation(matrix)
            assert type(result.value) is int and type(result.supporter_weight) is int
            supp, match = proposal_stats(matrix)
            assert all(type(x) is int for x in supp + match)

    def test_sums_beyond_int64_run_on_python_ints(self):
        # scaled n*t passes 2^62: the same scan runs with dtype=object
        rng = random.Random(11)
        for _ in range(20):
            t = rng.randint(3, 7)
            rows = tuple(
                VoterRow(rng.randrange(1 << t), t, Fraction(2**64 + rng.randrange(1000), d))
                for d in rng.sample((1, 3, 5, 7), rng.randint(1, 4))
            )
            matrix = VoterMatrix(t, rows)
            scaled, unit, dtype = oracle._integer(matrix)
            assert dtype is object and scaled.n * t >= 2**62
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
    each as drawn or with columns flipped.

    The worst cases (theorem2, lemma1, theorem3) leave the column-majority
    proposal without majority support, so they reach the full scan.
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
    drawn = st.one_of(random_rows, random_rows.map(lambda m: canonicalize(m)[0]), worst)
    return st.one_of(drawn, st.tuples(drawn, st.integers(min_value=1)).map(_flipped))


def _flipped(drawn):
    """Flip the columns set in a drawn mask."""
    matrix, flip = drawn
    flip %= 1 << matrix.t
    return VoterMatrix(
        matrix.t, tuple(VoterRow(r.mask ^ flip, r.t, r.weight) for r in matrix.rows)
    )


class TestAgainstBruteForce:
    """Short-cuts and the scan both equal a brute force built from core."""

    @given(oracle_matrices())
    @settings(max_examples=300, deadline=None)
    def test_md_and_best_representation(self, matrix):
        t, n = matrix.t, matrix.n
        md, witness, value, supp = brute_force(matrix)
        all_y = Proposal((1 << t) - 1, t)
        ys = column_tally(matrix).y_weights
        majority = Proposal(sum(1 << i for i, y in enumerate(ys) if 2 * y >= n), t)
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            assert md_of(matrix) == md
        # the md scan runs exactly when all-Y lacks majority support
        assert scan.called != has_majority_support(matrix, all_y)
        event("md short-cut" if not scan.called else "md scan")
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            result = best_representation(matrix)
        assert result.best_proposal == witness
        assert result.value == value
        assert result.supporter_weight == supp
        # the column-majority short-cut is taken exactly when it is supported
        assert scan.called != has_majority_support(matrix, majority)
        event("best short-cut" if not scan.called else "best scan")

    def test_both_paths_are_exercised(self):
        # md: all-Y decides; best_representation: the column-majority proposal decides
        cases = (
            (theorem2_matrix(4), True, True),
            (lemma1_matrix(6), True, True),
            (VoterMatrix.from_strings(["YNYY", "YNYY", "NYNN"]), False, False),
            (VoterMatrix.from_strings(["NNY", "NNY", "YYN"]), True, False),
        )
        for matrix, md_scans, best_scans in cases:
            with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                md = md_of(matrix)
            assert scan.called == md_scans
            with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                result = best_representation(matrix)
            assert scan.called == best_scans
            assert (md, result.best_proposal, result.value, result.supporter_weight) == (
                brute_force(matrix)
            )


class TestProposalStats:
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

    @pytest.mark.parametrize("kind", ["mixed", "denominator one"])
    def test_agrees_with_core_on_rational_weights(self, kind):
        rng = random.Random(17)
        for i in range(60):
            t = rng.randint(1, 7)
            weights = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
            if kind == "mixed":  # ints beside Fractions, some of them equal to an int
                weights = [w if rng.random() < 0.5 else Fraction(w, rng.choice((1, 2, 3, 6)))
                           for w in weights]
            else:
                weights = [Fraction(w, 1) for w in weights]
            matrix = VoterMatrix(t, tuple(VoterRow(rng.randrange(1 << t), t, w) for w in weights))
            if i % 2:
                matrix = canonicalize(matrix)[0]
            _agrees_with_core(matrix)


def _agrees_with_core(matrix):
    """proposal_stats against core's supporter_weight and matches on every mask.

    The values are in the matrix's number type: ints when every weight is an
    int, Fractions otherwise, also where core's own sum is an int (no
    supporter, or only int weights added up).
    """
    kind = int if matrix.has_integer_weights() else Fraction
    supp, match = proposal_stats(matrix)
    assert len(supp) == len(match) == 1 << matrix.t
    for p in range(1 << matrix.t):
        proposal = Proposal(p, matrix.t)
        assert supp[p] == supporter_weight(matrix, proposal)
        assert match[p] == matches(matrix, proposal)
        assert type(supp[p]) is type(match[p]) is kind


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
                rng.randint(1, 3) if i % 2 else Fraction(rng.randint(1, 9), rng.randint(1, 4))
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


def _level_walk(matrix):
    """(levels scanned, levels skipped, how it ended) of the best_representation
    level search, restated from core: a level is skipped when the voters within
    t - |k - l| >= threshold of it weigh under n/2, and the search stops before
    level k when sum(n - y_i) plus the k largest positive gains 2*y_i - n is no
    more than the best match count found."""
    t, n = matrix.t, matrix.n
    ys = sorted(column_tally(matrix).y_weights, key=lambda y: -y)
    best, scanned, skipped = None, [], []
    for k in range(t, -1, -1):
        cap = sum(n - y for y in ys) + sum(max(2 * y - n, 0) for y in ys[:k])
        if best is not None and cap <= best:
            return scanned, skipped, "score stop"
        if 2 * _reach(matrix, k) < n:
            skipped.append(k)
            continue
        scanned.append(k)
        for p in range(1 << t):
            proposal = Proposal(p, t)
            if p.bit_count() == k and has_majority_support(matrix, proposal):
                best = max(best or 0, matches(matrix, proposal))
    return scanned, skipped, "full sweep"


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
    """The level search examines only the levels the two bounds leave."""

    @given(oracle_matrices())
    @settings(max_examples=200, deadline=None)
    def test_levels_scanned_follow_the_bounds(self, matrix):
        t, n = matrix.t, matrix.n
        ys = column_tally(matrix).y_weights
        majority = Proposal(sum(1 << i for i, y in enumerate(ys) if 2 * y >= n), t)
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            result = best_representation(matrix)
        if has_majority_support(matrix, majority):
            assert not scan.called
            return
        scanned, skipped, how = _level_walk(matrix)
        levels, count = _scanned(scan)
        assert levels == set(scanned)
        assert count == sum(comb(t, k) for k in scanned)
        event(how)
        if skipped:
            event("level skipped")
        assert has_majority_support(matrix, result.best_proposal)
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            md = md_of(matrix)
        if scan.called:
            assert _scanned(scan)[0] == {k for k in range(md, t) if 2 * _reach(matrix, k) >= n}

    @pytest.mark.parametrize("t", range(8, 15))
    def test_worst_cases_scan_one_level(self, t):
        # md and best both sit on one level, C(t, ceil((t+1)/2)) masks at most
        limit = comb(t, (t + 2) // 2)
        cases = [lemma1_matrix(t)] + [theorem3_matrix(t, t - 1, M) for M in range(t, 2 * t)]
        for matrix in cases:
            for fn in (md_of, best_representation):
                with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                    fn(matrix)
                assert _scanned(scan)[1] <= limit
        assert md_of(cases[0]) == (t + 2) // 2

    def test_full_sweep_without_score_stop(self):
        # column Y-weights 3, 3, 4 of n = 8: the all-N winner sits on the last
        # level, so the score bound never cuts and levels 2, 1 and 0 are scanned
        matrix = VoterMatrix.from_strings(["NNY", "YYY", "YNN", "NYN"], weights=[3, 1, 2, 2])
        assert column_tally(matrix).y_weights == (3, 3, 4)
        assert _level_walk(matrix) == ([2, 1, 0], [3], "full sweep")
        with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
            result = best_representation(matrix)
        assert _scanned(scan) == ({0, 1, 2}, 7)
        md, witness, value, supp = brute_force(matrix)
        assert (result.best_proposal, result.value, result.supporter_weight) == (
            witness,
            value,
            supp,
        )
        assert witness.mask == 0 and md_of(matrix) == md

    @pytest.mark.parametrize("chunk", [2**4, 2])
    def test_blocks_split_across_chunks(self, monkeypatch, chunk):
        # with the default chunk every level up to t = 22 is one block; tiny
        # chunks split levels (and, at chunk 2, the low-half groups), so the
        # tie-breaks run between blocks
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
            for j, r in enumerate(matrix.rows):  # mixed denominators 1, 2 and 3
                rows.append(VoterRow(r.mask, r.t, Fraction(r.weight, 1 + j % 3)))
            matrix = VoterMatrix(matrix.t, tuple(rows))
            with mock.patch.object(oracle, "_scan", wraps=oracle._scan) as scan:
                md = md_of(matrix)
                result = best_representation(matrix)
            assert all(call.args[2].size <= chunk for call in scan.call_args_list)
            split |= scan.call_count > 2 * len(_scanned(scan)[0])  # more blocks than levels
            assert (md, result.best_proposal, result.value, result.supporter_weight) == (
                brute_force(matrix)
            )
        assert split

    def test_memory_stays_below_the_full_scan(self):
        # a scan over all 2^t masks in 2^20-mask chunks peaks at about 64 MiB
        # here; a level is built in blocks and no array holds 2^t masks
        matrix = lemma1_matrix(22)
        for fn in (md_of, best_representation):
            tracemalloc.start()
            try:
                fn(matrix)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * 2**20
