import io
import random
import tracemalloc
from fractions import Fraction
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
from priceofmajority import cli, core, oracle
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


def _searches(fn, matrix):
    """(fn(matrix), [(level, ceiling, yields)] of each oracle._search call that
    fn made): the yields are the level's full list, computed again. Each list
    strictly increases, and up to t = 10 its last item (None when empty) is
    the level's best supported mask, restated from core."""
    with mock.patch.object(oracle, "_search", wraps=oracle._search) as search:
        result = fn(matrix)
    searches = []
    for call in search.call_args_list:
        _, k, ceiling, most = call.args
        found = list(oracle._search(matrix, k, ceiling, most))
        assert all(a < b for a, b in zip(found, found[1:]))
        if matrix.t <= 10:
            assert (found[-1] if found else None) == _level_best(matrix, k)
        searches.append((k, ceiling, found))
    return result, searches


def _searched(searches):
    """The levels whose search went on past the ceiling: all but those whose
    one yield is their ceiling."""
    return [k for k, ceiling, found in searches if [-f[1] for f in found] != [ceiling]]


def _past_ceiling(searches):
    """The levels where a yield holds another mask than the ceiling."""
    return [k for k, ceiling, found in searches if any(-f[1] != ceiling for f in found)]


class TestMdOf:
    def test_intro_matrix(self, intro_matrix):
        assert md_of(intro_matrix) == 6

    def test_lemma1_matrices_are_tight(self):
        # every yield is a ceiling: a short-cut, a ceiling or reach decides each
        # level, also past 64 topics, where the masks outgrow int64
        for t in (*range(1, 65), 65, 100, 200, 1000):
            matrix = lemma1_matrix(t)
            md, md_searches = _searches(md_of, matrix)
            r, r_searches = _searches(r_V, matrix)
            assert md == (t + 2) // 2
            assert r == 1 - Fraction((t - 1) // 2, t * t)
            assert _past_ceiling(md_searches + r_searches) == []

    def test_single_all_y_voter(self):
        for t in (1, 4, 9):
            matrix = VoterMatrix(t, (VoterRow((1 << t) - 1, t),))
            assert md_of(matrix) == t

    def test_floor_on_random_matrices(self):
        rng = random.Random(3)
        for _ in range(400):
            matrix = random_matrix(rng, max_t=8)
            assert md_of(matrix) >= (matrix.t + 2) // 2

    def test_resource_cap(self, over_budget_file, capsys, monkeypatch):
        # past the node budget, a search refuses its level with exit code 3 and
        # one error line (tests/test_cli.py runs the same draw at the full
        # budget). A search holds its stack, at most two nodes a depth, and no
        # more as it runs longer, so a budget cut to 2,000 nodes gives the same
        # peak, at most 1 MiB, without the twentyfold slowdown of tracemalloc
        monkeypatch.setattr(oracle, "_NODE_BUDGET", 2000)
        tracemalloc.start()
        try:
            code = cli.main(["analyze", over_budget_file], out=io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: searching level 61 of 80 topics passed 2000 nodes\n"
        assert peak <= 2**20

    def test_first_supported_mask_decides_a_level(self, sparse_draw, monkeypatch):
        # md needs a level's first supported mask, the best proposal its best:
        # under a budget of 100 nodes a level, md_of answers the t = 40 seed-2
        # draw, where best_representation passes the budget on the same level
        monkeypatch.setattr(oracle, "_NODE_BUDGET", 100)
        matrix = parse_matrix(sparse_draw(40, 2))
        assert md_of(matrix) == 33
        message = "^searching level 33 of 40 topics passed 100 nodes$"
        with pytest.raises(ResourceLimitError, match=message):
            best_representation(matrix)

    def test_short_cuts_need_no_scan_at_30_topics(self):
        # one voter of t = 30: all-N supports the column-majority proposal (itself)
        # and every mask with at most 15 Ys, all-Y supports itself; every yield is a ceiling
        for mask, md in ((0, 15), ((1 << 30) - 1, 30)):
            matrix = VoterMatrix(30, (VoterRow(mask, 30),))
            result, searches = _searches(best_representation, matrix)
            assert searches == []
            found, searches = _searches(md_of, matrix)
            assert found == md
            assert _past_ceiling(searches) == []
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
        # n*t passes 2^62: the same scan and search sum with dtype=object
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
    md_of walks down the levels; a level of its walk passes the reach test in
    about 2% of the draws, against under 1% without them. An odd t asks a
    supporter for a strict majority of the topics, which leaves more ceilings
    without support, and the sparse matrices are not flipped, as that would
    make their rows dense.

    The worst cases (theorem2, lemma1, theorem3) leave the column-majority
    proposal without majority support, so they reach the level walk, where
    each is decided by a level's ceiling, and every yield is a ceiling.
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
    """Short-cuts, ceilings and the search all equal a brute force built from core."""

    @given(oracle_matrices())
    @settings(max_examples=300, deadline=None)
    def test_md_and_best_representation(self, matrix):
        md, witness, value, supp = brute_force(matrix)
        found, md_searches = _searches(md_of, matrix)
        assert found == md
        # md_of asks each level from t - 1 down to md, and stops there
        assert [k for k, _, _ in md_searches] == list(range(matrix.t - 1, md - 1, -1))
        assert _searched(md_searches) == _md_walk(matrix)
        event("md search finds" if _past_ceiling(md_searches) else "md no search finds")
        result, searches = _searches(best_representation, matrix)
        assert result.best_proposal == witness
        assert result.value == value
        assert result.supporter_weight == supp
        # no search when the column-majority short-cut decides
        if _majority_supported(matrix):
            assert searches == []
        else:
            searched, ceilings, skipped = _level_walk(matrix)
            assert sorted(_searched(searches)) == sorted(searched + skipped)
            assert sorted(k for k, _, _ in searches) == sorted(searched + ceilings + skipped)
        event("best search finds" if _past_ceiling(searches) else "best no search finds")

    def test_both_paths_are_exercised(self):
        # each call ends in a short-cut (all-Y for md, the column-majority proposal
        # for best_representation: no ceiling computed), at a ceiling (ceilings
        # computed, every yield a ceiling) or in a search that yields another mask
        # in the last matrix the level-4 ceiling YYNYY has supporter weight 3 of
        # n = 7, while another 4-Y proposal has 4
        searched = VoterMatrix.from_strings(
            ["YYYYY", "NYNNY", "YNYNN", "NNNYN"], weights=[1, 2, 1, 3]
        )
        cases = (
            (theorem2_matrix(4), "ceiling", "ceiling"),
            (lemma1_matrix(6), "ceiling", "ceiling"),
            (VoterMatrix.from_strings(["YNYY", "YNYY", "NYNN"]), "short-cut", "short-cut"),
            (VoterMatrix.from_strings(["NNY", "NNY", "YYN"]), "ceiling", "short-cut"),
            (searched, "search", "search"),
        )
        for matrix, md_path, best_path in cases:
            results, levels = [], []
            for fn, path in ((md_of, md_path), (best_representation, best_path)):
                with mock.patch.object(oracle, "_ceilings", wraps=oracle._ceilings) as ceilings:
                    result, searches = _searches(fn, matrix)
                found = _past_ceiling(searches)
                taken = "search" if found else "ceiling" if ceilings.called else "short-cut"
                assert taken == path
                results.append(result)
                levels.append(_searched(searches))
            assert levels[0] == _md_walk(matrix)
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
            m = [Fraction(y, matrix.n) for y in column_tally(matrix).y_weights]
            total, k = sum(1 - m[j] for j in range(t)), 0
            while k < t and total + 2 * m[k] - 1 <= Fraction(t, 2):
                total += 2 * m[k] - 1
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


def _level_best(matrix, k):
    """(matches, -mask, supporter weight) of level k's best supported mask, by
    most matches and then the smallest mask, or None; restated from core."""
    t, found = matrix.t, None
    for p in (p for p in range(1 << t) if p.bit_count() == k):
        supp = supporter_weight(matrix, Proposal(p, t))
        if 2 * supp >= matrix.n:
            found = max(found or (-1,), (matches(matrix, Proposal(p, t)), -p, supp))
    return found


def _level_walk(matrix):
    """(levels searched past reach, levels decided by their ceiling, levels out
    of reach) of the best_representation level walk, restated from core.

    The levels are visited best first, by (most matches, Y-count), and the walk
    stops at the first level below the (matches, Y-count) of the best found.
    A visited level is decided by its ceiling when that has majority support,
    out of reach when the voters within t - |k - l| >= threshold of it weigh
    under n/2, and searched otherwise."""
    t, n = matrix.t, matrix.n
    tops = [_ceiling(matrix, k) for k in range(t + 1)]  # (mask, most matches) of each level
    best, searched, ceilings, skipped = (-1,), [], [], []
    for most, k in sorted(((most, k) for k, (_, most) in enumerate(tops)), reverse=True):
        if (most, k) < best:
            break
        if has_majority_support(matrix, Proposal(tops[k][0], t)):
            ceilings.append(k)
            best = (most, k)
        elif 2 * _reach(matrix, k) < n:
            skipped.append(k)
        else:
            searched.append(k)
            for p in range(1 << t):
                proposal = Proposal(p, t)
                if p.bit_count() == k and has_majority_support(matrix, proposal):
                    best = max(best, (matches(matrix, proposal), k))
    return searched, ceilings, skipped


def _md_walk(matrix):
    """The levels md_of searches, restated from core: none when all-Y has
    majority support; otherwise each level from t - 1 down to md, except md
    itself when its ceiling has majority support."""
    t = matrix.t
    md = brute_force(matrix)[0]
    if md == t:
        return []
    levels = list(range(t - 1, md, -1))
    if not has_majority_support(matrix, Proposal(_ceiling(matrix, md)[0], t)):
        levels.append(md)
    return levels


def _reach(matrix, k):
    """Weight of the voters that can support some k-Y proposal."""
    t = matrix.t
    near = (r for r in matrix.rows if t - abs(k - r.mask.bit_count()) >= support_threshold(t))
    return sum(r.weight for r in near)


class TestLevelSearch:
    """The level search examines only the levels the bounds and ceilings leave."""

    @given(oracle_matrices())
    @settings(max_examples=200, deadline=None)
    def test_levels_scanned_follow_the_bounds(self, matrix):
        result, searches = _searches(best_representation, matrix)
        if _majority_supported(matrix):
            assert searches == []
            return
        searched, ceilings, skipped = _level_walk(matrix)
        # the walk searches past the ceiling on the levels its ceilings leave
        # open, and a level out of reach yields nothing
        assert sorted(_searched(searches)) == sorted(searched + skipped)
        assert sorted(k for k, _, _ in searches) == sorted(searched + ceilings + skipped)
        assert all(found == [] for k, _, found in searches if k in skipped)
        if skipped:
            event("level out of reach")
        if ceilings:
            event("ceiling decides a level")
        assert has_majority_support(matrix, result.best_proposal)
        _, searches = _searches(md_of, matrix)
        assert _searched(searches) == _md_walk(matrix)

    @pytest.mark.parametrize("t", range(8, 21))
    def test_worst_cases_scan_one_level(self, t):
        # md and best both sit on one level, and its ceiling has majority support
        cases = [lemma1_matrix(t)] + [theorem3_matrix(t, t - 1, M) for M in range(t, 2 * t)]
        for matrix in cases:
            for fn in (md_of, best_representation):
                _, searches = _searches(fn, matrix)
                assert _past_ceiling(searches) == []
        assert md_of(cases[0]) == (t + 2) // 2

    def test_ceiling_after_a_scan_without_support(self):
        # column Y-weights 3, 3, 4 of n = 8: level 1 has the most matches (14,
        # tied with level 0, and more Ys), but none of its masks has majority
        # support; level 0's ceiling, all-N, then wins and stops the walk
        matrix = VoterMatrix.from_strings(["NNY", "YYY", "YNN", "NYN"], weights=[3, 1, 2, 2])
        assert column_tally(matrix).y_weights == (3, 3, 4)
        assert _level_walk(matrix) == ([1], [0], [])
        result, searches = _searches(best_representation, matrix)
        assert [(k, found) for k, _, found in searches] == [(1, []), (0, [(14, 0, 7)])]
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
        # walk; a walk from t Ys down would first search level 2
        matrix = VoterMatrix.from_strings(["YNY", "NNN", "YYN", "NYY"], weights=[2, 3, 1, 1])
        result, searches = _searches(best_representation, matrix)
        assert (result.best_proposal.to_string(), result.value, result.supporter_weight) == (
            "YNN",
            12,
            6,
        )
        assert [(k, found) for k, _, found in searches] == [(0, []), (1, [(12, -1, 6)])]
        assert _level_walk(matrix) == ([], [1], [0])

    def test_memory_stays_below_the_full_scan(self):
        # lemma1(22) with the singletons of topics 20 and 21 merged into one
        # YY voter and the all-Y block one lighter: every column tallies 21 of
        # n = 41, so level 13's ceiling is topics 0..12, which only the block
        # (20) supports, while a 13-Y proposal with topics 20 and 21 also has the
        # YY voter (21). Both calls find a supported mask in level 13 only, each
        # holding at most 1 MiB, where a scan of level 13 held C(22, 13) masks
        matrix = _scan_shape(22)
        for fn in (md_of, best_representation):
            _, searches = _searches(fn, matrix)
            assert _past_ceiling(searches) == [13]
            tracemalloc.start()
            try:
                fn(matrix)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**20

    @pytest.mark.parametrize("t", [26, 100, 200])
    def test_scan_shape_is_answered(self, t):
        # the matrix above at t topics: every column tallies t - 1 of n = 2t - 3,
        # so every gain is 1; the best supported mask has topics 0..k - 3 and
        # the last two, k = t // 2 + 2, and the support of the block and the YY voter
        matrix, k = _scan_shape(t), t // 2 + 2
        result = best_representation(matrix)
        assert md_of(matrix) == k
        assert result.best_proposal.mask == (1 << (k - 2)) - 1 | 0b11 << (t - 2)
        assert (result.value, result.supporter_weight) == (t * (t - 2) + k, t - 1)
        assert r_V(matrix) == Fraction(t * (t - 2) + k, t * (t - 1))


def _scan_shape(t):
    """t - 2 singletons, a YY voter on the last two topics and an all-Y block of
    weight t - 2: a ceiling that lacks support on the levels near t/2."""
    rows = [VoterRow(1 << i, t) for i in range(t - 2)]
    rows += [VoterRow(0b11 << (t - 2), t), VoterRow((1 << t) - 1, t, t - 2)]
    return VoterMatrix(t, tuple(rows))
