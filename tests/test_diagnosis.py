from random import Random

import pytest

from rtgdiag import (CandidateExplosion, EmptyDiagnosis, NoFailures, Node, NoResponse,
                     ResponseVector, RTGraph, ambiguity_groups, attach_response,
                     build_generalized_fdt, cnf_to_min_dnf, diagnose, diagnose_generalized,
                     make_rib, recommend_observation_points, reduce_candidates,
                     verify_minimal_insertions)
from rtgdiag import diagnosis
from rtgdiag.diagnosis import CandidateDNF

from randmodels import random_clause_family, random_dag_model, single_rib_graph
from reference import brute_min_hitting_sets, build_cnf, exoneration_set, row_blocks

PAPER_V = ResponseVector((0, 0, 0, 1, 1, 1, 0, 0, 0, 0))


def term_labels(dnf):
    return {frozenset(s.label for s in t) for t in dnf.terms}


@pytest.fixture
def responded(extended):
    return attach_response(extended, PAPER_V)


def test_build_cnf_from_failing_rows(responded):
    clauses = [frozenset(s.label for s in c) for c in build_cnf(responded)]
    assert clauses == [{"I11", "I51", "I61"}, {"I11", "I52", "I61"}, {"I11", "I55", "I61"}]


def test_build_cnf_rejects_all_zero(extended):
    table = attach_response(extended, ResponseVector((0,) * 10))
    with pytest.raises(NoFailures):
        build_cnf(table)


def test_a_table_without_response_is_not_diagnosed(g, paths, extended):
    for table, step in ((extended, build_cnf), (extended, exoneration_set),
                        (extended, diagnose),
                        (build_generalized_fdt(g, paths), diagnose_generalized)):
        with pytest.raises(NoResponse) as raised:
            step(table)
        assert not isinstance(raised.value, NoFailures)


def test_min_dnf_of_reference_clauses(responded):
    f = cnf_to_min_dnf(build_cnf(responded))
    assert term_labels(f) == {frozenset({"I11"}), frozenset({"I61"}),
                              frozenset({"I51", "I52", "I55"})}


def test_min_dnf_absorption_identity():
    a, b, c = "a", "b", "c"
    f = cnf_to_min_dnf([frozenset({a, b}), frozenset({a, c})])
    assert f.terms == frozenset({frozenset({a}), frozenset({b, c})})


def test_min_dnf_unit_clauses_conjoin():
    f = cnf_to_min_dnf([frozenset({"a"}), frozenset({"b"})])
    assert f.terms == frozenset({frozenset({"a", "b"})})


def test_min_dnf_cap():
    clauses = [frozenset({f"x{i}", f"y{i}"}) for i in range(12)]
    with pytest.raises(CandidateExplosion):
        cnf_to_min_dnf(clauses, cap=100)


def test_min_dnf_is_antichain_of_hitting_sets():
    rng = Random(801)
    for _ in range(50):
        clauses = random_clause_family(rng)
        f = cnf_to_min_dnf(clauses)
        for t in f.terms:
            assert all(t & c for c in clauses)
            for other in f.terms:
                assert not (t < other or other < t)
        assert f.terms == frozenset(brute_min_hitting_sets(clauses))


def test_min_dnf_order_invariance():
    rng = Random(802)
    for _ in range(20):
        clauses = random_clause_family(rng)
        shuffled = clauses[:]
        rng.shuffle(shuffled)
        assert cnf_to_min_dnf(clauses) == cnf_to_min_dnf(shuffled)


def test_exoneration_includes_every_passing_mark(responded):
    h = {s.label for s in exoneration_set(responded)}
    assert h == {"I11", "I22", "I23", "I31", "I32", "I41", "I44", "I45", "I61"}
    assert diagnose(responded).exonerated == exoneration_set(responded)


def test_exoneration_edge_cases(extended):
    all_one = attach_response(extended, ResponseVector((1,) * 10))
    assert exoneration_set(all_one) == frozenset()
    all_zero = attach_response(extended, ResponseVector((0,) * 10))
    marks = frozenset().union(*(r.selection for r in extended.rows))
    assert exoneration_set(all_zero) == marks


def test_reduce_strong_drops_touched_terms(responded):
    f = cnf_to_min_dnf(build_cnf(responded))
    h = exoneration_set(responded)
    reduced = reduce_candidates(f, h, mode="strong")
    assert term_labels(reduced) == {frozenset({"I51", "I52", "I55"})}


def test_reduce_weak_keeps_partially_exonerated_terms():
    f = CandidateDNF(terms=frozenset({frozenset({"a", "b"})}))
    strongly = frozenset({"a"})
    assert reduce_candidates(f, frozenset(), mode="strong") == f
    with pytest.raises(EmptyDiagnosis):
        reduce_candidates(f, strongly, mode="strong")
    assert reduce_candidates(f, strongly, mode="weak") == f


def test_reduce_empty_diagnosis():
    f = CandidateDNF(terms=frozenset({frozenset({"a"}), frozenset({"b"})}))
    with pytest.raises(EmptyDiagnosis):
        reduce_candidates(f, frozenset({"a", "b"}), mode="strong")


def test_diagnose_reference_scenario(responded):
    result = diagnose(responded)
    assert term_labels(result.candidates) == {frozenset({"I11"}), frozenset({"I61"}),
                                              frozenset({"I51", "I52", "I55"})}
    assert term_labels(result.reduced) == {frozenset({"I51", "I52", "I55"})}
    assert {s.label for s in result.exonerated} >= {"I41", "I44", "I45"}
    assert len(result.ambiguity) == 1
    assert {s.label for s in result.ambiguity[0].members} == {"I51", "I52", "I55"}
    assert str(result.reduced) == "I51 I52 I55"


def test_diagnose_row_order_invariance(responded):
    import dataclasses
    reversed_table = dataclasses.replace(
        responded, blocks=row_blocks(reversed(responded.rows)),
        response=ResponseVector(tuple(reversed(responded.response.bits))))
    a, b = diagnose(responded), diagnose(reversed_table)
    assert a.candidates == b.candidates
    assert a.exonerated == b.exonerated
    assert a.reduced == b.reduced


def test_diagnose_generalized_reference(g, paths):
    table = attach_response(build_generalized_fdt(g, paths), ResponseVector((0, 1, 0, 0)))
    assert {s.label for s in diagnose_generalized(table)} == {"I51", "I52", "I55"}


def test_diagnose_generalized_all_failing(g, paths):
    table = attach_response(build_generalized_fdt(g, paths), ResponseVector((1, 1, 1, 1)))
    assert {s.label for s in diagnose_generalized(table)} == {"I61"}


def test_diagnose_generalized_no_failures(g, paths):
    table = attach_response(build_generalized_fdt(g, paths), ResponseVector((0, 0, 0, 0)))
    with pytest.raises(NoFailures):
        diagnose_generalized(table)


def test_diagnose_generalized_with_no_statement_left_is_empty(g, paths):
    # X14Y and X3Y fail; the one statement both mark, I61, is on the
    # passing X15Y too, so the answer must not read as "no fault detected"
    table = attach_response(build_generalized_fdt(g, paths), ResponseVector((1, 0, 0, 1)))
    with pytest.raises(EmptyDiagnosis, match="^every candidate is exonerated; observations are "
                                             "inconsistent with a single fault$"):
        diagnose_generalized(table)


def test_generalized_and_extended_diagnosis_agree(g, paths, responded):
    table = attach_response(build_generalized_fdt(g, paths), ResponseVector((0, 1, 0, 0)))
    suspects = diagnose_generalized(table)
    assert suspects == diagnose(responded).suspects()


EXPECTED_GROUPS = [("I11",), ("I22", "I23"), ("I31", "I32"),
                   ("I41", "I44", "I45"), ("I51", "I52", "I55"), ("I61",)]


def test_ambiguity_groups_reference(g):
    groups = ambiguity_groups(g)
    assert [tuple(s.label for s in gr.sorted_members()) for gr in groups] == EXPECTED_GROUPS
    members = [s for gr in groups for s in gr.members]
    assert sorted(s.label for s in members) == sorted(s.label for s in g.statement_ids)


def test_single_rib_graph_is_one_group():
    g = single_rib_graph()
    groups = ambiguity_groups(g)
    assert len(groups) == 1


def test_same_rib_statements_always_group_together():
    rib = make_rib("I1", "X", "Y", [(1, "a", ("x", 1.0)), (2, "b", ("a", 2.0))])
    g = RTGraph(nodes=(Node("X", "input"), Node("Y", "output")), ribs=(rib,))
    groups = ambiguity_groups(g)
    assert len(groups) == 1
    assert len(groups[0].members) == 2


def test_recommendation_for_target_one(g):
    inserts = recommend_observation_points(g, 1)
    for_i5 = [k for f, k in inserts if f == "I5"]
    assert for_i5 == [1, 2]
    # exhaustive check: no smaller insertion set reaches target 1, and the
    # verifier rejects an inflated claim (some 6-point subset does suffice)
    assert verify_minimal_insertions(g, 1, len(inserts))
    assert not verify_minimal_insertions(g, 1, len(inserts) + 1)


def test_recommendation_for_loose_target(g):
    assert recommend_observation_points(g, 3) == []


def test_recommendation_single_statement_rib():
    g = single_rib_graph()
    assert recommend_observation_points(g, 1) == []


def rib_graph(n):
    """One rib of *n* chained statements from X to Y."""
    specs = [(1, f"v{i}", ("x" if i == 0 else f"v{i - 1}", 1.0)) for i in range(n)]
    return RTGraph(nodes=(Node("X", "input"), Node("Y", "output")),
                   ribs=(make_rib("I1", "X", "Y", specs),))


def largest_block(g, inserts):
    """The most statements left between two monitors on any fragment."""
    worst = 0
    for fragment in g.fragments:
        n = len(g.statements_of(fragment))
        cuts = [k for f, k in inserts if f == fragment]
        worst = max(worst, *(b - a for a, b in zip([0] + cuts, cuts + [n])))
    return worst


def test_six_statement_rib_at_target_two():
    assert recommend_observation_points(rib_graph(6), 2) == [("I1", 2), ("I1", 4)]


def test_plan_has_ceil_n_over_t_minus_one_points():
    for n in range(1, 61):
        g = rib_graph(n)
        for t in range(1, 13):
            inserts = recommend_observation_points(g, t)
            assert len(inserts) == -(-n // t) - 1, (n, t)
            assert largest_block(g, inserts) <= t, (n, t)


def test_plan_is_minimal_on_random_models():
    rng = Random(20_261_018)
    checked = 0
    while checked < 40:
        g = random_dag_model(rng, max_statements=6)
        if len(g.statement_ids) > 12:
            continue
        checked += 1
        for target in range(1, 5):
            inserts = recommend_observation_points(g, target)
            assert largest_block(g, inserts) <= target
            assert verify_minimal_insertions(g, target, len(inserts))


def test_recommendation_rejects_target_zero(g):
    with pytest.raises(ValueError):
        recommend_observation_points(g, 0)


def test_diagnose_passes_the_dnf_cap_on(responded):
    assert len(diagnose(responded, cap=3).candidates.terms) == 3
    with pytest.raises(CandidateExplosion):
        diagnose(responded, cap=2)


def test_an_unknown_mode_is_refused_before_any_clause(monkeypatch, responded, extended):
    def no_parts(t):
        raise AssertionError("parts read before the mode was checked")
    monkeypatch.setattr(diagnosis, "_parts_by_verdict", no_parts)
    for table in (responded, extended):
        with pytest.raises(ValueError, match="unknown exoneration mode 'bogus'"):
            diagnose(table, mode="bogus")
