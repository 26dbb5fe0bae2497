"""The factored clause family gives the same F as row-level distribution.

``factor_clauses`` reads failing parts, whole blocks and single rows; here
each failing row of ``build_cnf`` is handed over as a part of its own,
``[tuple(zip(c)) for c in build_cnf(t)]``, and a group of failing rows
forming a full product of per-fragment brackets is one clause of bracket
literals.  The reference is the row-level route of ``reference.py``:
``cnf_to_min_dnf`` over the plain clauses of ``build_cnf``, and, on small
tables, the exhaustive ``brute_min_hitting_sets``.  Tables come from the
mutation catalogue of the fixtures and of seeded random models, from the
same tables with seeded bit flips (not path-uniform), from ladders whose
stimuli split paths, and from hand-built groups.  The ambiguity groups of
each diagnosis are checked against ``ambiguity_partition``, the partition
of the table's columns by the path labels of the rows that mark them.
A table keeps one verdict per (V, mode, cap) in its memo for every
responded copy; diagnosing such a copy must give what a table with an
empty memo gives.
"""

import dataclasses
import warnings
from itertools import product
from random import Random

import pytest

from rtgdiag import (CandidateExplosion, DefaultedVariableWarning, EmptyDiagnosis, ExecutionError,
                     FaultDetectionTable, FaultSpec, NoFailures, ResponseVector, RtgError,
                     Stimulus, StatementId, attach_response, build_complete_test, build_extended_fdt,
                     build_rtg, cnf_to_min_dnf, default_stimuli, diagnose, enumerate_paths,
                     factor_clauses, inject_fault, mutation_catalogue, parse_program, run_suite,
                     validate_graph)
from rtgdiag.diagnosis import DEFAULT_DNF_CAP
from rtgdiag.fixtures import fig1_graph, listing31_source

from randmodels import STIMULI_KINDS, ladder_model, random_dag_model, two_rib_fragment_graph
from reference import ambiguity_partition, brute_min_hitting_sets, build_cnf

#: Largest clause universe handed to the exhaustive oracle.
BRUTE_UNIVERSE = 8


def responded_tables(g, stimuli_for=default_stimuli):
    """Responded extended table of every detected catalogue mutant of *g*."""
    suite = build_complete_test(g, enumerate_paths(g))
    table = build_extended_fdt(g, suite)
    stimuli = stimuli_for(g, suite)
    for fault in mutation_catalogue(g):
        v = run_suite(g, inject_fault(g, fault), suite, stimuli)
        if any(v.bits):
            yield attach_response(table, v)


def check_factored(t) -> None:
    """Assert the factored F equals the row-level references on table *t*,
    and the ambiguity groups of each mode's diagnosis the full partition's."""
    clauses = build_cnf(t)
    factored = factor_clauses(row_parts(clauses))
    reference = cnf_to_min_dnf(clauses)
    assert cnf_to_min_dnf(factored) == reference
    for mode in ("weak", "strong"):
        try:
            result = diagnose(t, mode=mode)
        except EmptyDiagnosis:  # no candidate survives H; F is not returned
            continue
        assert result.candidates == reference
        check_ambiguity(t, result)
    if len(frozenset().union(*clauses)) <= BRUTE_UNIVERSE:
        assert reference.terms == frozenset(brute_min_hitting_sets(clauses))


def check_ambiguity(t, result) -> None:
    """Assert the groups of a diagnosis are the full partition's groups that
    hold an F' statement, in the partition's order."""
    survivors = result.suspects()
    assert result.ambiguity == tuple(g for g in ambiguity_partition(t) if g.members & survivors)


def row_parts(clauses):
    """Each row clause as a part of singleton brackets."""
    return [tuple(zip(c)) for c in clauses]


def path_uniform(t) -> bool:
    bits: dict[str, set[int]] = {}
    for r, bit in zip(t.rows, t.response.bits):
        bits.setdefault(r.path.label, set()).add(bit)
    return all(len(b) == 1 for b in bits.values())


def flipped(t, rng: Random):
    """*t* with one to three seeded row bits flipped, or None when that
    leaves no failing row."""
    bits = list(t.response.bits)
    for i in rng.sample(range(len(bits)), min(len(bits), rng.randint(1, 3))):
        bits[i] = 1 - bits[i]
    return attach_response(t, ResponseVector(tuple(bits))) if any(bits) else None


def lowered_listing31():
    return build_rtg(parse_program(listing31_source(), fold=False))[0]


@pytest.mark.parametrize("make", [fig1_graph, lowered_listing31], ids=["fig1", "listing31"])
def test_fixture_catalogue(make):
    tables = list(responded_tables(make()))
    assert tables
    for t in tables:
        check_factored(t)


def test_random_models_and_flipped_bits():
    rng = Random(20_261_018)
    flips = Random(20_261_019)
    models = mutants = uneven = 0
    while models < 100:
        g = random_dag_model(rng, max_internal=3, max_fragments=6, max_statements=3)
        models += 1
        for t in responded_tables(g):
            mutants += 1
            check_factored(t)
            f = flipped(t, flips)
            if f is not None:
                uneven += not path_uniform(f)
                check_factored(f)
    assert mutants >= 1000
    assert uneven >= 900


def every_fifth_term_at(x: float):
    def stimuli_for(g, suite):
        return default_stimuli(g, suite).overriding(
            {label: Stimulus(env={"x": x}) for label in suite.labels()[::5]})
    return stimuli_for


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ladders_with_split_paths(k):
    # x = 3 masks the stage-1 fault I1:1:op=2 (3 + 1.5 = 3 * 1.5), so every
    # fifth term of a path through I1 passes while the rest of the path fails
    g = ladder_model(k)
    suite = build_complete_test(g, enumerate_paths(g))
    stimuli = every_fifth_term_at(3.0)(g, suite)
    table = build_extended_fdt(g, suite)
    split = 0
    for fault in [FaultSpec("I1", 1, opcode=2)] + mutation_catalogue(g)[:3]:
        t = attach_response(table, run_suite(g, inject_fault(g, fault), suite, stimuli))
        if any(t.response.bits):
            split += not path_uniform(t)
            check_factored(t)
    assert split >= 1


def sid(fragment: str, ordinal: int) -> StatementId:
    return StatementId(fragment, 1, ordinal, f"{fragment}{ordinal}")


A1, A2, B1, B2, C1 = sid("A", 1), sid("A", 2), sid("B", 1), sid("B", 2), sid("C", 1)


@pytest.mark.parametrize("rows, expected", [
    # sub-product: only A1 of bracket A fails, so the brackets are {A1} and {B1, B2}
    ([{A1, B1}, {A1, B2}], [frozenset({frozenset({A1}), frozenset({B1, B2})})]),
    # the full product, duplicated rows included
    ([{A1, B1}, {A2, B2}, {A1, B2}, {A2, B1}, {A1, B1}],
     [frozenset({frozenset({A1, A2}), frozenset({B1, B2})})]),
    # three of the four rows of {A1, A2} x {B1, B2}: not a product
    ([{A1, B1}, {A1, B2}, {A2, B1}], [{A1, B1}, {A1, B2}, {A2, B1}]),
    # two statements of one fragment in a row: not a product
    ([{A1, A2, B1}, {A1, B1}], [{A1, A2, B1}, {A1, B1}]),
    # groups are factored one by one, in order of first appearance
    ([{C1}, {A1, B1}, {A2, B1}],
     [frozenset({frozenset({C1})}), frozenset({frozenset({A1, A2}), frozenset({B1})})]),
])
def test_hand_built_groups(rows, expected):
    clauses = [frozenset(r) for r in rows]
    factored = factor_clauses(row_parts(clauses))
    assert factored == [frozenset(c) for c in expected]
    assert cnf_to_min_dnf(factored) == cnf_to_min_dnf(clauses)
    assert cnf_to_min_dnf(factored).terms == frozenset(brute_min_hitting_sets(clauses))


def test_path_through_two_ribs_of_one_fragment():
    g = two_rib_fragment_graph()
    assert validate_graph(g) == []
    [twice] = [p for p in enumerate_paths(g) if p.fragments == ("I1", "I1")]
    tables = list(responded_tables(g))
    assert tables
    for t in tables:
        failing = [frozenset(r.selection) for r, bit in zip(t.rows, t.response.bits)
                   if bit == 1 and r.path.label == twice.label]
        if {len(m) for m in failing} == {1, 2}:
            # the group mixes one- and two-statement rows: it keeps its rows
            assert set(failing) <= set(factor_clauses(row_parts(build_cnf(t))))
        check_factored(t)


def test_one_clause_per_failing_path_on_a_path_uniform_ladder():
    # complexity guard: on a path-uniform table the factored family has one
    # clause per failing path, whatever the number of terms per path
    g = ladder_model(5)
    suite = build_complete_test(g, enumerate_paths(g))
    table = build_extended_fdt(g, suite)
    stimuli = default_stimuli(g, suite)
    for fault in mutation_catalogue(g)[::7]:
        t = attach_response(table, run_suite(g, inject_fault(g, fault), suite, stimuli))
        assert path_uniform(t)
        failing_paths = {r.path.label for r, bit in zip(t.rows, t.response.bits) if bit == 1}
        assert failing_paths
        assert len(factor_clauses(row_parts(build_cnf(t)))) == len(failing_paths)
        assert len(build_cnf(t)) == 32 * len(failing_paths)


def test_a_bracket_literal_counts_only_whole():
    # {A1} alone does not hit the clause whose literal is the bracket {A1, A2}
    f = cnf_to_min_dnf([frozenset({frozenset({A1, A2}), B1}), frozenset({A1})])
    assert f.terms == frozenset({frozenset({A1, A2}), frozenset({A1, B1})})
    assert f == cnf_to_min_dnf([frozenset({A1, B1}), frozenset({A2, B1}), frozenset({A1})])


def test_flipped_fig1_table():
    # fig1's V under I5:3:op=3 with the bit of 151₂ flipped: two of path
    # X15Y's three terms fail, a sub-product with brackets {I11}, {I51, I52}, {I61}
    g = fig1_graph()
    t = attach_response(build_extended_fdt(g, build_complete_test(g, enumerate_paths(g))),
                        ResponseVector((0, 0, 0, 1, 1, 0, 0, 0, 0, 0)))
    assert not path_uniform(t)
    assert len(factor_clauses(row_parts(build_cnf(t)))) == 1
    check_factored(t)
    result = diagnose(t)
    assert str(result.candidates) == "I11 ∨ I61 ∨ I51 I52"
    check_ambiguity(t, result)


def diagnosis_outcome(t, mode, cap=DEFAULT_DNF_CAP):
    """The diagnosis of *t* in *mode*, or the type and message of its error."""
    try:
        return diagnose(t, mode=mode, cap=cap)
    except RtgError as e:
        return type(e), str(e)


#: The caps each kept diagnosis is checked at: the default, and one small
#: enough that some catalogue diagnoses end in CandidateExplosion.
CAPS = (DEFAULT_DNF_CAP, 2)


@pytest.mark.parametrize("kind", STIMULI_KINDS)
def test_kept_block_parts_match_a_table_with_an_empty_memo(kind):
    # every catalogue mutant in turn against one table, its V and the same
    # V with seeded flips, then an all-zero V, so that the verdicts kept in
    # the shared memo are read again by later mutants with an equal V; each
    # verdict is asked twice, in both modes and at both caps
    stimuli_of, permissive = STIMULI_KINDS[kind]
    flips = Random(20_261_019)
    graphs = [random_dag_model(Random(seed)) for seed in range(25)]
    graphs += [fig1_graph(), lowered_listing31(), *map(ladder_model, (2, 3))]
    compared = 0
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DefaultedVariableWarning)
        for g in graphs:
            suite = build_complete_test(g, enumerate_paths(g))
            table = build_extended_fdt(g, suite)
            stimuli = stimuli_of(g, suite)
            responded = []
            for fault in mutation_catalogue(g):
                try:
                    v = run_suite(g, inject_fault(g, fault), suite, stimuli,
                                  permissive=permissive)
                except ExecutionError:
                    continue
                t = attach_response(table, v)
                responded += filter(None, (t, flipped(t, flips)))
            responded.append(attach_response(table, ResponseVector((0,) * len(table.labels()))))
            for t in responded:
                for mode, cap in product(("strong", "weak"), CAPS):
                    fresh = FaultDetectionTable(table.kind, table.columns, table.blocks,
                                                t.response)
                    expected = diagnosis_outcome(fresh, mode, cap)
                    for _ in range(2):
                        assert diagnosis_outcome(t, mode, cap) == expected, \
                            (kind, t.response, mode, cap)
                    outcomes.add(expected[0] if isinstance(expected, tuple) else "result")
                compared += 1
            assert table.memo.get("blocks", table.blocks) is table.blocks
    assert compared > 600
    assert outcomes == {"result", NoFailures, EmptyDiagnosis, CandidateExplosion}


def test_a_copy_with_other_blocks_reads_no_stale_kept_fact():
    # the copy shares the memo of a table whose blocks were all read failing
    # and passing; its own blocks (the first four paths, reversed) sit at
    # other indices and mark fewer columns
    g = ladder_model(3)
    table = build_extended_fdt(g, build_complete_test(g))
    asked = ((1,) * 8 + (0,) * 56, (0,) * 8 + (1,) * 56)
    for bits in asked:
        diagnosis_outcome(attach_response(table, ResponseVector(bits)), "weak")
    copy = dataclasses.replace(table, blocks=table.blocks[3::-1])
    assert copy.memo is table.memo
    for bits in ((1,) * 16 + (0,) * 16, (0,) * 16 + (1,) * 16, (1,) * 32):
        fresh = FaultDetectionTable(copy.kind, copy.columns, copy.blocks, ResponseVector(bits))
        for mode in ("strong", "weak"):
            assert diagnosis_outcome(attach_response(copy, ResponseVector(bits)), mode) == \
                diagnosis_outcome(fresh, mode), (bits, mode)
    # every path reversed: as many rows as the table, so each V, mode and cap
    # the table kept a verdict for is a key the copy can ask, with another
    # failing path behind it; then the table itself again, after the copy
    for bits in asked:
        diagnosis_outcome(attach_response(table, ResponseVector(bits)), "weak")
    for other in (dataclasses.replace(table, blocks=table.blocks[::-1]), table):
        assert other.memo is table.memo
        for bits in asked:
            fresh = FaultDetectionTable(other.kind, other.columns, other.blocks,
                                        ResponseVector(bits))
            assert diagnosis_outcome(attach_response(other, ResponseVector(bits)), "weak") == \
                diagnosis_outcome(fresh, "weak"), (bits, other.blocks[0].path.label)
    # which makes a stale verdict visible: the copy's own verdict differs
    reversed_last = diagnosis_outcome(attach_response(
        dataclasses.replace(table, blocks=table.blocks[::-1]), ResponseVector(asked[1])), "weak")
    assert reversed_last != diagnosis_outcome(attach_response(table, ResponseVector(asked[1])),
                                              "weak")


def verdict_keys(memo):
    """The keys of the verdicts a table's memo keeps."""
    return set(memo) - {"blocks", "columns", "ambiguity"}


def test_the_memo_keeps_one_verdict_per_syndrome():
    # one model's catalogue campaign: many mutants share a V, and each
    # distinct (V, mode, cap) asked is kept once, with no per-block entry
    g = random_dag_model(Random(3))
    suite = build_complete_test(g, enumerate_paths(g))
    table = build_extended_fdt(g, suite)
    stimuli = default_stimuli(g, suite)
    asked, results, mutants = set(), {}, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DefaultedVariableWarning)
        for fault in mutation_catalogue(g):
            try:
                v = run_suite(g, inject_fault(g, fault), suite, stimuli)
            except ExecutionError:
                continue
            mutants += 1
            for mode in ("strong", "weak"):
                asked.add((v.bits, mode, DEFAULT_DNF_CAP))
                outcome = diagnosis_outcome(attach_response(table, v), mode)
                if not isinstance(outcome, tuple):
                    results.setdefault((v.bits, mode), outcome)
                    # a repeat returns the kept result itself
                    assert diagnose(attach_response(table, v), mode=mode) is outcome
                    assert results[v.bits, mode] is outcome
    assert 2 * mutants > len(asked) and results
    assert verdict_keys(table.memo) == asked
    assert set(table.memo) == asked | {"blocks", "columns", "ambiguity"}
    # a kept error is raised anew each time, with the kept type and message
    zero = attach_response(table, ResponseVector((0,) * len(table.labels())))
    raised = []
    for _ in range(2):
        with pytest.raises(NoFailures) as caught:
            diagnose(zero)
        raised.append(caught.value)
    assert raised[0] is not raised[1]
    assert type(raised[1]) is NoFailures and str(raised[0]) == str(raised[1])
    assert table.memo[zero.response.bits, "strong", DEFAULT_DNF_CAP] == \
        (NoFailures, str(raised[0]))


@pytest.mark.parametrize("caps", [(2, 3), (3, 2)])
def test_the_cap_is_part_of_the_kept_key(caps):
    # fig1 with the bit of 151₂ flipped: F = I11 ∨ I61 ∨ I51 I52 from one
    # clause, three terms, so cap 2 explodes and cap 3 does not, in either order
    g = fig1_graph()
    t = attach_response(build_extended_fdt(g, build_complete_test(g, enumerate_paths(g))),
                        ResponseVector((0, 0, 0, 1, 1, 0, 0, 0, 0, 0)))
    for cap in caps:
        if cap == 2:
            with pytest.raises(CandidateExplosion, match="cap of 2 terms"):
                diagnose(t, cap=cap)
        else:
            assert str(diagnose(t, cap=cap).candidates) == "I11 ∨ I61 ∨ I51 I52"
    assert verdict_keys(t.memo) == {(t.response.bits, "strong", cap) for cap in caps}
