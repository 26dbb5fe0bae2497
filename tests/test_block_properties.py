"""Property tests: the block-level route gives the row-level answer.

Tables come from seeded ``random_dag_model`` graphs, fig1, and a graph
whose path runs two ribs of one fragment, each with one catalogue fault.
A drawn table may carry stimuli that split paths (some terms of a path get
other inputs), one to three flipped bits, the diagnostic suite instead of
the complete test (single-row blocks), and a JSON round trip.

The reference (``reference.py``) works on the materialized rows only: V
from two ``execute_path`` calls per term, F = ``cnf_to_min_dnf`` of the
failing rows' marks (and ``brute_min_hitting_sets`` when they mark at most
8 statements), H the union of the passing rows' marks, F' the terms of F
that H leaves alone (strong) or does not contain (weak), and ambiguity
groups from per-path unions of row marks.
"""

from random import Random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rtgdiag import (EmptyDiagnosis, FaultDetectionTable, NoFailures, ResponseVector, Stimulus,
                     attach_response, build_complete_test, build_extended_fdt, cnf_to_min_dnf,
                     default_stimuli, diagnose, enumerate_paths, inject_fault, loads_table,
                     minimal_diagnostic_test, mutation_catalogue, run_suite, table_json,
                     table_text)
from rtgdiag.fixtures import fig1_graph

from randmodels import random_dag_model, two_rib_fragment_graph
from reference import (ambiguity_partition, brute_min_hitting_sets, exoneration_set, reference_v,
                       row_blocks, row_key)

BRUTE_UNIVERSE = 8


def model(seed: int):
    if seed == 0:
        return fig1_graph()
    if seed == 1:
        return two_rib_fragment_graph()
    return random_dag_model(Random(seed), max_internal=3, max_fragments=6, max_statements=3)


@st.composite
def responded_tables(draw):
    """A responded extended table for one catalogue fault."""
    g = model(draw(st.integers(0, 400)))
    suite = build_complete_test(g, enumerate_paths(g))
    if draw(st.booleans()):
        suite = minimal_diagnostic_test(suite, g.statement_ids)
    stimuli = default_stimuli(g, suite)
    labels = suite.labels()
    overrides = {}
    for i in draw(st.sets(st.integers(0, len(labels) - 1), max_size=3)):
        # other inputs for one term: its path is split when it has more terms
        env = dict(stimuli[labels[i]].env)
        env[next(iter(env))] = draw(st.sampled_from((-2.0, 0.5, 3.0)))
        overrides[labels[i]] = Stimulus(env=env)
    stimuli = stimuli.overriding(overrides)
    catalogue = mutation_catalogue(g)
    assume(catalogue)
    fault = catalogue[draw(st.integers(0, len(catalogue) - 1))]
    mutant = inject_fault(g, fault)
    v = run_suite(g, mutant, suite, stimuli)
    reference, error = reference_v(g, mutant, suite, stimuli)
    assert error is None and v.bits == reference
    bits = list(v.bits)
    for i in draw(st.sets(st.integers(0, len(bits) - 1), max_size=3)):
        bits[i] = 1 - bits[i]
    table = attach_response(build_extended_fdt(g, suite), ResponseVector(tuple(bits)))
    if draw(st.booleans()):
        loaded = loads_table("".join(table_json(table)))
        # a loaded table holds one row per block on a label-only path, so
        # compare field by field and each row by what the file keeps of it
        assert ((loaded.kind, loaded.columns, tuple(map(row_key, loaded.rows)), loaded.response)
                == (table.kind, table.columns, tuple(map(row_key, table.rows)), table.response))
        assert "".join(table_json(loaded)) == "".join(table_json(table))
        assert "".join(table_text(loaded)) == "".join(table_text(table))
        table = loaded
    return table


def row_level(t: FaultDetectionTable) -> FaultDetectionTable:
    """The same table with every row a block of its own."""
    return FaultDetectionTable(t.kind, t.columns, row_blocks(t.rows), t.response)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(responded_tables(), st.sampled_from(("strong", "weak")))
def test_block_diagnosis_equals_row_level_reference(t, mode):
    failing = [frozenset(r.selection) for r, bit in zip(t.rows, t.response.bits) if bit]
    h = exoneration_set(t)
    assert "".join(table_json(t)) == "".join(table_json(row_level(t)))
    assert "".join(table_text(t)) == "".join(table_text(row_level(t)))
    if not failing:
        try:
            diagnose(t, mode=mode)
        except NoFailures:
            return
        raise AssertionError("an all-zero V must end as NoFailures")
    f = cnf_to_min_dnf(failing)
    if len(frozenset().union(*failing)) <= BRUTE_UNIVERSE:
        assert f.terms == frozenset(brute_min_hitting_sets(failing))
    keep = (lambda term: not term & h) if mode == "strong" else (lambda term: not term <= h)
    reduced = frozenset(term for term in f.terms if keep(term))
    try:
        result = diagnose(t, mode=mode)
    except EmptyDiagnosis:
        assert not reduced
        return
    assert result.candidates == f
    assert result.exonerated == h
    assert result.reduced.terms == reduced
    survivors = frozenset().union(*reduced)
    assert result.ambiguity == tuple(
        g for g in ambiguity_partition(t) if g.members & survivors)
    assert diagnose(row_level(t), mode=mode) == result
