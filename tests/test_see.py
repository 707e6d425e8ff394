"""Structural entity extraction: golden fragments, oracles, properties."""

import numpy as np
import pytest

from sei.corpus import EntityAnnotation, EntityLabel, ReportDocument, StudyRecord
from sei.see import (
    SEP,
    apply_negation_prefix,
    dedupe_overlaps,
    drop_cross_sentence,
    see_extract,
    split_subsequences,
)

from conftest import (
    ALL_LABELS,
    disjoint_plain_record,
    make_entities,
    make_record,
    make_report,
    span_entity,
    word_spans_by_sentence,
)


def brute_force_dedupe(entities):
    """Oracle: connected components of the overlap graph, longest survivor each.

    Components found by exhaustive pairwise BFS; survivor selection mirrors
    the documented tie rules (length, then smaller start, then canonical order).
    """
    ents = sorted(entities, key=lambda e: (e.start_ix, e.end_ix, e.label.value, e.tokens))
    unvisited = set(range(len(ents)))
    survivors = []
    while unvisited:
        seed = min(unvisited)
        component = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for other in list(unvisited - component):
                if ents[cur].start_ix <= ents[other].end_ix and ents[other].start_ix <= ents[cur].end_ix:
                    component.add(other)
                    frontier.append(other)
        unvisited -= component
        best = min(component, key=lambda i: (-ents[i].span_len, ents[i].start_ix, i))
        survivors.append(ents[best])
    return sorted(survivors, key=lambda e: e.start_ix)


def scan_grouping(entities, sentence_ends):
    """Oracle: assign each entity to a sentence by scanning the end list."""
    ends = sorted(sentence_ends)
    groups = {}
    for ent in entities:
        sentence = 0
        for end in ends:
            if end < ent.start_ix:
                sentence += 1
            else:
                break
        groups.setdefault(sentence, []).append(ent)
    return [(s, sorted(groups[s], key=lambda e: e.start_ix)) for s in sorted(groups)]


class TestGoldenFragments:
    def test_cross_sentence_removed(self):
        report = ReportDocument("device in place. swan ganz catheter unchanged.")
        # "in place . swan ganz" straddles the first period
        crossing = span_entity(report, 1, 5, EntityLabel.OBS_DP)
        inside = span_entity(report, 0, 0, EntityLabel.OBS_DP)
        kept = drop_cross_sentence([crossing, inside], report.sentence_ends)
        assert kept == [inside]

    def test_longest_overlap_retained(self):
        report = ReportDocument("nodule measures 1.9 x 1.0 cm today.")
        long = span_entity(report, 2, 5, EntityLabel.OBS_DP)  # "1.9 x 1.0 cm"
        short = span_entity(report, 4, 5, EntityLabel.OBS_DP)  # "1.0 cm"
        assert long.tokens == "1.9 x 1.0 cm"
        assert short.tokens == "1.0 cm"
        assert dedupe_overlaps([short, long]) == [long]

    def test_single_sentence_group(self):
        report = ReportDocument("AICD in place.")
        ents = [
            span_entity(report, 0, 0, EntityLabel.OBS_DP),
            span_entity(report, 1, 2, EntityLabel.OBS_DP),
        ]
        groups = split_subsequences(ents, report.sentence_ends)
        assert len(groups) == 1
        sub = apply_negation_prefix(groups[0][1])
        assert sub.render() == "aicd in place"

    def test_full_two_sentence_example(self):
        report = ReportDocument("AICD in place. No pleural effusion.")
        record = StudyRecord(
            study_id="s0",
            report=report,
            entities=(
                span_entity(report, 0, 0, EntityLabel.OBS_DP),
                span_entity(report, 1, 2, EntityLabel.OBS_DP),
                span_entity(report, 5, 6, EntityLabel.OBS_DA),
            ),
        )
        assert see_extract(record).rendered == "aicd in place [SEP] no pleural effusion"

    def test_obs_u_prefix(self):
        report = ReportDocument("possible pneumonia seen.")
        sub = apply_negation_prefix([span_entity(report, 1, 1, EntityLabel.OBS_U)])
        assert sub.prefix == "maybe"
        assert sub.render() == "maybe pneumonia"

    def test_da_beats_u(self):
        report = ReportDocument("effusion pneumonia lungs.")
        group = [
            span_entity(report, 0, 0, EntityLabel.OBS_DA),
            span_entity(report, 1, 1, EntityLabel.OBS_U),
            span_entity(report, 2, 2, EntityLabel.ANAT_DP),
        ]
        assert apply_negation_prefix(group).prefix == "no"

    def test_no_prefix_without_special_labels(self):
        report = ReportDocument("lungs clear.")
        group = [
            span_entity(report, 0, 0, EntityLabel.ANAT_DP),
            span_entity(report, 1, 1, EntityLabel.OBS_DP),
        ]
        assert apply_negation_prefix(group).prefix is None


class TestEdgeCases:
    def test_empty_entities(self, rng):
        record = make_record(rng, n_entities=0)
        seq = see_extract(record)
        assert seq.rendered == ""
        assert seq.subsequences == ()

    def test_single_entity_single_sentence(self):
        report = ReportDocument("cardiomegaly stable.")
        record = StudyRecord(
            study_id="s0", report=report,
            entities=(span_entity(report, 0, 0, EntityLabel.OBS_DP),),
        )
        assert see_extract(record).rendered == "cardiomegaly"

    def test_middle_sentence_without_entities(self):
        report = ReportDocument("lungs clear. heart normal. no effusion.")
        record = StudyRecord(
            study_id="s0", report=report,
            entities=(
                span_entity(report, 0, 1, EntityLabel.OBS_DP),
                span_entity(report, 7, 7, EntityLabel.OBS_DA),
            ),
        )
        seq = see_extract(record)
        assert len(seq.subsequences) == 2
        assert seq.rendered == "lungs clear [SEP] no effusion"

    def test_entities_after_last_period(self):
        report = ReportDocument("lungs clear. heart normal")
        record = StudyRecord(
            study_id="s0", report=report,
            entities=(
                span_entity(report, 0, 0, EntityLabel.ANAT_DP),
                span_entity(report, 3, 4, EntityLabel.OBS_DP),
            ),
        )
        assert see_extract(record).rendered == "lungs [SEP] heart normal"

    def test_drop_cross_sentence_empty(self):
        assert drop_cross_sentence([], (3,)) == []

    def test_disjoint_entities_both_kept(self):
        report = ReportDocument("lungs clear effusion gone.")
        a = span_entity(report, 0, 0, EntityLabel.ANAT_DP)
        b = span_entity(report, 2, 2, EntityLabel.OBS_DP)
        assert dedupe_overlaps([b, a]) == [a, b]

    def test_overlap_chain_keeps_middle(self):
        report = ReportDocument("right lower lobe opacity seen today.")
        a = span_entity(report, 0, 1, EntityLabel.ANAT_DP)  # overlaps b only
        b = span_entity(report, 1, 4, EntityLabel.OBS_DP)  # longest
        c = span_entity(report, 4, 5, EntityLabel.OBS_DP)  # overlaps b only
        assert dedupe_overlaps([a, b, c]) == [b]
        assert brute_force_dedupe([a, b, c]) == [b]


class TestOracles:
    def test_dedupe_matches_brute_force(self, rng):
        for _ in range(200):
            report = make_report(rng)
            entities = make_entities(rng, report, allow_cross=False)
            assert dedupe_overlaps(entities) == brute_force_dedupe(entities)

    def test_grouping_matches_scan(self, rng):
        for _ in range(200):
            report = make_report(rng)
            entities = dedupe_overlaps(
                drop_cross_sentence(make_entities(rng, report), report.sentence_ends)
            )
            got = split_subsequences(entities, report.sentence_ends)
            assert got == scan_grouping(entities, report.sentence_ends)

    def test_plain_records_concatenate(self, rng):
        # without cross-sentence, overlaps, or negations, the output is just
        # the sentence-grouped concatenation of entity texts
        for trial in range(100):
            record = disjoint_plain_record(rng, study_id=f"s{trial}")
            expected_groups = scan_grouping(list(record.entities), record.report.sentence_ends)
            expected = f" {SEP} ".join(
                " ".join(e.tokens for e in group) for _, group in expected_groups
            )
            assert see_extract(record).rendered == expected


class TestProperties:
    def test_no_period_ever_rendered(self, rng):
        for trial in range(300):
            seq = see_extract(make_record(rng, study_id=f"s{trial}"))
            assert "." not in seq.rendered.split()

    def test_dedupe_output_disjoint(self, rng):
        for _ in range(300):
            report = make_report(rng)
            kept = dedupe_overlaps(make_entities(rng, report))
            for a, b in zip(kept, kept[1:]):
                assert a.end_ix < b.start_ix

    def test_sep_count(self, rng):
        for trial in range(300):
            seq = see_extract(make_record(rng, study_id=f"s{trial}"))
            assert seq.rendered.count(SEP) == max(0, len(seq.subsequences) - 1)

    def test_input_order_irrelevant(self, rng):
        for trial in range(100):
            record = make_record(rng, study_id=f"s{trial}")
            shuffled = list(record.entities)
            rng.shuffle(shuffled)
            permuted = StudyRecord(
                study_id=record.study_id, report=record.report, entities=tuple(shuffled)
            )
            assert see_extract(permuted) == see_extract(record)

    def test_deterministic(self, rng):
        records = [make_record(rng, study_id=f"s{i}") for i in range(50)]
        first = [see_extract(r).rendered for r in records]
        second = [see_extract(r).rendered for r in records]
        assert first == second
