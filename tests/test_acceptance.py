"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sei.corpus import EntityLabel, ReportDocument, StudyRecord
from sei.fusion import FeatureSet, fuse, fuse_backward, fusion_objective, init_params
from sei.losses import (
    AlignmentBatch,
    TokenPrediction,
    global_alignment_loss,
    global_alignment_loss_grad,
    local_alignment_loss,
    local_alignment_loss_grad,
    nll_loss,
    nll_loss_grad,
    total_alignment_loss,
    total_alignment_loss_grad,
)
from sei.metrics import EvalPair, corpus_bleu, micro_f1, rouge_l, score_corpus
from sei.retrieval import index_from_vectors, top_k, top_k_naive
from sei.see import SEP, dedupe_overlaps, drop_cross_sentence, see_extract, split_subsequences
from sei.see import apply_negation_prefix

from conftest import (
    VOCAB,
    central_diff,
    make_entities,
    make_record,
    make_report,
    rel_err,
    span_entity,
    write_pipeline_fixture,
)


def report_pass(criterion: str, label: str, elapsed: float) -> None:
    print(f"[acceptance] {criterion} {label}: PASS ({elapsed:.2f}s)")


def test_c1_see_golden_fragments():
    start = time.perf_counter()
    # cross-sentence entity removed
    report = ReportDocument("device in place. swan ganz catheter unchanged.")
    crossing = span_entity(report, 1, 5, EntityLabel.OBS_DP)  # "in place . swan ganz"
    assert crossing.tokens == "in place . swan ganz"
    assert drop_cross_sentence([crossing], report.sentence_ends) == []
    # longest overlapping entity retained
    report2 = ReportDocument("nodule measures 1.9 x 1.0 cm today.")
    long = span_entity(report2, 2, 5, EntityLabel.OBS_DP)
    short = span_entity(report2, 4, 5, EntityLabel.OBS_DP)
    assert (long.tokens, short.tokens) == ("1.9 x 1.0 cm", "1.0 cm")
    assert dedupe_overlaps([short, long]) == [long]
    # one sentence emits one subsequence
    report3 = ReportDocument("AICD in place.")
    record3 = StudyRecord(
        study_id="g3",
        report=report3,
        entities=(
            span_entity(report3, 0, 0, EntityLabel.OBS_DP),
            span_entity(report3, 1, 2, EntityLabel.OBS_DP),
        ),
    )
    seq3 = see_extract(record3)
    assert len(seq3.subsequences) == 1
    assert seq3.rendered == "aicd in place"
    # OBS-DA -> "no", OBS-U -> "maybe"
    report4 = ReportDocument("pleural effusion seen. pneumonia possible.")
    da_group = [span_entity(report4, 0, 1, EntityLabel.OBS_DA)]
    u_group = [span_entity(report4, 4, 4, EntityLabel.OBS_U)]
    assert apply_negation_prefix(da_group).render() == "no pleural effusion"
    assert apply_negation_prefix(u_group).render() == "maybe pneumonia"
    record4 = StudyRecord(
        study_id="g4", report=report4, entities=tuple(da_group + u_group)
    )
    assert see_extract(record4).rendered == "no pleural effusion [SEP] maybe pneumonia"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass("C1", "structural extraction golden fragments", elapsed)


def test_c2_see_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2001)
    for trial in range(1000):
        record = make_record(rng, study_id=f"p{trial}")
        seq = see_extract(record)
        # no period token survives
        assert "." not in seq.rendered.split()
        # spans pairwise disjoint after dedupe
        deduped = dedupe_overlaps(
            drop_cross_sentence(record.entities, record.report.sentence_ends)
        )
        for a, b in zip(deduped, deduped[1:]):
            assert a.end_ix < b.start_ix
        # separator count matches the subsequence count
        assert seq.rendered.count(SEP) == max(0, len(seq.subsequences) - 1)
        # deterministic across runs
        assert see_extract(record) == seq
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_pass("C2", "structural extraction properties (1000 reports)", elapsed)


def _embeddings(rng, n, d, quantize=False):
    """Raw vectors of studies q00000, q00001, ...: an unnormalized index, as load_embeddings returns."""
    matrix = rng.standard_normal((n, d))
    if quantize:
        matrix = np.round(matrix, 1)  # forces score ties
        matrix[np.linalg.norm(matrix, axis=1) == 0, 0] = 1.0
    return index_from_vectors([f"q{i:05d}" for i in range(n)], matrix, normalize=False)


def test_c3_retrieval_oracle_equivalence_and_throughput():
    start = time.perf_counter()
    rng = np.random.default_rng(3001)
    for trial in range(200):
        n = int(rng.integers(1, 501)) if trial % 4 else int(rng.integers(1000, 5001))
        d = int(rng.integers(1, 257)) if trial % 4 else int(rng.integers(128, 257))
        k = int(rng.integers(0, 21))
        embeddings = _embeddings(rng, n, d, quantize=(trial % 5 == 0))
        index = index_from_vectors(embeddings.ids, embeddings.matrix, normalize=bool(rng.random() < 0.7))
        query = embeddings.matrix[int(rng.integers(0, n))]
        exclude = embeddings.ids[int(rng.integers(0, n))] if rng.random() < 0.6 else None
        fast = top_k(index, query, k, exclude_id=exclude)
        slow = top_k_naive(index, query, k, exclude_id=exclude)
        assert [h[0] for h in fast.hits] == [h[0] for h in slow.hits]
        assert [h[1] for h in fast.hits] == [h[1] for h in slow.hits]
        if exclude is not None:
            assert exclude not in [h[0] for h in fast.hits]
    equivalence_elapsed = time.perf_counter() - start
    assert equivalence_elapsed < 30.0

    # throughput: n=10,000, d=256, 1,000 queries
    embeddings = _embeddings(rng, 10_000, 256)
    index = index_from_vectors(embeddings.ids, embeddings.matrix, normalize=True)
    queries = rng.standard_normal((1000, 256))
    t0 = time.perf_counter()
    for q in queries:
        top_k(index, q, 10)
    throughput_elapsed = time.perf_counter() - t0
    assert throughput_elapsed < 5.0
    report_pass(
        "C3",
        f"retrieval oracle equivalence ({equivalence_elapsed:.2f}s) "
        f"+ 1000 queries in {throughput_elapsed:.2f}s",
        time.perf_counter() - start,
    )


def _check_fusion_instance(rng) -> float:
    # d >= 4 keeps layer-norm curvature inside the eps=1e-4 truncation budget;
    # d=2 exactness is covered by the scalar-trace test and a finer-step check
    d = int(rng.choice([4, 8]))
    heads = 2 if rng.random() < 0.5 else 1
    params = init_params(d, heads, int(rng.integers(0, 100_000)))
    with_shc = bool(rng.random() < 0.75)
    with_ind = bool(rng.random() < 0.75)
    features = FeatureSet(
        image=rng.standard_normal((int(rng.integers(1, 6)), d)),
        shc=rng.standard_normal((int(rng.integers(1, 6)), d)) if with_shc else None,
        indication=rng.standard_normal((int(rng.integers(1, 6)), d)) if with_ind else None,
    )
    out = fuse(features, params)
    upstream = rng.standard_normal(out.fused.shape)
    grads = fuse_backward(features, params, upstream)
    worst = 0.0
    for layer_name, layer in params.layers().items():
        grad_layer = grads.layers()[layer_name]
        for array_name, array in layer.arrays().items():
            picks = rng.choice(array.size, size=min(2, array.size), replace=False)
            for flat in picks:
                numeric = central_diff(
                    lambda: fusion_objective(features, params, upstream), array, int(flat), eps=1e-4
                )
                analytic = float(grad_layer.arrays()[array_name].reshape(-1)[int(flat)])
                worst = max(worst, rel_err(analytic, numeric))
    for name in ("image", "shc", "indication"):
        feat = getattr(features, name)
        if feat is None:
            continue
        picks = rng.choice(feat.size, size=min(3, feat.size), replace=False)
        for flat in picks:
            numeric = central_diff(
                lambda: fusion_objective(features, params, upstream), feat, int(flat), eps=1e-4
            )
            worst = max(worst, rel_err(float(getattr(grads, name).reshape(-1)[int(flat)]), numeric))
    return worst


def _check_loss_instance(rng) -> float:
    b = int(rng.integers(1, 5))
    d = int(rng.integers(2, 9))
    s_i = int(rng.integers(1, 6))
    s_t = int(rng.integers(1, 6))
    batch = AlignmentBatch(
        image_feats=rng.standard_normal((b, d)),
        text_feats=rng.standard_normal((b, d)),
        image_locals=rng.standard_normal((b, s_i, d)),
        text_locals=rng.standard_normal((b, s_t, d)),
        temperature=float(rng.uniform(0.05, 1.0)),
    )
    worst = 0.0
    checks = []
    for direction in ("image_to_text", "text_to_image"):
        loss, grads = global_alignment_loss_grad(batch, direction)
        checks.append((lambda dd=direction: global_alignment_loss(batch, dd), grads))
    _, local_grads = local_alignment_loss_grad(batch)
    checks.append((lambda: local_alignment_loss(batch), local_grads))
    _, total_grads = total_alignment_loss_grad(batch)
    checks.append((lambda: total_alignment_loss(batch), total_grads))
    for loss_fn, grads in checks:
        for name, grad in grads.items():
            array = getattr(batch, name)
            picks = rng.choice(array.size, size=min(3, array.size), replace=False)
            for flat in picks:
                numeric = central_diff(loss_fn, array, int(flat), eps=1e-4)
                worst = max(worst, rel_err(float(grad.reshape(-1)[int(flat)]), numeric))
    # nll over a small batch of predictions
    preds = []
    for _ in range(b):
        m = int(rng.integers(1, 5))
        v = int(rng.integers(2, 7))
        probs = rng.random((m, v)) + 0.1
        probs /= probs.sum(axis=1, keepdims=True)
        preds.append(
            TokenPrediction(probs=probs, reference=tuple(int(r) for r in rng.integers(0, v, size=m)))
        )
    _, nll_grads = nll_loss_grad(preds, validate=False)
    for pred, grad in zip(preds, nll_grads):
        picks = rng.choice(pred.probs.size, size=min(3, pred.probs.size), replace=False)
        for flat in picks:
            numeric = central_diff(
                lambda: nll_loss(preds, validate=False), pred.probs, int(flat), eps=1e-4
            )
            worst = max(worst, rel_err(float(grad.reshape(-1)[int(flat)]), numeric))
    return worst


def test_c4_gradient_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(4001)
    worst = 0.0
    for _ in range(50):
        worst = max(worst, _check_fusion_instance(rng))
        worst = max(worst, _check_loss_instance(rng))
    assert worst < 1e-4, f"worst relative error {worst}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_pass("C4", f"gradient verification (worst rel err {worst:.2e})", elapsed)


def test_c5_analytic_loss_values():
    start = time.perf_counter()
    rng = np.random.default_rng(5001)
    # B=1: every alignment term is exactly zero
    batch1 = AlignmentBatch(
        image_feats=rng.standard_normal((1, 6)),
        text_feats=rng.standard_normal((1, 6)),
        image_locals=rng.standard_normal((1, 4, 6)),
        text_locals=rng.standard_normal((1, 3, 6)),
    )
    assert global_alignment_loss(batch1, "image_to_text") == 0.0
    assert global_alignment_loss(batch1, "text_to_image") == 0.0
    assert local_alignment_loss(batch1) == 0.0
    assert total_alignment_loss(batch1) == 0.0
    # B=2 orthonormal pairs at tau=1
    feats = np.eye(2, 6)
    batch2 = AlignmentBatch(image_feats=feats, text_feats=feats.copy(), temperature=1.0)
    want = -math.log(math.e / (math.e + 1.0))
    assert abs(global_alignment_loss(batch2, "image_to_text") - want) < 1e-6
    assert abs(global_alignment_loss(batch2, "text_to_image") - want) < 1e-6
    # uniform NLL equals M ln V
    probs = np.full((3, 4), 0.25)
    loss = nll_loss([TokenPrediction(probs=probs, reference=(0, 1, 2))])
    assert abs(loss - 3 * math.log(4)) < 1e-9
    elapsed = time.perf_counter() - start
    report_pass("C5", "analytic loss values", elapsed)


def test_c6_metric_hand_values():
    start = time.perf_counter()
    bleu = corpus_bleu(
        [EvalPair(generated=("the", "cat", "sat"), reference=("the", "cat", "sat", "down"))], 2
    )
    assert abs(bleu - math.exp(-1.0 / 3.0)) < 1e-6
    rouge = rouge_l([EvalPair(generated=("the", "cat"), reference=("the", "cat", "sat"))])
    assert abs(rouge - 0.77215) < 1e-5
    gold = [
        [1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    pred = [
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    assert abs(micro_f1(pred, gold) - 2.0 / 3.0) < 1e-9
    identical = [EvalPair(generated=tuple(VOCAB), reference=tuple(VOCAB))]
    assert corpus_bleu(identical, 2) == 1.0
    assert corpus_bleu(identical, 4) == 1.0
    assert rouge_l(identical) == 1.0
    elapsed = time.perf_counter() - start
    report_pass("C6", "metric hand values", elapsed)


def test_c7_fusion_branch_totality_and_permutation():
    start = time.perf_counter()
    rng = np.random.default_rng(7001)
    params = init_params(8, 2, 7)
    image = rng.standard_normal((4, 8))
    shc = rng.standard_normal((6, 8))
    indication = rng.standard_normal((3, 8))
    expected = {
        (True, True): "full",
        (True, False): "no_indication",
        (False, True): "no_shc",
        (False, False): "image_only",
    }
    for (with_shc, with_ind), branch in expected.items():
        features = FeatureSet(
            image=image,
            shc=shc if with_shc else None,
            indication=indication if with_ind else None,
        )
        out = fuse(features, params)
        assert out.branch_taken == branch
        assert out.fused.shape == (4, 8)
        assert np.all(np.isfinite(out.fused))
    base = fuse(FeatureSet(image=image, shc=shc, indication=indication), params).fused
    for _ in range(10):
        perm = rng.permutation(shc.shape[0])
        permuted = fuse(FeatureSet(image=image, shc=shc[perm], indication=indication), params).fused
        assert np.max(np.abs(permuted - base)) < 1e-10
    elapsed = time.perf_counter() - start
    report_pass("C7", "fusion branch totality and SHC permutation invariance", elapsed)


def test_c8_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    paths = write_pipeline_fixture(tmp_path)
    cmd = [sys.executable, "-m", "sei", "run", "--config", str(paths["config"])]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = [
        "filtered.jsonl",
        "sequences.jsonl",
        "normalized.jsonl",
        "index.bin",
        "shc.jsonl",
        "fusion.json",
        "scores.json",
        "run_manifest.json",
    ]
    first = {name: (paths["out_dir"] / name).read_bytes() for name in names}
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    second = {name: (paths["out_dir"] / name).read_bytes() for name in names}
    assert first == second
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_pass("C8", "pipeline run is byte-identical on rerun", elapsed)


def test_c9_m_gt_protocol(rng):
    start = time.perf_counter()
    gen = tuple(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=40))
    refs = [
        tuple(VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=int(n)))
        for n in rng.integers(70, 160, size=8)
    ]
    pairs = [EvalPair(generated=gen, reference=ref) for ref in refs]
    gen_snapshot = [p.generated for p in pairs]
    ref_snapshot = [p.reference for p in pairs]
    reports = {}
    for m_gt in (60, 80, 90, 100, math.inf):
        reports[m_gt] = score_corpus(pairs, m_gt=m_gt)
        # generated tokens bit-identical across every scenario
        assert [p.generated for p in pairs] == gen_snapshot
        # the stored reference is untouched; only the truncated view changes
        assert [p.reference for p in pairs] == ref_snapshot
    # truncation actually changed the reference-side metrics
    assert reports[60] != reports[math.inf]
    values = {m: tuple(r.values()) for m, r in reports.items()}
    assert len(set(values.values())) > 1
    elapsed = time.perf_counter() - start
    report_pass("C9", "reference truncation protocol", elapsed)
