"""Command-line interface: one subcommand per pipeline operation plus `run`.

Exit codes: 0 success, 2 validation error, 3 IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .corpus import CorpusFilterConfig, _read_json, load_corpus, load_embeddings
from .errors import StageError, ToolkitError, ValidationError, check_at_least
from .gradcheck import max_fd_error
from .indications import NormalizerConfig
from .losses import (
    AlignmentBatch,
    global_alignment_loss,
    local_alignment_loss,
    total_alignment_loss,
    total_alignment_loss_grad,
)
from .metrics import M_GT_CHOICES
from .pipeline import (
    FusionConfig,
    PipelineConfig,
    _dump_json,
    _parse_config,
    _read_id_map,
    _stage_attach,
    _stage_filter,
    _stage_normalize,
    _stage_see,
    fuse_demo_result,
    load_config,
    m_gt_key,
    parse_m_gt,
    run_pipeline,
    score_from_files,
)
from .retrieval import index_from_vectors, load_index, save_index, top_k

M_GT_FLAG_CHOICES = tuple(map(m_gt_key, M_GT_CHOICES))


def _cmd_filter(args) -> int:
    rules = _parse_config(CorpusFilterConfig, _read_json(args.filter_config) if args.filter_config else {})
    kept, dropped = _stage_filter(load_corpus(args.corpus), args.out, rules, args.dropped)
    print(f"kept {len(kept)} of {len(kept) + dropped} records ({dropped} dropped)")
    return 0


def _cmd_see_extract(args) -> int:
    records = load_corpus(args.corpus)
    _stage_see(records, args.out)
    print(f"extracted {len(records)} factual sequences")
    return 0


def _cmd_normalize(args) -> int:
    normalized = _stage_normalize(load_corpus(args.corpus), args.out, NormalizerConfig())
    print(f"normalized {len(normalized)} records")
    return 0


def _cmd_index(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    index = index_from_vectors(embeddings.ids, embeddings.matrix, normalize=not args.no_normalize)
    save_index(index, args.out)
    print(f"indexed {index.n} embeddings of dimension {index.dim}")
    return 0


def _cmd_retrieve(args) -> int:
    index = load_index(args.index)
    row = index.row_of(args.query_id)
    if row is None:
        raise ValidationError(f"study {args.query_id!r} is not in the index")
    result = top_k(index, index.matrix[row], args.k, exclude_id=args.query_id)
    for rank, (sid, score) in enumerate(result.hits, 1):
        print(f"{rank}\t{sid}\t{score:.6f}")
    return 0


def _cmd_attach_shc(args) -> int:
    records, embeddings = load_corpus(args.corpus), load_embeddings(args.embeddings)
    index = load_index(args.index)
    sequences = _read_id_map(args.sequences, "factual_sequence") if args.sequences is not None else None
    n = _stage_attach(records, index, embeddings, sequences, args.out, args.k)
    print(f"attached top-{args.k} cases for {n} records")
    return 0


def _cmd_fuse_demo(args) -> int:
    check_at_least(0, seed=args.seed)
    fusion = FusionConfig(**{f.name: getattr(args, f.name) for f in fields(FusionConfig)})
    result = fuse_demo_result(fusion, args.seed, not args.no_shc, not args.no_indication)
    print(f"branch: {result['branch']}")
    print(f"checksum: sha256:{result['checksum']}")
    print(f"output_sum: {result['output_sum']:.12e}")
    print(f"max_fd_rel_error: {result['max_fd_rel_error']:.3e}")
    return 0


def _cmd_align_demo(args) -> int:
    check_at_least(0, seed=args.seed, b=args.b)
    rng = np.random.default_rng(args.seed)
    batch = AlignmentBatch(
        image_feats=rng.standard_normal((args.b, args.d)),
        text_feats=rng.standard_normal((args.b, args.d)),
        image_locals=rng.standard_normal((args.b, 3, args.d)),
        text_locals=rng.standard_normal((args.b, 3, args.d)),
        temperature=args.tau,
    )
    loss_i2t = global_alignment_loss(batch, "image_to_text")
    loss_t2i = global_alignment_loss(batch, "text_to_image")
    loss_local = local_alignment_loss(batch)
    total, grads = total_alignment_loss_grad(batch)
    pairs = ((getattr(batch, name), grad) for name, grad in grads.items())
    max_err, _ = max_fd_error(lambda: total_alignment_loss(batch), pairs, rng, 6)
    print(f"global_image_to_text: {loss_i2t:.6f}")
    print(f"global_text_to_image: {loss_t2i:.6f}")
    print(f"local: {loss_local:.6f}")
    print(f"total: {total:.6f}")
    print(f"max_fd_rel_error: {max_err:.3e}")
    return 0


def _cmd_score(args) -> int:
    m_gt = parse_m_gt(args.mgt)
    records = load_corpus(args.ref)
    report = score_from_files(records, args.ref, args.gen, args.labels, args.entities, (m_gt,))[m_gt_key(m_gt)]
    if args.out:
        _dump_json(args.out, report)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _cmd_run(args) -> int:
    manifest = run_pipeline(load_config(args.config))
    print(f"pipeline complete; manifest at {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sei",
        description="Structural entity sequences, similar-case retrieval, fusion math, and scoring.",
    )
    parser.add_argument("--version", action="version", version=f"sei {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="drop empty or junk reports")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dropped", help="optional JSONL of dropped ids and reasons")
    p.add_argument("--filter-config", help="JSON file with min_tokens and junk_patterns")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("see-extract", help="emit factual entity sequences")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_see_extract)

    p = sub.add_parser("normalize", help="normalize indication fields")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("index", help="build a binary embedding index")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-normalize", action="store_true", help="index raw, unnormalized rows")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("retrieve", help="query the index by stored study id")
    p.add_argument("--index", required=True)
    p.add_argument("--query-id", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(handler=_cmd_retrieve)

    p = sub.add_parser("attach-shc", help="attach top-k similar cases to each record")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--k", type=int, default=PipelineConfig.k)
    p.add_argument("--out", required=True)
    p.add_argument("--sequences", help="precomputed factual sequences JSONL")
    p.set_defaults(handler=_cmd_attach_shc)

    p = sub.add_parser("fuse-demo", help="run the fusion network on seeded features")
    for f in fields(FusionConfig):
        p.add_argument(f"--{f.name}", type=type(f.default), default=f.default)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--no-indication", action="store_true")
    p.add_argument("--no-shc", action="store_true")
    p.set_defaults(handler=_cmd_fuse_demo)

    p = sub.add_parser("align-demo", help="evaluate alignment losses on seeded features")
    p.add_argument("--b", type=int, default=4)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--tau", type=float, default=AlignmentBatch.temperature)
    p.set_defaults(handler=_cmd_align_demo)

    p = sub.add_parser("score", help="score generated reports against a reference corpus")
    p.add_argument("--gen", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--labels", help="generated-side label CSV (study_id,l1..l14)")
    p.add_argument("--entities", help="generated-side entities JSONL")
    p.add_argument("--mgt", choices=M_GT_FLAG_CHOICES, default=m_gt_key(*PipelineConfig.m_gt))
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.cause, OSError) else 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
