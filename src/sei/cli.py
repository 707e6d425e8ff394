"""Command-line interface: ``sei run``, one subcommand per pipeline stage, and two tools.

``sei run --config C`` runs every stage of the config file ``C``
(``pipeline.run_pipeline``).  ``sei <stage> --config C`` runs one entry of
``pipeline.STAGE_ORDER`` from the same file (``pipeline.run_stage``), and the
subcommands are built from that table.  A stage run alone reads the earlier
results it takes back from their artifacts in ``paths.out_dir``:
``filtered.jsonl`` and ``normalized.jsonl`` (the index stage takes its ids
from this one), ``sequences.jsonl`` and ``index.bin``.  It parses
``paths.embeddings`` and the ``paths.generated*`` files itself.  A missing
earlier artifact exits 3 naming its path.  Running every stage in
``STAGE_ORDER`` writes the bytes ``sei run`` writes, but no
``run_manifest.json``, and a stage run alone deletes the one a run left,
since that manifest's hashes no longer vouch for the directory.

``sei filter`` takes one more flag, ``--dropped PATH``, for the dropped ids
and their reasons.  That file is the only place drop reasons show: they are
not written into ``paths.out_dir``, which holds a run's artifacts and
manifest and nothing else.

``fuse-demo`` has no flag form: a config reaches all four fusion branches,
with similar cases iff ``k`` and ``fusion.sh`` are above 0, and indications
iff ``fusion.sn`` is and some record has one.
``retrieve`` and ``align-demo`` are not stages and keep their flags:
``retrieve`` queries an index already built, and ``align-demo`` evaluates
the alignment losses at sizes no config section declares; it prints
``max_fd_rel_error`` as a power of ten, which a sum's last bits do not move.

Exit codes: 0 success, 2 validation error, 3 IO error or out of memory.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .errors import StageError, ToolkitError, ValidationError, check_addressable, check_at_least
from .gradcheck import max_fd_error
from .losses import (
    AlignmentBatch,
    global_alignment_loss,
    local_alignment_loss,
    total_alignment_loss,
    total_alignment_loss_grad,
)
from .pipeline import STAGE_ORDER, STAGES, load_config, run_pipeline, run_stage
from .retrieval import load_index, top_k


def _cmd_stage(args) -> int:
    options = {"dropped": args.dropped} if args.command == "filter" else {}
    print(f"wrote {run_stage(load_config(args.config), args.command, **options)}")
    return 0


def _cmd_retrieve(args) -> int:
    index = load_index(args.index)
    row = index.row_of(args.study_id)
    if row is None:
        raise ValidationError(f"study {args.study_id!r} is not in the index")
    result = top_k(index, index.matrix[row], args.k, exclude_id=args.study_id)
    for rank, (sid, score) in enumerate(result.hits, 1):
        print(f"{rank}\t{sid}\t{score:.6f}")
    return 0


def _decade_ceiling(value: float) -> str:
    """The smallest power of ten at or above ``value`` >= 0, as ``1e-08``; 0 and non-finite values as they are."""
    if not 0 < value < math.inf:
        return f"{value:g}"
    exp = int(f"{value:e}".split("e")[1])  # 1e{exp} is the answer or one decade below it
    return f"1e{exp + (float(f'1e{exp}') < value):+03d}"


def _cmd_align_demo(args) -> int:
    check_at_least(0, seed=args.seed, b=args.b)
    check_at_least(1, d=args.d)
    check_addressable(image_locals=(args.b, 3, args.d))
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
    print(f"max_fd_rel_error: {_decade_ceiling(max_err)}")
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

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_run)

    for stage in STAGE_ORDER:
        p = sub.add_parser(stage, help=f"run the {stage} stage of a config alone; writes {STAGES[stage].artifact}")
        p.add_argument("--config", required=True)
        p.set_defaults(handler=_cmd_stage)
    sub.choices["filter"].add_argument("--dropped", help="JSONL file for the dropped ids and reasons")

    p = sub.add_parser("retrieve", help="query the index by stored study id")
    p.add_argument("--index", required=True)
    p.add_argument("--query-id", dest="study_id", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(handler=_cmd_retrieve)

    p = sub.add_parser("align-demo", help="evaluate alignment losses on seeded features")
    p.add_argument("--b", type=int, default=4)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--tau", type=float, default=AlignmentBatch.temperature)
    p.set_defaults(handler=_cmd_align_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.cause if isinstance(exc, StageError) else exc, OSError) else 2
    except MemoryError as exc:  # numpy's names the array it could not allocate; Python's may have no text
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
