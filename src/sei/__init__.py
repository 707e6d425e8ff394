"""Deterministic toolkit for chest X-ray reporting pipelines.

Importing ``sei`` loads no submodule; each public name is imported from the
module that defines it:

* ``sei.corpus``: study records, the tokenizer, corpus JSONL reading and
  writing, the corpus filter and ``atomic_write``;
* ``sei.see``: structural entity extraction into factual entity sequences;
* ``sei.indications``: indication normalization;
* ``sei.retrieval``: the embeddings reader, the embedding index and its
  file format, exact top-k retrieval and similar-case attachment;
* ``sei.fusion``: the cross-modal fusion network and its backward pass;
* ``sei.losses``: the alignment and NLL objectives with their gradients;
* ``sei.metrics``: BLEU, ROUGE-L, label micro-F1 and entity F1;
* ``sei.pipeline``: the run configuration, the stage table and manifests;
* ``sei.cli``: the ``sei`` command;
* ``sei.errors``: the error types and shared value checks;
* ``sei.gradcheck``: the finite-difference gradient probe.
"""

__version__ = "0.3.0"
