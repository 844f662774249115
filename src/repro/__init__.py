"""repro — a laptop-scale reproduction of OpenBG (ICDE 2023).

OpenBG is a billion-scale pre-trained multimodal business knowledge graph
built at Alibaba.  This package re-implements every subsystem the paper
describes — the ontology and KG substrate, the multi-source construction
pipeline, the benchmark sampling procedure, single-modal and multimodal KG
embedding models, a KG-enhanced vision-language pre-training stack built on
an in-package autograd engine, the five downstream tasks, and the online
application simulators — at a scale that runs on a single machine with no
dependency beyond numpy; networkx is loaded only by
:meth:`KnowledgeGraph.to_networkx`.

Top-level convenience imports expose the most commonly used entry points::

    from repro import (
        KnowledgeGraph, Triple, build_core_ontology,
        SyntheticCatalogConfig, generate_catalog,
        OpenBGBuilder, BenchmarkBuilder,
        TransE, LinkPredictionEvaluator,
    )

They resolve lazily, on first access, so ``import repro.kg.server`` (a
serving process) loads the kg stack and not the construction, benchmark
and embedding modules these names live in.
"""

import importlib

from repro.version import __version__

#: Each lazily resolved name and the module that defines it.
_EXPORTS = {
    "Triple": "repro.kg.triple",
    "KnowledgeGraph": "repro.kg.graph",
    "TripleStore": "repro.kg.store",
    "build_core_ontology": "repro.ontology.core_ontology",
    "SyntheticCatalogConfig": "repro.datagen.catalog",
    "generate_catalog": "repro.datagen.catalog",
    "OpenBGBuilder": "repro.construction.pipeline",
    "BenchmarkBuilder": "repro.benchmark.builders",
    "TransE": "repro.embedding.transe",
    "LinkPredictionEvaluator": "repro.embedding.evaluation",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
