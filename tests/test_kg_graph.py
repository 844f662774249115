"""Tests for KnowledgeGraph: registration, taxonomy, instances, encoding."""

from __future__ import annotations

import numpy as np
import pytest

from _oracle import SetBackend, mapped_backend, neighbourhood
from repro.benchmark.sampling import SamplingConfig, ThreeStageSampler
from repro.errors import OntologyError, QueryError
from repro.kg.backend import ColumnarBackend
from repro.kg.graph import KnowledgeGraph
from repro.kg.namespaces import MetaProperty
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.triple import Triple
from repro.kg.vocab import Vocabulary


def _taxonomy_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph("test")
    sub = MetaProperty.SUBCLASS_OF.value
    for identifier in ["Category", "food", "rice", "northeast_rice", "noodles"]:
        graph.register_class(identifier, identifier)
    graph.add(Triple("food", sub, "Category"))
    graph.add(Triple("rice", sub, "food"))
    graph.add(Triple("northeast_rice", sub, "rice"))
    graph.add(Triple("noodles", sub, "food"))
    graph.register_entity("p1", "product one")
    graph.add(Triple("p1", MetaProperty.TYPE.value, "northeast_rice"))
    return graph


def test_parents_children():
    graph = _taxonomy_graph()
    assert graph.parents("rice") == ["food"]
    assert graph.children("food") == ["noodles", "rice"]


def test_ancestors_descendants():
    graph = _taxonomy_graph()
    assert graph.ancestors("northeast_rice") == ["Category", "food", "rice"]
    assert set(graph.descendants("food")) == {"rice", "northeast_rice", "noodles"}


def test_is_subclass_of_and_depth():
    graph = _taxonomy_graph()
    assert graph.is_subclass_of("northeast_rice", "Category")
    assert graph.is_subclass_of("rice", "rice")
    assert not graph.is_subclass_of("noodles", "rice")
    assert graph.taxonomy_depth("northeast_rice") == 3


def test_leaves_under():
    graph = _taxonomy_graph()
    assert graph.leaves_under("food") == ["noodles", "northeast_rice"]


def test_instances_of_direct_and_transitive():
    graph = _taxonomy_graph()
    assert graph.instances_of("northeast_rice") == ["p1"]
    assert graph.instances_of("food") == []
    assert graph.instances_of("food", transitive=True) == ["p1"]
    assert graph.types_of("p1") == ["northeast_rice"]


def test_neighbourhood_hops():
    graph = _taxonomy_graph()
    one_hop = graph.neighbourhood("p1", hops=1)
    assert Triple("p1", MetaProperty.TYPE.value, "northeast_rice") in one_hop
    two_hop = graph.neighbourhood("p1", hops=2)
    assert len(two_hop) > len(one_hop)
    with pytest.raises(OntologyError):
        graph.neighbourhood("p1", hops=0)


def test_attach_image_and_description():
    graph = KnowledgeGraph()
    graph.register_entity("p1")
    graph.attach_image("p1", np.ones(4))
    graph.attach_description("p1", "a nice product")
    assert "p1" in graph.images
    assert graph.descriptions["p1"] == "a nice product"
    assert graph.match(head="p1", relation=MetaProperty.IMAGE_IS.value)


def test_build_vocabularies_and_id_array():
    graph = _taxonomy_graph()
    entity_vocab, relation_vocab = graph.build_vocabularies()
    array = graph.to_id_array(entity_vocab, relation_vocab)
    assert array.shape == (len(graph), 3)
    assert array.dtype == np.int64
    assert array[:, [0, 2]].max() < len(entity_vocab)
    assert array[:, 1].max() < len(relation_vocab)


def test_build_vocabularies_with_relation_filter():
    graph = _taxonomy_graph()
    entity_vocab, relation_vocab = graph.build_vocabularies(
        relations=[MetaProperty.TYPE.value])
    assert len(relation_vocab) == 1
    assert set(entity_vocab.symbols()) == {"p1", "northeast_rice"}


def test_to_networkx_edge_count():
    graph = _taxonomy_graph()
    nx_graph = graph.to_networkx()
    assert nx_graph.number_of_edges() == len(graph)


def test_describe_and_label_of():
    graph = _taxonomy_graph()
    summary = graph.describe()
    assert summary["classes"] == 5
    assert summary["entities"] == 1
    assert graph.label_of("p1") == "product one"
    assert graph.label_of("unknown") == "unknown"


def test_constructed_graph_counts(construction_result):
    """Integration: the pipeline-built graph has consistent headline counts."""
    graph = construction_result.graph
    summary = graph.describe()
    assert summary["triples"] == len(graph)
    assert summary["entities"] > 0
    assert summary["classes"] > 0
    assert summary["multimodal_entities"] > 0


# --------------------------------------------------------------------------- #
# one id path: every package backend answers the graph and sampler reads alike
# --------------------------------------------------------------------------- #
#: An edge of its own: a walk from ``island:a`` runs out of frontier
#: after two hops.
_ISLAND = Triple("island:a", "islandOf", "island:b")

_SAMPLER_CONFIGS = (
    SamplingConfig(name="img", num_relations=10, require_images=True, seed=3),
    SamplingConfig(name="wide", num_relations=25, triple_sampling_rate=0.6,
                   seed=5),
)


def _copy_graph(source: KnowledgeGraph, backend) -> KnowledgeGraph:
    graph = KnowledgeGraph(backend=backend)
    graph.add_many(source.triples() + [_ISLAND])
    graph.images = source.images
    return graph


def _graph_reads(graph: KnowledgeGraph, nodes):
    """Every id-path read of ``graph``, as plain comparable values."""
    reads = {}
    for hops in (1, 2, 3):
        reads[f"neighbourhood-{hops}"] = [graph.neighbourhood(node, hops)
                                          for node in nodes]
    relations = sorted(graph.relation_frequencies())[::3]
    for label, subset in (("all", None), ("subset", relations)):
        entity_vocab, relation_vocab = graph.build_vocabularies(subset)
        reads[f"vocabularies-{label}"] = (entity_vocab.symbols(),
                                          relation_vocab.symbols())
        reads[f"id-array-{label}"] = graph.to_id_array(
            entity_vocab, relation_vocab).tolist()
    for config in _SAMPLER_CONFIGS:
        stages = ThreeStageSampler(graph).run(config)
        reads[f"sampler-{config.name}"] = (
            stages.triples, sorted(stages.head_entities),
            stages.reduction_table())
    return reads


def test_graph_and_sampler_reads_agree_on_every_backend(graph):
    nodes = sorted(graph.store.entities())[::40] + ["island:a", "no-such-node"]
    graphs = {name: _copy_graph(graph, backend)
              for name, backend in (("columnar", ColumnarBackend()),
                                    ("mapped", mapped_backend()),
                                    ("sharded-3", ShardedBackend(3)))}
    reads = {name: _graph_reads(copy, nodes) for name, copy in graphs.items()}
    columnar = reads["columnar"]
    assert columnar["neighbourhood-3"][-1] == []
    assert columnar["neighbourhood-1"][-2] == columnar["neighbourhood-3"][-2] \
        == [_ISLAND]
    assert all(columnar["neighbourhood-2"][:-2])
    for hops in (1, 2, 3):
        assert columnar[f"neighbourhood-{hops}"] == [
            neighbourhood(graphs["columnar"].store, node, hops)
            for node in nodes]
    assert len(columnar["vocabularies-subset"][1]) \
        < len(columnar["vocabularies-all"][1])
    for name in ("mapped", "sharded-3"):
        for key, value in columnar.items():
            assert reads[name][key] == value, (name, key)


def test_graph_reads_refuse_a_string_only_backend():
    graph = KnowledgeGraph(backend=SetBackend())
    graph.add_many([_ISLAND, Triple("island:a", MetaProperty.TYPE.value, "c")])
    refused = "SetBackend.*id-level"
    with pytest.raises(QueryError, match=refused):
        graph.neighbourhood("island:a")
    with pytest.raises(QueryError, match=refused):
        graph.build_vocabularies()
    with pytest.raises(QueryError, match=refused):
        graph.to_id_array(Vocabulary(), Vocabulary())
    with pytest.raises(QueryError, match=refused):
        ThreeStageSampler(graph).run(SamplingConfig(name="t", num_relations=2))


def _overlay_dirty_graph(source: KnowledgeGraph) -> KnowledgeGraph:
    """A columnar graph built in one bulk load, plus one add left pending
    in the delta overlay (far below ``delta_threshold``)."""
    graph = _copy_graph(source, ColumnarBackend())
    assert graph.store.backend.rebuild_count == 1
    graph.add(Triple("product:pending", "brandIs", "brand:pending"))
    return graph


@pytest.mark.parametrize("read", ["neighbourhood", "vocabularies", "sampler"])
def test_graph_reads_do_not_consolidate_the_overlay(graph, read):
    dirty = _overlay_dirty_graph(graph)
    backend = dirty.store.backend
    if read == "neighbourhood":
        assert dirty.neighbourhood("brand:pending", hops=2) == [
            Triple("product:pending", "brandIs", "brand:pending")]
    elif read == "vocabularies":
        entity_vocab, relation_vocab = dirty.build_vocabularies()
        assert "product:pending" in entity_vocab
        assert len(dirty.to_id_array(entity_vocab, relation_vocab)) == len(dirty)
    else:
        for config in _SAMPLER_CONFIGS:
            assert ThreeStageSampler(dirty).run(config).triples
    assert backend.rebuild_count == 1
    assert backend._overlay_size() == 1
