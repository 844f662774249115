"""The :class:`KnowledgeGraph` facade.

A :class:`KnowledgeGraph` wraps a :class:`~repro.kg.store.TripleStore` and
adds the semantics OpenBG needs on top of raw triples:

* registration of classes, concepts, entities and relation kinds,
* taxonomy traversal along ``rdfs:subClassOf`` / ``skos:broader``,
* instance-of lookups along ``rdf:type``,
* neighbourhood extraction (used for the Figure 3 snapshot),
* conversion to integer-id tensors for the embedding models,
* export to ``networkx`` for structural analysis.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import OntologyError
from repro.kg.backend import DEFAULT_BACKEND, GraphBackend, unique_rows
from repro.kg.executor import id_backend
from repro.kg.namespaces import MetaProperty, TAXONOMY_PROPERTIES
from repro.kg.store import TripleStore
from repro.kg.triple import Triple
from repro.kg.vocab import Vocabulary


class KnowledgeGraph:
    """A business knowledge graph with ontology-aware helpers."""

    def __init__(self, name: str = "OpenBG",
                 backend: Union[str, GraphBackend] = DEFAULT_BACKEND) -> None:
        self.name = name
        self.store = TripleStore(backend=backend)
        self.classes: Set[str] = set()
        self.concepts: Set[str] = set()
        self.entities: Set[str] = set()
        self.object_properties: Set[str] = set()
        self.data_properties: Set[str] = set()
        self.meta_properties: Set[str] = {prop.value for prop in MetaProperty}
        self.images: Dict[str, np.ndarray] = {}
        self.descriptions: Dict[str, str] = {}
        self.labels: Dict[str, str] = {}
        self._concept_links_cache: Optional[
            Tuple[Tuple[int, int, int],
                  Tuple[Dict[str, List[str]], Dict[str, List[str]]]]] = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_class(self, identifier: str, label: Optional[str] = None) -> None:
        """Register a class (Category / Brand / Place or one of their subclasses)."""
        self.classes.add(identifier)
        if label:
            self.labels[identifier] = label

    def register_concept(self, identifier: str, label: Optional[str] = None) -> None:
        """Register a concept (Time / Scene / Theme / Crowd / Market Segment node)."""
        self.concepts.add(identifier)
        if label:
            self.labels[identifier] = label

    def register_entity(self, identifier: str, label: Optional[str] = None) -> None:
        """Register an instance-level entity (a product or item)."""
        self.entities.add(identifier)
        if label:
            self.labels[identifier] = label

    def register_object_property(self, identifier: str) -> None:
        """Register an object property (relation between classes/concepts)."""
        self.object_properties.add(identifier)

    def register_data_property(self, identifier: str) -> None:
        """Register a data property (attribute with literal values)."""
        self.data_properties.add(identifier)

    def attach_image(self, entity: str, features: np.ndarray) -> None:
        """Attach an image feature vector to an entity (multimodal fact)."""
        self.images[entity] = np.asarray(features, dtype=np.float32)
        self.add(Triple(entity, MetaProperty.IMAGE_IS.value, f"image://{entity}"))

    def attach_description(self, entity: str, text: str) -> None:
        """Attach an unstructured textual description (rdfs:comment)."""
        self.descriptions[entity] = text
        self.add(Triple(entity, MetaProperty.COMMENT.value, f"comment://{entity}"))

    # ------------------------------------------------------------------ #
    # triples
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Add a triple to the graph; returns True if it was new."""
        self._concept_links_cache = None
        return self.store.add(triple)

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number of new ones."""
        self._concept_links_cache = None
        return self.store.add_many(triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.store

    def __len__(self) -> int:
        return len(self.store)

    def triples(self) -> List[Triple]:
        """All triples in deterministic order."""
        return self.store.triples()

    def match(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None, sort: bool = False) -> List[Triple]:
        """Pattern matching, delegated to the store."""
        return self.store.match(head, relation, tail, sort=sort)

    # ------------------------------------------------------------------ #
    # conjunctive queries
    # ------------------------------------------------------------------ #
    def query_engine(self) -> "QueryEngine":
        """A :class:`~repro.kg.query.QueryEngine` over this graph's store.

        The engine plans conjunctive pattern queries (batched selectivity
        ordering) and executes them in ID space on columnar-family
        backends; the applications layer runs on this instead of
        hand-rolled triple scans.
        """
        from repro.kg.query import QueryEngine

        return QueryEngine(self.store)

    def concept_links(self) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        """(concept → products, product → concepts) over concept-link triples.

        A concept link is an object-property edge whose tail is a
        registered concept (``relatedScene`` / ``forCrowd`` /
        ``aboutTheme`` / ``appliedTime`` / ``inMarket_*`` — taxonomy
        meta-properties such as ``skos:broader`` are excluded by
        construction).  Evaluated as one batched single-pattern query
        per registered object property through the ID-space query
        executor; both maps hold sorted, deduplicated lists.

        The result is cached — every application simulator reads this
        index at construction, over a graph that is static by then.
        Callers receive an independent copy (mutating a returned list
        must not corrupt the cache or a sibling consumer).  The cache
        drops on :meth:`add` / :meth:`add_many` and whenever the store
        size or the concept/property registrations change; mutations
        that bypass the graph facade (a direct ``store.add`` paired
        with a size-preserving ``store.discard``) are not tracked.
        """
        from repro.kg.query import PatternQuery

        def copied(pair):
            return ({key: list(values) for key, values in pair[0].items()},
                    {key: list(values) for key, values in pair[1].items()})

        cache_key = (len(self.store), len(self.concepts),
                     len(self.object_properties))
        if self._concept_links_cache is not None \
                and self._concept_links_cache[0] == cache_key:
            return copied(self._concept_links_cache[1])
        by_concept: Dict[str, Set[str]] = {}
        by_product: Dict[str, Set[str]] = {}
        relations = sorted(self.object_properties)
        if not relations or not len(self.store):
            return {}, {}
        queries = [PatternQuery.from_patterns([("?product", relation, "?concept")])
                   for relation in relations]
        for rows in self.query_engine().execute_many(queries):
            for row in rows:
                concept = row["?concept"]
                if concept not in self.concepts:
                    continue
                product = row["?product"]
                by_concept.setdefault(concept, set()).add(product)
                by_product.setdefault(product, set()).add(concept)
        result = ({concept: sorted(products)
                   for concept, products in by_concept.items()},
                  {product: sorted(concepts)
                   for product, concepts in by_product.items()})
        self._concept_links_cache = (cache_key, result)
        return copied(result)

    # ------------------------------------------------------------------ #
    # taxonomy traversal
    # ------------------------------------------------------------------ #
    def parents(self, node: str) -> List[str]:
        """Direct taxonomy parents along subClassOf / broader."""
        result: Set[str] = set()
        for tails in self.store.tails_many([(node, prop) for prop in TAXONOMY_PROPERTIES]):
            result.update(tails)
        return sorted(result)

    def children(self, node: str) -> List[str]:
        """Direct taxonomy children along subClassOf / broader."""
        result: Set[str] = set()
        for triples in self.store.match_many(
                [(None, prop, node) for prop in TAXONOMY_PROPERTIES]):
            result.update(triple.head for triple in triples)
        return sorted(result)

    def ancestors(self, node: str) -> List[str]:
        """All transitive taxonomy ancestors (excluding the node itself)."""
        seen: Set[str] = set()
        frontier = deque(self.parents(node))
        while frontier:
            current = frontier.popleft()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.parents(current))
        return sorted(seen)

    def descendants(self, node: str) -> List[str]:
        """All transitive taxonomy descendants (excluding the node itself)."""
        seen: Set[str] = set()
        frontier = deque(self.children(node))
        while frontier:
            current = frontier.popleft()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.children(current))
        return sorted(seen)

    def is_subclass_of(self, node: str, candidate_ancestor: str) -> bool:
        """True when ``candidate_ancestor`` is a (transitive) taxonomy ancestor."""
        if node == candidate_ancestor:
            return True
        frontier = deque(self.parents(node))
        seen: Set[str] = set()
        while frontier:
            current = frontier.popleft()
            if current == candidate_ancestor:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.parents(current))
        return False

    def taxonomy_depth(self, node: str) -> int:
        """Length of the longest parent chain above ``node`` (root has depth 0).

        Computed iteratively with memoization so DAG-shaped taxonomies stay
        linear-time (the naive recursion is exponential on diamonds) and
        deep chains cannot hit ``RecursionError``.  Cycle edges — which the
        recursion would have followed forever — are ignored.
        """
        memo: Dict[str, int] = {}
        in_progress: Set[str] = {node}
        stack: List[Tuple[str, List[str]]] = [(node, self.parents(node))]
        while stack:
            current, current_parents = stack[-1]
            pending = next((p for p in current_parents
                            if p not in memo and p not in in_progress), None)
            if pending is not None:
                in_progress.add(pending)
                stack.append((pending, self.parents(pending)))
                continue
            memo[current] = max((1 + memo[p] for p in current_parents if p in memo),
                                default=0)
            in_progress.discard(current)
            stack.pop()
        return memo[node]

    def leaves_under(self, node: str) -> List[str]:
        """Taxonomy descendants of ``node`` that have no further children."""
        return sorted(d for d in self.descendants(node) if not self.children(d))

    # ------------------------------------------------------------------ #
    # instances
    # ------------------------------------------------------------------ #
    def instances_of(self, class_id: str, transitive: bool = False) -> List[str]:
        """Entities e with (e, rdf:type, class_id); optionally include subclasses."""
        targets = [class_id]
        if transitive:
            targets.extend(self.descendants(class_id))
        instances: Set[str] = set()
        for target in targets:
            instances.update(self.store.heads(MetaProperty.TYPE.value, target))
        return sorted(instances)

    def types_of(self, entity: str) -> List[str]:
        """Classes c with (entity, rdf:type, c)."""
        return self.store.tails(entity, MetaProperty.TYPE.value)

    # ------------------------------------------------------------------ #
    # neighbourhoods & export
    # ------------------------------------------------------------------ #
    def neighbourhood(self, node: str, hops: int = 1) -> List[Triple]:
        """All triples within ``hops`` undirected hops of ``node`` (Figure 3),
        in sorted (head, relation, tail) order.

        A breadth-first walk over interned ids: each hop fetches the out-
        and in-edges of the whole frontier in ONE ``match_ids_many`` (one
        round on a remote backend); strings appear only in the result.
        """
        if hops < 1:
            raise OntologyError("neighbourhood requires hops >= 1")
        backend = id_backend(self.store)
        node_id = backend.entity_interner.lookup(node)
        if node_id is None:
            return []
        frontier = [node_id]
        seen = {node_id}
        blocks: List[np.ndarray] = []
        for _ in range(hops):
            if not frontier:
                break
            fetched = backend.match_ids_many(
                [(current, None, None) for current in frontier]
                + [(None, None, current) for current in frontier])
            blocks.extend(fetched)
            reached = set(np.concatenate(
                [block[:, 2] for block in fetched[:len(frontier)]]
                + [block[:, 0] for block in fetched[len(frontier):]]).tolist())
            frontier = list(reached - seen)
            seen |= reached
        return backend._materialize(
            _symbol_sorted(backend, unique_rows(np.concatenate(blocks))))

    def to_networkx(self) -> "nx.MultiDiGraph":
        """Export to a ``networkx.MultiDiGraph`` with relation edge keys."""
        import networkx as nx  # here only: a serving process never loads it
        graph = nx.MultiDiGraph(name=self.name)
        for triple in self.store:
            graph.add_edge(triple.head, triple.tail, key=triple.relation,
                           relation=triple.relation)
        return graph

    # ------------------------------------------------------------------ #
    # integer-id views for embedding models
    # ------------------------------------------------------------------ #
    def build_vocabularies(
        self, relations: Optional[Sequence[str]] = None
    ) -> Tuple[Vocabulary, Vocabulary]:
        """Build (entity_vocab, relation_vocab) over the stored triples.

        ``relations`` restricts the relation vocabulary (and therefore the
        triples considered) to the given subset, which is how the benchmark
        builders produce OpenBG500-style relation-filtered views.

        Ids are assigned in sorted-symbol order, so the same graph yields
        the same vocabularies regardless of storage backend or insertion
        order.
        """
        backend = id_backend(self.store)
        ids = backend.match_ids()
        if relations is not None:
            allowed_ids = [backend.relation_interner.lookup(rel) for rel in relations]
            allowed_ids = [rel_id for rel_id in allowed_ids if rel_id is not None]
            ids = ids[np.isin(ids[:, 1], np.asarray(allowed_ids, dtype=np.int64))]
        entity_symbols = backend.entity_interner.symbol_table()
        relation_symbols = backend.relation_interner.symbol_table()
        return (Vocabulary(sorted(entity_symbols[entity_id] for entity_id
                                  in np.unique(ids[:, [0, 2]]).tolist())),
                Vocabulary(sorted(relation_symbols[relation_id] for relation_id
                                  in np.unique(ids[:, 1]).tolist())))

    def to_id_array(
        self,
        entity_vocab: Vocabulary,
        relation_vocab: Vocabulary,
        triples: Optional[Iterable[Triple]] = None,
    ) -> np.ndarray:
        """Encode triples to an (n, 3) int64 array of (head, relation, tail) ids.

        Triples whose symbols are missing from the vocabularies are skipped,
        mirroring the standard practice of dropping unseen-entity test triples.
        """
        if triples is None:
            # Translate the backend's interned ids to vocab ids in bulk:
            # one lookup per *unique* symbol instead of three per triple.
            backend = id_backend(self.store)
            ids = _symbol_sorted(backend, backend.match_ids())
            entity_map = np.full(len(backend.entity_interner), -1, dtype=np.int64)
            for interned_id, symbol in enumerate(backend.entity_interner):
                vocab_id = entity_vocab.get(symbol)
                if vocab_id is not None:
                    entity_map[interned_id] = vocab_id
            relation_map = np.full(len(backend.relation_interner), -1, dtype=np.int64)
            for interned_id, symbol in enumerate(backend.relation_interner):
                vocab_id = relation_vocab.get(symbol)
                if vocab_id is not None:
                    relation_map[interned_id] = vocab_id
            encoded = np.column_stack((entity_map[ids[:, 0]],
                                       relation_map[ids[:, 1]],
                                       entity_map[ids[:, 2]]))
            return encoded[(encoded >= 0).all(axis=1)]
        rows: List[Tuple[int, int, int]] = []
        for triple in triples:
            head_id = entity_vocab.get(triple.head)
            rel_id = relation_vocab.get(triple.relation)
            tail_id = entity_vocab.get(triple.tail)
            if head_id is None or rel_id is None or tail_id is None:
                continue
            rows.append((head_id, rel_id, tail_id))
        if not rows:
            return np.zeros((0, 3), dtype=np.int64)
        return np.asarray(rows, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def relation_frequencies(self) -> Dict[str, int]:
        """Relation → triple count."""
        return self.store.relation_frequencies()

    def label_of(self, identifier: str) -> str:
        """Human-readable label for an identifier (falls back to the id)."""
        return self.labels.get(identifier, identifier)

    def describe(self) -> Dict[str, int]:
        """Cheap size summary used in logs and examples."""
        return {
            "classes": len(self.classes),
            "concepts": len(self.concepts),
            "entities": len(self.entities),
            "object_properties": len(self.object_properties),
            "data_properties": len(self.data_properties),
            "triples": len(self.store),
            "multimodal_entities": len(self.images),
        }


def _symbol_sorted(backend, rows: np.ndarray) -> np.ndarray:
    """``rows`` (a (k, 3) id block) in sorted (head, relation, tail)
    symbol order, through the interners' cached sort ranks."""
    entity_rank = backend.entity_interner.sort_rank()
    relation_rank = backend.relation_interner.sort_rank()
    return rows[np.lexsort((entity_rank[rows[:, 2]], relation_rank[rows[:, 1]],
                            entity_rank[rows[:, 0]]))]
