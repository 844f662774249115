"""The three-stage benchmark sampling procedure (Section III-A, Figure 4).

Given the full OpenBG {E, R, T}:

1. **Relation refinement** — manually-motivated filtering of representative
   relations: keep high-frequency, business-related relations; drop meta and
   bookkeeping relations.  Produces R_N (N = 136, 500, 500-L).
2. **Head entity filtering** — split R_N into head-relations (frequent) and
   tail-relations (rare); sample the head entities of each group with rates
   α_h > α_l (Equation 1).
3. **Tail entity sampling** — keep the triples whose head survived and whose
   relation is in R_N, then sample them at a per-benchmark rate α_N
   (Equation 2).

Each stage records its intermediate counts so the Figure 4 bench can print
the stage-by-stage reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.errors import BenchmarkError
from repro.kg.executor import id_backend
from repro.kg.graph import KnowledgeGraph
from repro.kg.namespaces import MetaProperty
from repro.kg.triple import Triple
from repro.utils.rng import derive_rng


@dataclass
class SamplingConfig:
    """Parameters of the three-stage sampler for one benchmark."""

    name: str
    num_relations: int
    head_sampling_rate: float = 0.9   # α_h for frequent (head) relations
    tail_sampling_rate: float = 0.5   # α_l for rare (tail) relations
    triple_sampling_rate: float = 0.9  # α_N for the final triple sampling
    head_relation_fraction: float = 0.3  # fraction of relations treated as "head"
    require_images: bool = False
    dev_fraction: float = 0.05
    test_fraction: float = 0.1
    min_split_size: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for attribute in ("head_sampling_rate", "tail_sampling_rate",
                          "triple_sampling_rate", "head_relation_fraction"):
            value = getattr(self, attribute)
            if not 0.0 < value <= 1.0:
                raise BenchmarkError(f"{attribute} must be in (0, 1], got {value}")
        if self.head_sampling_rate < self.tail_sampling_rate:
            raise BenchmarkError("head_sampling_rate (α_h) must be ≥ tail_sampling_rate (α_l)")
        if self.num_relations <= 0:
            raise BenchmarkError("num_relations must be positive")
        for attribute in ("dev_fraction", "test_fraction"):
            value = getattr(self, attribute)
            if not 0.0 < value < 1.0:
                raise BenchmarkError(f"{attribute} must be in (0, 1), got {value}")
        if self.dev_fraction + self.test_fraction >= 1.0:
            raise BenchmarkError("dev_fraction + test_fraction must be < 1")


@dataclass
class SamplingStages:
    """Intermediate counts recorded by each sampling stage (Figure 4)."""

    candidate_relations: int = 0
    refined_relations: int = 0
    candidate_head_entities: int = 0
    sampled_head_entities: int = 0
    candidate_triples: int = 0
    sampled_triples: int = 0
    relations: List[str] = field(default_factory=list)
    head_entities: Set[str] = field(default_factory=set)
    triples: List[Triple] = field(default_factory=list)

    def reduction_table(self) -> List[List[str]]:
        """Rows of (stage, before, after) for the Figure 4 bench."""
        return [
            ["relation refinement", str(self.candidate_relations),
             str(self.refined_relations)],
            ["head entity filtering", str(self.candidate_head_entities),
             str(self.sampled_head_entities)],
            ["tail entity sampling", str(self.candidate_triples),
             str(self.sampled_triples)],
        ]


#: Relations never selected by relation refinement (meta / bookkeeping).
EXCLUDED_RELATIONS: Set[str] = {
    MetaProperty.SUBCLASS_OF.value,
    MetaProperty.BROADER.value,
    MetaProperty.LABEL.value,
    MetaProperty.LABEL_EN.value,
    MetaProperty.PREF_LABEL.value,
    MetaProperty.ALT_LABEL.value,
    MetaProperty.COMMENT.value,
    MetaProperty.IMAGE_IS.value,
    MetaProperty.EQUIVALENT_CLASS.value,
    MetaProperty.EQUIVALENT_PROPERTY.value,
    MetaProperty.SUBPROPERTY_OF.value,
}


class ThreeStageSampler:
    """Runs relation refinement, head-entity filtering and tail sampling."""

    def __init__(self, graph: KnowledgeGraph) -> None:
        self.graph = graph

    # ------------------------------------------------------------------ #
    # stage 1: relation refinement
    # ------------------------------------------------------------------ #
    def refine_relations(self, config: SamplingConfig,
                         stages: SamplingStages) -> List[str]:
        """Select the top-``num_relations`` business relations by frequency.

        ``rdf:type`` is always kept (category membership is the most
        business-relevant link and the basis of the category-prediction
        task); structural meta-properties and label plumbing are excluded.
        """
        frequencies = self.graph.relation_frequencies()
        stages.candidate_relations = len(frequencies)
        candidates = {
            relation: count for relation, count in frequencies.items()
            if relation not in EXCLUDED_RELATIONS
        }
        ordered = sorted(candidates.items(), key=lambda item: (-item[1], item[0]))
        selected = [relation for relation, _count in ordered[: config.num_relations]]
        type_relation = MetaProperty.TYPE.value
        if type_relation in candidates and type_relation not in selected:
            selected[-1] = type_relation
        stages.refined_relations = len(selected)
        stages.relations = selected
        return selected

    # ------------------------------------------------------------------ #
    # stage 2: head entity filtering
    # ------------------------------------------------------------------ #
    def filter_head_entities(self, relations: Sequence[str], config: SamplingConfig,
                             stages: SamplingStages) -> Set[str]:
        """Sample head entities with rate α_h for head-relations, α_l for tail-relations.

        The whole stage runs on interned-id arrays.  The sample depends on
        the symbols only, never on id assignment: ids are ordered by
        lexicographic symbol rank before ``rng.choice``.
        """
        frequencies = self.graph.relation_frequencies()
        ordered = sorted(relations, key=lambda rel: (-frequencies.get(rel, 0), rel))
        num_head = max(1, int(round(len(ordered) * config.head_relation_fraction)))
        head_relations = set(ordered[:num_head])
        rng = derive_rng(config.seed, "head-sampling", config.name)

        backend = id_backend(self.graph.store)
        head_groups: List[np.ndarray] = []
        tail_groups: List[np.ndarray] = []
        for relation in relations:
            relation_id = backend.relation_interner.lookup(relation)
            if relation_id is None:
                continue
            heads = backend.match_ids(relation_id=relation_id)[:, 0]
            (head_groups if relation in head_relations else tail_groups).append(heads)
        head_ids = np.unique(np.concatenate(head_groups)) if head_groups \
            else np.zeros(0, dtype=np.int64)
        tail_ids = np.unique(np.concatenate(tail_groups)) if tail_groups \
            else np.zeros(0, dtype=np.int64)
        stages.candidate_head_entities = int(len(np.union1d(head_ids, tail_ids)))
        rank = backend.entity_interner.sort_rank()
        sampled_ids = self._sample_ids(head_ids, config.head_sampling_rate, rng, rank)
        sampled_ids = np.union1d(
            sampled_ids,
            self._sample_ids(np.setdiff1d(tail_ids, head_ids),
                             config.tail_sampling_rate, rng, rank))
        symbol = backend.entity_interner.symbol_of
        sampled = {symbol(int(entity_id)) for entity_id in sampled_ids}
        stages.sampled_head_entities = len(sampled)
        stages.head_entities = sampled
        return sampled

    @staticmethod
    def _sample_ids(ids: np.ndarray, rate: float, rng: np.random.Generator,
                    rank: np.ndarray) -> np.ndarray:
        """Draw ``round(len(ids) * rate)`` ids (at least one) without
        replacement from ``ids`` in symbol-rank order."""
        if ids.size == 0:
            return ids
        ordered = ids[np.argsort(rank[ids])]
        count = max(1, int(round(len(ordered) * rate)))
        chosen = rng.choice(len(ordered), size=min(count, len(ordered)), replace=False)
        return ordered[chosen]

    # ------------------------------------------------------------------ #
    # stage 3: tail entity sampling
    # ------------------------------------------------------------------ #
    def sample_triples(self, relations: Sequence[str], head_entities: Set[str],
                       config: SamplingConfig, stages: SamplingStages) -> List[Triple]:
        """Keep triples with surviving heads and relations, sample at α_N.

        Candidate collection, head filtering, the image requirement and
        the final deterministic sort all run on id arrays; strings are
        materialized once, for the returned sample.
        """
        backend = id_backend(self.graph.store)
        entity_rank = backend.entity_interner.sort_rank()
        relation_rank = backend.relation_interner.sort_rank()
        head_id_list = [backend.entity_interner.lookup(head) for head in head_entities]
        head_id_array = np.asarray(
            sorted(head_id for head_id in head_id_list if head_id is not None),
            dtype=np.int64)
        image_mask = np.zeros(len(backend.entity_interner), dtype=bool)
        for entity in self.graph.images:
            entity_id = backend.entity_interner.lookup(entity)
            if entity_id is not None:
                image_mask[entity_id] = True

        groups: List[np.ndarray] = []
        for relation in relations:
            relation_id = backend.relation_interner.lookup(relation)
            if relation_id is None:
                continue
            rows = backend.match_ids(relation_id=relation_id)
            # Seed parity: per-relation candidates in string-sorted
            # (head, tail) order, reproduced via symbol ranks.
            rows = rows[np.lexsort((entity_rank[rows[:, 2]], entity_rank[rows[:, 0]]))]
            keep = np.isin(rows[:, 0], head_id_array)
            if config.require_images:
                keep &= image_mask[rows[:, 0]] | image_mask[rows[:, 2]]
            groups.append(rows[keep])
        candidates = np.concatenate(groups, axis=0) if groups \
            else np.zeros((0, 3), dtype=np.int64)
        stages.candidate_triples = int(len(candidates))
        if not len(candidates):
            raise BenchmarkError(
                f"benchmark {config.name!r}: no candidate triples after head filtering")
        rng = derive_rng(config.seed, "triple-sampling", config.name)
        count = max(config.min_split_size * 3,
                    int(round(len(candidates) * config.triple_sampling_rate)))
        count = min(count, len(candidates))
        chosen = candidates[rng.choice(len(candidates), size=count, replace=False)]
        chosen = chosen[np.lexsort((entity_rank[chosen[:, 2]],
                                    relation_rank[chosen[:, 1]],
                                    entity_rank[chosen[:, 0]]))]
        entity = backend.entity_interner.symbol_of
        relation_symbol = backend.relation_interner.symbol_of
        sampled = [Triple(entity(int(head_id)), relation_symbol(int(relation_id)),
                          entity(int(tail_id)))
                   for head_id, relation_id, tail_id in chosen]
        stages.sampled_triples = len(sampled)
        stages.triples = sampled
        return sampled

    # ------------------------------------------------------------------ #
    # full run
    # ------------------------------------------------------------------ #
    def run(self, config: SamplingConfig) -> SamplingStages:
        """Execute all three stages and return the recorded stages object."""
        stages = SamplingStages()
        relations = self.refine_relations(config, stages)
        heads = self.filter_head_entities(relations, config, stages)
        self.sample_triples(relations, heads, config, stages)
        return stages


def split_triples(triples: List[Triple], dev_fraction: float, test_fraction: float,
                  seed: int, min_split_size: int = 1) -> Dict[str, List[Triple]]:
    """Random train/dev/test split with minimum split sizes.

    Entities appearing only in dev/test are tolerated (as in the real
    benchmark); evaluation code filters unknown entities.
    """
    if dev_fraction + test_fraction >= 1.0:
        raise BenchmarkError("dev_fraction + test_fraction must be < 1")
    rng = derive_rng(seed, "split")
    order = rng.permutation(len(triples))
    shuffled = [triples[int(index)] for index in order]
    num_dev = max(min_split_size, int(round(len(shuffled) * dev_fraction)))
    num_test = max(min_split_size, int(round(len(shuffled) * test_fraction)))
    if num_dev + num_test >= len(shuffled):
        raise BenchmarkError("not enough triples for the requested dev/test sizes")
    dev = shuffled[:num_dev]
    test = shuffled[num_dev:num_dev + num_test]
    train = shuffled[num_dev + num_test:]
    return {"train": train, "dev": dev, "test": test}
