"""The seeded product catalog every workload runs over.

Shaped like SNIPPETS.md Snippet 2 scaled up: a fixed combinatorial
frame (categories x types x colours x brands, md5-deterministic price
buckets) filled by a seeded draw, so two seeds give catalogs of the
same shape and size but different assignments.  Every product carries
six facts; brands carry a headquarters country and categories a parent
class, which is what the two-hop joins walk.

A brand sells only ``categories_per_brand`` categories, so the
``brand x category`` pairs that have products at all number
``brands * categories_per_brand`` and each holds a few dozen products —
the shopping-guide join returns a page of rows, not zero or one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.kg.triple import Triple

BRAND_IS = "brandIs"
RDF_TYPE = "rdf:type"
TYPE_IS = "typeIs"
COLOR_IS = "colorIs"
PLACE_OF_ORIGIN = "placeOfOrigin"
PRICE_BUCKET = "priceBucket"
HEADQUARTERS_IN = "headquartersIn"
SUBCLASS_OF = "subClassOf"
#: The relation the write workload adds and removes.  A handful of
#: seed triples carry it in the catalog so it is interned at split
#: time: a write that interned a *new* symbol would grow the
#: coordinator's interners past the handshake fingerprint and silently
#: drop every later read onto the string fallback path.
VIEWED_WITH = "viewedWith"

#: How many concurrent load-generating clients the catalog reserves
#: disjoint write heads for.
CLIENTS = 2


@dataclass(frozen=True)
class CatalogSpec:
    """Sizes of one catalog; the hot sets are sized against the servers'
    result cache (see ``topology.CACHE_MB``)."""

    products: int
    brands: int = 256
    categories: int = 1024
    categories_per_brand: int = 16
    types_per_category: int = 3
    colors: int = 12
    places: int = 64
    countries: int = 32
    price_buckets: int = 40
    #: ``brand x category`` pairs the Zipf guide traffic ranks over.
    hot_pairs: int = 1024
    #: Products the Zipf point traffic ranks over.
    hot_products: int = 2000
    #: Products reserved per client as heads of written triples; never
    #: read by a timed read op, so a read's answer does not depend on
    #: how the two clients' writes interleave.
    write_zone: int = 2048


#: The benchmark's catalog: ~0.36 M triples, ~8.7 MB of id columns
#: (beyond the 4 MiB L2 of the reference box), ~3 s to set up.
FULL = CatalogSpec(products=60_000)

#: The harness test's catalog (same shape, seconds to serve).
SMALL = CatalogSpec(products=2_000, brands=16, categories=64,
                    categories_per_brand=4, colors=4, places=8,
                    countries=4, hot_pairs=32, hot_products=200,
                    write_zone=128)


def _names(prefix: str, count: int) -> List[str]:
    width = len(str(count - 1))
    return [f"{prefix}:{index:0{width}d}" for index in range(count)]


@dataclass
class Catalog:
    """One generated catalog: the triples plus the index arrays the
    workload generators draw from."""

    spec: CatalogSpec
    rows: List[Triple]
    product_names: List[str]
    brand_names: List[str]
    category_names: List[str]
    color_names: List[str]
    place_names: List[str]
    #: ``(brand index, category index)`` pairs, hottest first.
    hot_pairs: List[Tuple[int, int]]
    #: Product indexes, hottest first.
    hot_products: np.ndarray
    #: Per client, the product indexes its writes use as heads.
    write_zones: List[np.ndarray]


def generate(seed: int, spec: CatalogSpec = FULL) -> Catalog:
    """Build the catalog for ``seed``; the same seed gives the same rows
    in the same order."""
    if spec.hot_products + CLIENTS * spec.write_zone > spec.products:
        raise ValueError("hot set plus write zones exceed the catalog")
    rng = np.random.default_rng([int(seed), 0xCA7A])
    n = spec.products
    products = _names("product", n)
    brands = _names("brand", spec.brands)
    categories = _names("category", spec.categories)
    colors = _names("color", spec.colors)
    places = _names("place", spec.places)
    countries = _names("country", spec.countries)
    parents = _names("categorygroup", max(1, spec.categories // 16))
    prices = _names("price", spec.price_buckets)

    # Which categories each brand sells: consecutive slices of one
    # seeded permutation, wrapping, so every category has some brand.
    shelf = rng.permutation(spec.categories)
    brand_categories = np.array(
        [[shelf[(brand * spec.categories_per_brand + slot) % spec.categories]
          for slot in range(spec.categories_per_brand)]
         for brand in range(spec.brands)], dtype=np.int64)

    brand_of = rng.integers(0, spec.brands, n)
    slot_of = rng.integers(0, spec.categories_per_brand, n)
    category_of = brand_categories[brand_of, slot_of]
    type_of = rng.integers(0, spec.types_per_category, n)
    color_of = rng.integers(0, spec.colors, n)
    place_of = rng.integers(0, spec.places, n)

    # Snippet 2's price rule: a per-category base plus a small
    # md5-deterministic bump per type name.
    type_names = [[f"type:{category.split(':')[1]}-{kind}"
                   for kind in range(spec.types_per_category)]
                  for category in categories]
    price_of_type = [[prices[(7 * index + int(hashlib.md5(
        name.encode()).hexdigest(), 16) % 7) % spec.price_buckets]
        for name in names] for index, names in enumerate(type_names)]

    make = Triple.unchecked
    rows: List[Triple] = []
    append = rows.append
    for product, brand, category, kind, color, place in zip(
            products, brand_of.tolist(), category_of.tolist(),
            type_of.tolist(), color_of.tolist(), place_of.tolist()):
        append(make(product, BRAND_IS, brands[brand]))
        append(make(product, RDF_TYPE, categories[category]))
        append(make(product, TYPE_IS, type_names[category][kind]))
        append(make(product, COLOR_IS, colors[color]))
        append(make(product, PLACE_OF_ORIGIN, places[place]))
        append(make(product, PRICE_BUCKET, price_of_type[category][kind]))
    for brand in brands:
        append(make(brand, HEADQUARTERS_IN,
                    countries[int(rng.integers(0, spec.countries))]))
    for index, category in enumerate(categories):
        append(make(category, SUBCLASS_OF, parents[index % len(parents)]))

    order = rng.permutation(n)
    hot_products = order[:spec.hot_products]
    write_zones = [order[spec.hot_products + client * spec.write_zone:
                         spec.hot_products + (client + 1) * spec.write_zone]
                   for client in range(CLIENTS)]
    # Seed the written relation on heads outside every read set.
    spare = order[spec.hot_products + CLIENTS * spec.write_zone:][:4]
    for index in spare.tolist():
        append(make(products[index], VIEWED_WITH,
                    products[(index + 1) % n]))

    pairs = [(brand, int(category)) for brand in range(spec.brands)
             for category in brand_categories[brand]]
    ranked = rng.permutation(len(pairs))[:spec.hot_pairs]
    hot_pairs = [pairs[index] for index in ranked.tolist()]

    return Catalog(spec=spec, rows=rows,
                   product_names=products, brand_names=brands,
                   category_names=categories, color_names=colors,
                   place_names=places, hot_pairs=hot_pairs,
                   hot_products=hot_products, write_zones=write_zones)
