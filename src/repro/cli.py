"""Command-line interface for the OpenBG reproduction.

Seven subcommands cover the everyday workflows::

    python -m repro.cli --products 300 build      --out ./openbg_out
    python -m repro.cli --products 300 stats
    python -m repro.cli --products 300 benchmark  --out ./openbg_out
    python -m repro.cli --products 300 linkpred   --model TransE --epochs 25
    python -m repro.cli serve --store-dir ./store --port 7468
    python -m repro.cli shard-split --store-dir ./store --shards 4 --out ./cl
    python -m repro.cli serve --store-dir ./cl/shard-0 --shard-of 0/4
    python -m repro.cli serve --store-dir ./shard-0-copy --shard-of 0/4 \\
        --follow 127.0.0.1:7469
    python -m repro.cli cluster --store-dir ./cl \\
        --shards 127.0.0.1:7469,127.0.0.1:7470 --replica 0=127.0.0.1:7480
    python -m repro.cli query --store-dir ./store \\
        --pattern "?p brandIs brand:0" --pattern "?p placeOfOrigin ?where" \\
        --select ?p ?where
    python -m repro.cli query --url 127.0.0.1:7468 --pattern "?p brandIs ?b"
    python -m repro.cli compact --store-dir ./live-store

``build`` constructs the synthetic OpenBG and writes it as TSV triples,
``stats`` prints the Table-I style statistics, ``benchmark`` samples and
saves the OpenBG-IMG / 500 / 500-L analogues, ``linkpred`` trains one
embedding model on the OpenBG500 analogue and prints its filtered
metrics, ``serve`` opens a saved store directory and serves the network
query protocol on a TCP port (``--shard-of K/N`` labels it one shard of
a cluster; ``--follow HOST:PORT`` makes it a read-only replica replaying
that leader's WAL), ``shard-split`` cuts a saved store into N per-shard
live store directories routed by the hash partitioner, ``cluster``
serves a coordinator that fans queries out to running shard servers
(reads round-robin leader+replicas with failover, writes go to
leaders), ``query`` evaluates a conjunctive
triple-pattern query — against a local store directory (``--store-dir``,
no rebuild) or a running server (``--url``,
results streamed in pages through a server-side cursor) — printing
bindings as TSV, and ``compact`` folds a live store's write-ahead log
into a fresh snapshot generation (and truncates the log).
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.kg.backend import BACKENDS, DEFAULT_BACKEND
from repro.kg.sharded_backend import DEFAULT_SHARDS

if TYPE_CHECKING:
    from repro.construction.pipeline import ConstructionResult

# The ``linkpred`` models, by their class names in ``repro.embedding``.
# The build, benchmark and embedding stacks load inside the commands
# that use them, so a ``serve`` or ``cluster`` process imports only the
# serving stack.
MODEL_REGISTRY = ("TransE", "TransH", "TransD", "DistMult", "ComplEx", "TuckER")


def _add_serving_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every ``KGServer`` front end takes (``serve`` over one
    store, ``cluster`` over the coordinator's scatter/gather backend)."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="address to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port to bind (default 7468; 0 picks an "
                             "ephemeral port, printed on startup)")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="max requests one service dispatch round "
                             "coalesces (default 256)")
    parser.add_argument("--cursor-ttl", type=float, default=300.0,
                        help="seconds an idle server-side cursor survives "
                             "before eviction (default 300)")
    parser.add_argument("--cache-mb", type=float, default=64.0,
                        help="byte budget of the hot-query result cache in "
                             "MiB (default 64; 0 disables it; entries are "
                             "invalidated on every write and LRU-evicted "
                             "under the budget)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(prog="repro",
                                     description="OpenBG reproduction toolkit")
    parser.add_argument("--products", type=int, default=300,
                        help="number of synthetic products to generate")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--backend", choices=sorted(BACKENDS), default=DEFAULT_BACKEND,
                        help="triple-store backend (columnar: interned-id numpy "
                             "arrays, memory-mapped when reopened from disk)")
    parser.add_argument("--store-dir", type=Path, default=None,
                        help="persist the built triple store to this directory as "
                             "memory-mapped column files (reopen with "
                             "TripleStore.open)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build", help="construct the synthetic OpenBG")
    build.add_argument("--out", type=Path, default=None,
                       help="directory to write openbg.tsv into")

    subparsers.add_parser("stats", help="print Table-I style statistics")

    benchmark = subparsers.add_parser("benchmark",
                                      help="sample the benchmark suite (Table II)")
    benchmark.add_argument("--out", type=Path, default=None,
                           help="directory to write the benchmark TSV splits into")

    linkpred = subparsers.add_parser("linkpred",
                                     help="train one embedding model on OpenBG500")
    linkpred.add_argument("--model", choices=sorted(MODEL_REGISTRY), default="TransE")
    linkpred.add_argument("--epochs", type=int, default=25)
    linkpred.add_argument("--dim", type=int, default=32)
    linkpred.add_argument("--learning-rate", type=float, default=0.08)

    serve = subparsers.add_parser(
        "serve",
        help="serve a saved store directory over the TCP query protocol")
    serve.add_argument("--store-dir", type=Path, dest="store_dir",
                       default=argparse.SUPPRESS,
                       help="store directory written by build --store-dir, "
                            "TripleStore.save or shard-split")
    _add_serving_flags(serve)
    serve.add_argument("--shard-of", default=None, metavar="K/N",
                       help="label this server shard K of an N-shard "
                            "cluster (advertised through the role op and "
                            "sanity-checked by coordinators)")
    serve.add_argument("--follow", default=None, metavar="HOST:PORT",
                       help="run as a read-only replica of the given "
                            "leader, continuously copying and replaying "
                            "its WAL bytes (snapshot_ship chunks of "
                            "wal-G.log); a missing or empty "
                            "--store-dir is bootstrapped from the leader "
                            "over the wire (snapshot_ship) before serving")
    serve.add_argument("--follow-poll-interval", type=float, default=0.05,
                       help="seconds a caught-up replica sleeps between "
                            "WAL polls of its leader (default 0.05; must be "
                            "a finite positive number)")

    split = subparsers.add_parser(
        "shard-split",
        help="split a saved store into N per-shard live store "
             "directories (plus coordinator metadata)")
    split.add_argument("--store-dir", type=Path, dest="store_dir",
                       default=argparse.SUPPRESS,
                       help="source store directory (a snapshot or a live "
                            "store)")
    split.add_argument("--shards", type=int, default=DEFAULT_SHARDS,
                       help="number of shard directories to produce "
                            f"(default {DEFAULT_SHARDS})")
    split.add_argument("--out", type=Path, required=True,
                       help="output directory: gains shard-0/..shard-N-1/ "
                            "live stores plus cluster.json and the global "
                            "interner tables for the coordinator")

    cluster = subparsers.add_parser(
        "cluster",
        help="serve a coordinator that fans queries out to running "
             "shard servers")
    cluster.add_argument("--store-dir", type=Path, dest="store_dir",
                         default=argparse.SUPPRESS,
                         help="shard-split output directory; the "
                              "coordinator loads its global interner "
                              "tables (and the expected shard count) "
                              "from it")
    cluster.add_argument("--shards", dest="shard_urls", required=True,
                         metavar="HOST:PORT,...",
                         help="comma-separated leader address of every "
                              "shard, in shard order")
    cluster.add_argument("--replica", action="append", default=[],
                         metavar="K=HOST:PORT",
                         help="register a replica for shard K (repeat "
                              "for more; reads round-robin over leader "
                              "and replicas with failover)")
    _add_serving_flags(cluster)

    compact = subparsers.add_parser(
        "compact",
        help="fold a live store's write-ahead log into a new snapshot "
             "generation")
    compact.add_argument("--store-dir", type=Path, dest="store_dir",
                         default=argparse.SUPPRESS,
                         help="live store directory (one carrying a "
                              "live.json pointer, written by "
                              "TripleStore.create_live)")

    query = subparsers.add_parser(
        "query",
        help="run a triple-pattern query against a saved store directory "
             "or a running server")
    # SUPPRESS keeps a value given in the global position
    # (`repro --store-dir X query ...`) from being clobbered by the
    # subparser default; presence is validated in _command_query.
    query.add_argument("--store-dir", type=Path, dest="store_dir",
                       default=argparse.SUPPRESS,
                       help="store directory written by build --store-dir, "
                            "TripleStore.save or shard-split")
    query.add_argument("--url", default=None, metavar="HOST:PORT",
                       help="query a running `repro serve` instance instead "
                            "of opening a local store directory (mutually "
                            "exclusive with --store-dir); results stream in "
                            "pages through a server-side cursor")
    query.add_argument("--pattern", action="append", required=True,
                       metavar="'H R T'",
                       help="one whitespace-separated (head relation tail) "
                            "pattern; terms starting with '?' are variables; "
                            "repeat for conjunctive joins")
    query.add_argument("--select", nargs="+", default=(), metavar="?VAR",
                       help="project the result rows onto these variables "
                            "(default: all variables)")
    query.add_argument("--limit", type=int, default=None,
                       help="print at most this many binding rows")
    query.add_argument("--page-size", type=int, default=512,
                       help="rows per fetch when streaming from --url "
                            "(default 512)")
    return parser


def _construct(products: int, seed: int, backend: str = DEFAULT_BACKEND,
               store_dir: Optional[Path] = None) -> ConstructionResult:
    from repro.construction.pipeline import OpenBGBuilder
    from repro.datagen.catalog import SyntheticCatalogConfig

    config = SyntheticCatalogConfig(num_products=products, seed=seed)
    return OpenBGBuilder(config, seed=seed, backend=backend,
                         store_dir=store_dir).build()


def _command_build(result: ConstructionResult, out: Optional[Path]) -> int:
    print("Constructed synthetic OpenBG:")
    for key, value in result.summary().items():
        print(f"  {key:<22} {value}")
    if out is not None:
        from repro.kg.serialization import write_tsv

        out.mkdir(parents=True, exist_ok=True)
        path = out / "openbg.tsv"
        count = write_tsv(result.graph.triples(), path)
        print(f"  wrote {count} triples to {path}")
    return 0


def _command_stats(result: ConstructionResult) -> int:
    print(result.statistics.format_table())
    return 0


def _command_benchmark(result: ConstructionResult, out: Optional[Path],
                       seed: int) -> int:
    from repro.benchmark.builders import BenchmarkBuilder

    suite = BenchmarkBuilder(result.graph, seed=seed).build_suite()
    print("Benchmark suite (Table II analogue):")
    for summary in suite.summaries():
        print("  " + " | ".join(summary.as_row()))
    if out is not None:
        for dataset in suite.datasets.values():
            dataset.save(out)
        print(f"  wrote train/dev/test TSV splits to {out}")
    return 0


def _command_linkpred(result: ConstructionResult, seed: int, model_name: str,
                      epochs: int, dim: int, learning_rate: float) -> int:
    from repro import embedding
    from repro.benchmark.builders import BenchmarkBuilder
    from repro.embedding import KGETrainer, LinkPredictionEvaluator, TrainingConfig
    from repro.embedding.evaluation import format_results_table

    suite = BenchmarkBuilder(result.graph, seed=seed).build_suite()
    dataset = suite["OpenBG500"]
    encoded = dataset.encoded_splits()
    model_class = getattr(embedding, model_name)
    model = model_class(len(dataset.entity_vocab), len(dataset.relation_vocab),
                        dim=dim, seed=seed)
    config = TrainingConfig(epochs=epochs, batch_size=256, learning_rate=learning_rate,
                            seed=seed, normalize_entities=model_name.startswith("Trans"))
    history = KGETrainer(model, config).fit(encoded["train"])
    print(f"{model_name}: training loss {history.losses[0]:.3f} -> {history.losses[-1]:.3f}")
    evaluator = LinkPredictionEvaluator(encoded["train"], encoded["dev"], encoded["test"])
    metrics = evaluator.evaluate(model, encoded["test"])
    print(format_results_table({model_name: metrics},
                               title="Link prediction on OpenBG500 analogue"))
    return 0


def _parse_shard_of(value: Optional[str]):
    """``"K/N"`` -> ``(K, N)``; ``None`` passes through."""
    if value is None:
        return (None, None)
    parts = value.split("/")
    try:
        shard_index, n_shards = (int(part) for part in parts)
    except ValueError:
        shard_index = n_shards = None
    if len(parts) != 2 or shard_index is None:
        raise ValueError(
            f"--shard-of wants K/N (e.g. 0/4), got {value!r}")
    return (shard_index, n_shards)


def _cache_bytes(args) -> int:
    """``--cache-mb`` -> the service's byte budget."""
    if not math.isfinite(args.cache_mb) or args.cache_mb < 0:
        raise ValueError(
            f"--cache-mb must be a finite number >= 0, got {args.cache_mb}")
    return int(args.cache_mb * 1024 * 1024)


def _follow_poll_interval(args) -> float:
    """Validate ``--follow-poll-interval`` at the CLI boundary.

    argparse's ``type=float`` happily accepts ``nan``, ``inf`` and
    non-positive values — all of which would either busy-spin the
    replication thread or stall it forever, so they are rejected here
    with the same typed error path (exit code 2) as every other bad
    flag rather than surfacing as a server-constructor traceback.
    """
    interval = args.follow_poll_interval
    if not math.isfinite(interval) or interval <= 0:
        raise ValueError(
            f"--follow-poll-interval must be a finite number of seconds "
            f"> 0, got {interval}")
    return interval


def _command_serve(args) -> int:
    """Open a saved store directory and serve the TCP query protocol."""
    import sys

    from repro.errors import ReproError
    from repro.kg.server import DEFAULT_PORT, KGServer

    try:
        if args.store_dir is None:
            raise ValueError("serve requires --store-dir")
        shard_index, n_shards = _parse_shard_of(args.shard_of)
        poll_interval = _follow_poll_interval(args)
        cache_bytes = _cache_bytes(args)
        port = DEFAULT_PORT if args.port is None else args.port
        store_dir = Path(args.store_dir)
        if args.follow is not None and (
                not store_dir.exists() or not any(store_dir.iterdir())):
            # A brand-new replica needs no hand-copied seed store: fetch
            # the leader's current snapshot over the wire and start
            # tailing its WAL from there.
            from repro.kg.server import bootstrap_replica
            generation = bootstrap_replica(store_dir, args.follow)
            print(f"bootstrapped {store_dir} from {args.follow} "
                  f"(generation {generation})", flush=True)
        server = KGServer.open(store_dir, host=args.host, port=port,
                               max_batch=args.max_batch,
                               cursor_ttl=args.cursor_ttl,
                               cache_bytes=cache_bytes,
                               shard_index=shard_index, n_shards=n_shards,
                               follow=args.follow,
                               follow_poll_interval=poll_interval)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 2
    with server:
        host, bound_port = server.address
        store = server.service.store
        shard_label = "" if shard_index is None \
            else f" as shard {shard_index}/{n_shards}"
        role_label = "" if args.follow is None \
            else f", replica of {args.follow}"
        print(f"serving {len(store)} triples ({store.backend_name} backend) "
              f"on {host}:{bound_port}{shard_label}{role_label}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", flush=True)
    return 0


def _command_shard_split(args) -> int:
    """Split a saved store into per-shard live store directories."""
    import sys

    from repro.errors import ReproError
    from repro.kg.cluster import shard_split

    try:
        if args.store_dir is None:
            raise ValueError("shard-split requires --store-dir")
        shard_dirs = shard_split(args.store_dir, args.shards, args.out)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 2
    print(f"split {args.store_dir} into {len(shard_dirs)} live shard "
          f"stores under {args.out}:", flush=True)
    for index, shard_dir in enumerate(shard_dirs):
        print(f"  shard {index}: {shard_dir}", flush=True)
    print(f"start each with `repro serve --store-dir DIR "
          f"--shard-of K/{len(shard_dirs)}`, then a coordinator with "
          f"`repro cluster --store-dir {args.out} "
          f"--shards HOST:PORT,...`", flush=True)
    return 0


def _parse_replica_map(entries: Sequence[str], n_shards: int):
    """``["0=host:port", ...]`` -> ``{0: ["host:port", ...], ...}``."""
    replicas: dict = {}
    for entry in entries:
        index_text, separator, address = entry.partition("=")
        try:
            index = int(index_text)
        except ValueError:
            index = -1
        if not separator or not address or not 0 <= index < n_shards:
            raise ValueError(
                f"--replica wants K=HOST:PORT with K in 0..{n_shards - 1}, "
                f"got {entry!r}")
        replicas.setdefault(index, []).append(address)
    return replicas


def _command_cluster(args) -> int:
    """Serve a coordinator over running shard servers."""
    import sys

    from repro.errors import ReproError
    from repro.kg.cluster import ClusterBackend
    from repro.kg.server import DEFAULT_PORT, KGServer
    from repro.kg.store import TripleStore

    try:
        if args.store_dir is None:
            raise ValueError(
                "cluster requires --store-dir (the shard-split output "
                "carrying the coordinator's interner tables)")
        shard_urls = [url.strip() for url in args.shard_urls.split(",")
                      if url.strip()]
        if not shard_urls:
            raise ValueError("--shards needs at least one HOST:PORT")
        replicas = _parse_replica_map(args.replica, len(shard_urls))
        backend = ClusterBackend.open(args.store_dir, shard_urls,
                                      replicas=replicas)
        port = DEFAULT_PORT if args.port is None else args.port
        server = KGServer(TripleStore(backend=backend), host=args.host,
                          port=port, max_batch=args.max_batch,
                          cursor_ttl=args.cursor_ttl,
                          cache_bytes=_cache_bytes(args))
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 2
    with server:
        host, bound_port = server.address
        replica_count = sum(len(urls) for urls in replicas.values())
        print(f"coordinating {len(shard_urls)} shard servers "
              f"({replica_count} replicas, {len(server.service.store)} "
              f"triples) on {host}:{bound_port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", flush=True)
        finally:
            backend.close()
    return 0


def _command_compact(args) -> int:
    """Fold a live store's WAL into a new snapshot generation."""
    import sys

    from repro.errors import ReproError
    from repro.kg.store import TripleStore
    from repro.kg.wal import is_live_store

    try:
        if args.store_dir is None:
            raise ValueError("compact requires --store-dir")
        if not is_live_store(args.store_dir):
            raise ValueError(
                f"{args.store_dir} is not a live store (no live.json "
                f"pointer); compaction only applies to WAL-backed stores "
                f"created with TripleStore.create_live")
        store = TripleStore.open(args.store_dir)
        try:
            replayed = store.wal.next_seq - 1
            generation = store.compact()
        finally:
            store.close()
        print(f"compacted {replayed} WAL batches into generation "
              f"{generation} ({len(store)} triples, "
              f"{store.backend_name} backend)", flush=True)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 2
    return 0


def _remote_query_rows(args, query):
    """Generator over remote binding rows, streamed page by page."""
    from repro.kg.client import RemoteQueryEngine

    if args.limit == 0:
        return
    with RemoteQueryEngine(args.url) as engine:
        cursor = engine.cursor(query, limit=args.limit,
                               page_size=args.page_size)
        for row in cursor:
            yield row


def _command_query(args) -> int:
    """Run a pattern query against a saved store or a running server."""
    import sys

    from repro.errors import ReproError
    from repro.kg.query import PatternQuery, QueryEngine
    from repro.kg.serialization import escape_tsv_field
    from repro.kg.store import TripleStore

    try:
        if args.url is not None and args.store_dir is not None:
            raise ValueError("--store-dir and --url are mutually exclusive")
        if args.url is None and args.store_dir is None:
            raise ValueError("query requires --store-dir or --url")
        if args.limit is not None and args.limit < 0:
            raise ValueError(f"--limit must be >= 0, got {args.limit}")
        if args.page_size < 1:
            raise ValueError(f"--page-size must be >= 1, got {args.page_size}")
        patterns = []
        for raw in args.pattern:
            terms = raw.split()
            if len(terms) != 3:
                raise ValueError(
                    f"--pattern needs exactly 3 whitespace-separated terms, "
                    f"got {raw!r}")
            patterns.append(terms)
        query = PatternQuery.from_patterns(patterns, select=args.select)
        if args.url is not None:
            rows = _remote_query_rows(args, query)
        else:
            store = TripleStore.open(args.store_dir)
            # limit=0 raises in the planner; here it means header only.
            rows = [] if args.limit == 0 else \
                QueryEngine(store).execute(query, limit=args.limit)
        header = list(query.select) if query.select else query.variables()
        print("\t".join(header))
        # Remote rows stream here (one page in memory at a time), so a
        # network error can surface mid-iteration — inside the try.
        for row in rows:
            print("\t".join(escape_tsv_field(row[name]) for name in header))
    except (ReproError, ValueError, OSError) as exc:
        # stderr keeps the TSV data channel clean for piped consumers.
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "shard-split":
        return _command_shard_split(args)
    if args.command == "cluster":
        return _command_cluster(args)
    if args.command == "query":
        return _command_query(args)
    if args.command == "compact":
        return _command_compact(args)
    result = _construct(args.products, args.seed, args.backend, args.store_dir)
    if result.store_dir is not None:
        print(f"persisted {args.backend}-built triple store to {result.store_dir}")
    if args.command == "build":
        return _command_build(result, args.out)
    if args.command == "stats":
        return _command_stats(result)
    if args.command == "benchmark":
        return _command_benchmark(result, args.out, args.seed)
    if args.command == "linkpred":
        return _command_linkpred(result, args.seed, args.model, args.epochs,
                                 args.dim, args.learning_rate)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
