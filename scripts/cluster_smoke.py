#!/usr/bin/env python3
"""End-to-end cluster smoke test over real processes (CI `cluster-smoke` job).

Boots the full multi-node topology the way an operator would — every
box a separate OS process talking TCP on loopback:

* 2 shard servers   (``repro serve --shard-of K/2`` over ``repro
  shard-split`` output),
* 1 replica of shard 0 bootstrapped OVER THE WIRE from an empty
  directory (``--follow`` + ``snapshot_ship`` — no hand-copied files),
* 1 coordinator     (``repro cluster``),

then drives join and point-lookup workloads through the coordinator
with the ordinary remote client and checks the answers against an
in-process ``ShardedBackend(2)`` oracle (a cluster of N must be
bit-identical to it) — a guide-shaped star join among them, which the
coordinator must ship whole to the shards, and a chain join, which it
plans itself and fetches in one round: each exactly one shard request
per shard, read off its own ``stats``.  Two answers the executor once
gave as lists are blocks like any other and must equal the reference
backtracker of ``tests/_oracle.py``: a query without variables (true and
false) and a mixed-kind star, whose variable binds a relation in one
pattern and an entity in the other — also shipped whole — and, after a
coordinator write of a never-seen product, brand and relation, a star
over the new brand: still shipped whole, still the oracle's answer.
Then the self-management story, in order:

1. compact the shard-0 leader under the live follower — the follower
   must re-bootstrap automatically (fetch the new snapshot generation,
   flip its live pointer) and catch up on post-compaction writes;
2. kill the shard-0 leader mid-workload — every read must still succeed
   via the replica (``failures == 0``, ``reroutes > 0``), and the next
   shard-0 write must promote the replica automatically
   (``promotions == 1``) and land — writes resume with no operator
   action.

Run from the repo root::

    python scripts/cluster_smoke.py

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from _oracle import backtrack, multiset  # noqa: E402

from repro.errors import ProtocolError  # noqa: E402
from repro.kg.client import RemoteClient, RemoteQueryEngine, RemoteStore  # noqa: E402
from repro.kg.protocol import encode_wire_query  # noqa: E402
from repro.kg.query import PatternQuery, QueryEngine  # noqa: E402
from repro.kg.routing import shard_of_id  # noqa: E402
from repro.kg.sharded_backend import ShardedBackend  # noqa: E402
from repro.kg.store import TripleStore  # noqa: E402
from repro.kg.triple import triples_from_tuples  # noqa: E402

N_SHARDS = 2
NUM_PRODUCTS = 800
NUM_BRANDS = 12


def _workload_rows() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    for index in range(NUM_PRODUCTS):
        product = f"product:{index:04d}"
        rows.append((product, "brandIs", f"brand:{index % NUM_BRANDS}"))
        rows.append((product, "rdf:type", f"category:{index % 9}"))
    for brand in range(NUM_BRANDS):
        rows.append((f"brand:{brand}", "headquartersIn",
                     f"country:{brand % 3}"))
    # A relation symbol as an entity: "which attribute, and its value".
    for index in range(0, NUM_PRODUCTS, 50):
        rows.append((f"product:{index:04d}", "attribute", "brandIs"))
    return rows


def _boot(argv: List[str], what: str) -> Tuple[subprocess.Popen, str]:
    """Start a repro.cli subprocess; return (proc, bound host:port).

    Scans past pre-serving output lines (a bootstrapping replica prints
    its over-the-wire fetch before the serving banner).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(REPO_ROOT))
    for _ in range(20):
        line = proc.stdout.readline()
        if not line:
            break
        if " on " in line:
            url = line.split(" on ", 1)[1].split()[0].rstrip(",")
            print(f"  booted {what}: pid {proc.pid} on {url} "
                  f"— {line.strip()}")
            return proc, url
        print(f"  [{what}] {line.strip()}")
    proc.terminate()
    raise AssertionError(
        f"{what} failed to start: {proc.stdout.read()!r}")


def main() -> int:
    rows = _workload_rows()
    oracle_store = TripleStore(triples_from_tuples(rows),
                               backend=ShardedBackend(N_SHARDS))
    oracle = QueryEngine(oracle_store)

    joins = [PatternQuery.from_patterns(
        [("?p", "rdf:type", f"category:{index}"),
         ("?p", "brandIs", "?b"),
         ("?b", "headquartersIn", "?c")]) for index in range(9)]
    guide = PatternQuery.from_patterns(
        [("?p", "brandIs", "brand:3"), ("?p", "rdf:type", "category:3")],
        select=["?p"])
    chain = PatternQuery.from_patterns(
        [("product:0007", "brandIs", "?b"), ("?b", "headquartersIn", "?c")])
    lookups = [(f"product:{(index * 13) % NUM_PRODUCTS:04d}", None, None)
               for index in range(200)]
    interner = oracle_store.backend.entity_interner
    shard0_heads = [f"product:{index:04d}" for index in range(NUM_PRODUCTS)
                    if shard_of_id(interner.lookup(f"product:{index:04d}"),
                                   N_SHARDS) == 0][:50]

    tmp = Path(tempfile.mkdtemp(prefix="cluster-smoke-"))
    procs: List[subprocess.Popen] = []
    failures = 0
    try:
        source_dir = tmp / "source"
        oracle_store.save(source_dir)
        split_dir = tmp / "cluster"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "shard-split",
             "--store-dir", str(source_dir), "--shards", str(N_SHARDS),
             "--out", str(split_dir)],
            check=True, env={**os.environ,
                             "PYTHONPATH": str(REPO_ROOT / "src")},
            cwd=str(REPO_ROOT))
        replica_dir = tmp / "shard-0-replica"  # empty: bootstrapped on boot

        shard_urls = []
        for index in range(N_SHARDS):
            proc, url = _boot(
                ["serve", "--store-dir", str(split_dir / f"shard-{index}"),
                 "--port", "0", "--shard-of", f"{index}/{N_SHARDS}"],
                f"shard server {index}")
            procs.append(proc)
            shard_urls.append(url)
        leader0 = procs[0]

        replica_proc, replica_url = _boot(
            ["serve", "--store-dir", str(replica_dir), "--port", "0",
             "--shard-of", f"0/{N_SHARDS}", "--follow", shard_urls[0]],
            "replica of shard 0")
        procs.append(replica_proc)

        coordinator, coord_url = _boot(
            ["cluster", "--store-dir", str(split_dir),
             "--shards", ",".join(shard_urls),
             "--replica", f"0={replica_url}", "--port", "0"],
            "coordinator")
        procs.append(coordinator)

        def check(label: str, ok: bool, detail: str = "") -> None:
            nonlocal failures
            print(f"  {'PASS' if ok else 'FAIL'}: {label}"
                  + (f" — {detail}" if detail and not ok else ""))
            failures += 0 if ok else 1

        engine = RemoteQueryEngine(coord_url)
        remote = RemoteStore(coord_url)

        got_joins = engine.execute_many(joins)
        want_joins = oracle.execute_many(joins)
        check("batched joins bit-identical to ShardedBackend(2)",
              got_joins == want_joins,
              f"{sum(map(len, got_joins))} vs {sum(map(len, want_joins))} rows")

        def shard_requests() -> int:
            with RemoteClient(coord_url) as client:
                return client.call("stats")["cluster"]["totals"]["requests"]

        # The ``stats`` op itself asks every shard its ``len``; two
        # back-to-back reads price that.
        before = shard_requests()
        stats_cost = shard_requests() - before
        got_guide = engine.execute(guide)
        cost = shard_requests() - before - 2 * stats_cost
        check("guide star join bit-identical to ShardedBackend(2)",
              len(got_guide) > 0 and got_guide == oracle.execute(guide),
              f"{len(got_guide)} rows")
        check(f"star join shipped whole: exactly {N_SHARDS} shard requests",
              cost == N_SHARDS, f"{cost} shard requests")
        # A chain is planned here: both steps in ONE fetch round, the
        # head-bound leg riding in its owner shard's one request.
        before = shard_requests()
        got_chain = engine.execute(chain)
        cost = shard_requests() - before - stats_cost
        check("chain join bit-identical to ShardedBackend(2)",
              len(got_chain) > 0 and got_chain == oracle.execute(chain),
              f"{len(got_chain)} rows")
        check(f"chain join in one round: exactly {N_SHARDS} shard requests",
              cost == N_SHARDS, f"{cost} shard requests")
        # Every answer is a block: no variables, and a variable that is
        # a relation in one pattern and an entity in the other.
        for label, query in (
                ("query without variables (true)", PatternQuery.from_patterns(
                    [("product:0007", "brandIs", "brand:7")])),
                ("query without variables (false)", PatternQuery.from_patterns(
                    [("product:0007", "brandIs", "brand:8")]))):
            got = engine.execute(query)
            check(f"{label} equals the oracle",
                  got == oracle.execute(query) == backtrack(oracle_store,
                                                            query),
                  repr(got))
        mixed = PatternQuery.from_patterns(
            [("?p", "attribute", "?r"), ("?p", "?r", "?v")],
            select=["?p", "?r", "?v"])
        before = shard_requests()
        got_mixed = engine.execute(mixed)
        cost = shard_requests() - before - stats_cost
        check("mixed-kind star equals the oracle",
              len(got_mixed) == NUM_PRODUCTS // 50
              and got_mixed == oracle.execute(mixed)
              and multiset(got_mixed) == multiset(backtrack(oracle_store,
                                                            mixed)),
              f"{len(got_mixed)} rows")
        check(f"mixed-kind star shipped whole: exactly {N_SHARDS} shard "
              f"requests", cost == N_SHARDS, f"{cost} shard requests")

        got_lookups = remote.match_many(lookups)
        want_lookups = oracle_store.match_many(lookups)
        check("point lookups bit-identical", got_lookups == want_lookups)

        # The two planes: a connection that never says hello gets
        # scalars, and a typed refusal for anything answered in rows.
        with RemoteClient(coord_url, codec="json") as control:
            try:
                control.call("match", pattern=list(lookups[0]))
                refusal = "answered"
            except ProtocolError as exc:
                refusal = str(exc)
            check("rows over a control connection are refused typed",
                  "match" in refusal and "hello" in refusal, refusal)
            check("a count of the same pattern answers there",
                  control.call("count", pattern=list(lookups[0]))
                  == oracle_store.count(*lookups[0]))

        # The join order is the executor's: the ops take no such field.
        with RemoteClient(coord_url) as client:
            wire = encode_wire_query(chain)
            try:
                client.call("execute", query=wire, reorder=True)
                refusal = "answered"
            except ProtocolError as exc:
                refusal = str(exc)
            check("an execute carrying 'reorder' is refused typed",
                  "no field 'reorder'" in refusal, refusal)
            check("the same execute without it answers the oracle's rows",
                  client.call("execute", query=wire).to_bindings()
                  == oracle.execute(chain))

        stats = RemoteClient(coord_url).call("stats")
        cluster = stats.get("cluster", {})
        totals = cluster.get("totals", {})
        check("coordinator reports cluster stats",
              cluster.get("n_shards") == N_SHARDS
              and totals.get("requests", 0) > 0
              and totals.get("failures", 1) == 0,
              repr(cluster)[:200])

        def replica_status() -> dict:
            with RemoteClient(replica_url, codec="json") as client:
                return client.call("replication_status")

        def replica_count(pattern) -> int:
            with RemoteClient(replica_url, codec="json") as client:
                return client.call("count", pattern=list(pattern))

        def wait_until(predicate, timeout=20.0) -> bool:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if predicate():
                    return True
                time.sleep(0.1)
            return False

        # Symbols no shard has seen (a product, a brand, a relation),
        # written through the coordinator, leave the one id path as it
        # was: a star over the new brand is still shipped whole.
        fresh = [("product:new-0", "brandIs", "brand:new"),
                 ("product:new-0", "launchedIn", "year:2026"),
                 ("product:new-1", "brandIs", "brand:new"),
                 ("product:new-1", "launchedIn", "year:2025")]
        with RemoteClient(coord_url) as writer:
            writer.call("add_many", triples=[list(row) for row in fresh])
        oracle_store.add_many(triples_from_tuples(fresh))

        def launched(url: str) -> int:
            with RemoteClient(url, codec="json") as client:
                return client.call("count", pattern=[None, "launchedIn", None])

        # Reads round-robin onto the follower: let it catch up first.
        check("follower holds the new symbols' triples",
              wait_until(lambda: launched(replica_url)
                         == launched(shard_urls[0])))
        new_star = PatternQuery.from_patterns(
            [("?p", "brandIs", "brand:new"), ("?p", "launchedIn", "?y")],
            select=["?p", "?y"])
        before = shard_requests()
        got_new = engine.execute(new_star)
        cost = shard_requests() - before - stats_cost
        check("star over a brand written after the split equals the oracle",
              len(got_new) == 2 and got_new == oracle.execute(new_star),
              repr(got_new))
        check(f"star over new symbols shipped whole: exactly {N_SHARDS} "
              f"shard requests", cost == N_SHARDS, f"{cost} shard requests")

        # ---- 1. leader compaction under the live follower ----------- #
        with RemoteClient(coord_url) as writer:
            writer.call("add_many", triples=[
                [shard0_heads[1], "smokeWrite", "pre-compact"]])
        check("pre-compaction write visible on the follower",
              wait_until(lambda: replica_count(
                  [shard0_heads[1], "smokeWrite", "pre-compact"]) == 1))
        print(f"  compacting shard-0 leader under the live follower")
        with RemoteClient(shard_urls[0], codec="json") as shard0:
            new_generation = shard0.call("compact")["generation"]
        check("follower re-bootstraps across leader compaction",
              wait_until(lambda: (lambda s: s.get("rebootstraps", 0) >= 1
                                  and s.get("generation") == new_generation
                                  and s.get("last_error") is None)
                         (replica_status())),
              repr(replica_status()))
        with RemoteClient(coord_url) as writer:
            writer.call("add_many", triples=[
                [shard0_heads[2], "smokeWrite", "post-compact"]])
        check("follower catches up on post-compaction writes",
              wait_until(lambda: replica_count(
                  [shard0_heads[2], "smokeWrite", "post-compact"]) == 1))

        # ---- 2. leader kill: reads reroute, writes promote ----------- #
        print(f"  killing shard-0 leader (pid {leader0.pid}) mid-workload")
        leader0.kill()
        leader0.wait(timeout=10)

        rerouted = remote.match_many(
            [(head, "brandIs", None) for head in shard0_heads])
        expected = oracle_store.match_many(
            [(head, "brandIs", None) for head in shard0_heads])
        check("shard-0 reads survive leader kill via replica",
              rerouted == expected)

        stats = RemoteClient(coord_url).call("stats")
        totals = stats.get("cluster", {}).get("totals", {})
        check("zero failed reads, rerouting observed",
              totals.get("failures", 1) == 0
              and totals.get("reroutes", 0) > 0,
              repr(totals))

        with RemoteClient(coord_url) as writer:
            writer.call("add_many", triples=[
                [shard0_heads[3], "smokeWrite", "promoted"]])
        check("write to the dead leader's shard promoted the replica",
              replica_count([shard0_heads[3], "smokeWrite",
                             "promoted"]) == 1
              and replica_status().get("role") == "leader")
        stats = RemoteClient(coord_url).call("stats")
        totals = stats.get("cluster", {}).get("totals", {})
        check("promotion counted once, still zero failed reads",
              totals.get("promotions", 0) == 1
              and totals.get("failures", 1) == 0,
              repr(totals))
        with RemoteClient(coord_url) as writer:
            writer.call("add_many", triples=[
                [shard0_heads[4], "smokeWrite", "steady-state"]])
        check("writes keep flowing after the promotion",
              replica_count([shard0_heads[4], "smokeWrite",
                             "steady-state"]) == 1)

        print(f"cluster smoke: {'OK' if failures == 0 else 'FAILED'} "
              f"({failures} failing checks)")
        return 1 if failures else 0
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError:
        traceback.print_exc()
        raise SystemExit(1)
