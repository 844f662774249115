"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import MODEL_REGISTRY, build_parser, main


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_defaults_and_model_choices():
    parser = build_parser()
    args = parser.parse_args(["--products", "50", "linkpred", "--model", "TransE"])
    assert args.products == 50
    assert args.model == "TransE"
    assert set(MODEL_REGISTRY) >= {"TransE", "DistMult", "TuckER"}
    with pytest.raises(SystemExit):
        parser.parse_args(["linkpred", "--model", "NotAModel"])


def test_cli_backend_set_is_an_argparse_error(capsys):
    """The dict-of-set reference is the test oracle's, not a backend:
    ``--backend`` offers the columnar family only."""
    with pytest.raises(SystemExit) as usage:
        main(["--backend", "set", "stats"])
    assert usage.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'set'" in err
    assert "(choose from 'columnar')" in err


def test_backend_mmap_is_refused_naming_columnar(capsys):
    """A mapped base is how ``ColumnarBackend.open`` attaches a saved
    store, not a backend: the name is refused on every surface, and each
    refusal names ``columnar``."""
    from repro.kg.backend import make_backend
    from repro.kg.store import TripleStore

    for refuse in (lambda: make_backend("mmap"),
                   lambda: TripleStore(backend="mmap")):
        with pytest.raises(ValueError, match=r"unknown graph backend 'mmap' "
                                             r"\(known: columnar\)"):
            refuse()
    with pytest.raises(SystemExit) as usage:
        main(["--backend", "mmap", "stats"])
    assert usage.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'mmap'" in err and "'columnar'" in err


def test_cli_build_writes_tsv(tmp_path, capsys):
    exit_code = main(["--products", "40", "--seed", "1", "build",
                      "--out", str(tmp_path)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Constructed synthetic OpenBG" in output
    assert (tmp_path / "openbg.tsv").exists()
    assert (tmp_path / "openbg.tsv").read_text().count("\n") > 100


def test_cli_build_persists_store_dir(tmp_path, capsys):
    from repro.kg.backend import ColumnarBackend
    from repro.kg.store import TripleStore

    store_dir = tmp_path / "store"
    exit_code = main(["--products", "40", "--seed", "1", "--backend", "columnar",
                      "--store-dir", str(store_dir), "build"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "persisted columnar-built triple store" in output
    reopened = TripleStore.open(store_dir)
    assert type(reopened.backend) is ColumnarBackend
    assert reopened.backend.directory == store_dir
    # The base is mapped from the saved files: read-only views, no copy.
    assert not reopened.backend.id_triples().flags.writeable
    assert len(reopened) > 100


def test_cli_sharded_backend_builds_and_persists(tmp_path, capsys):
    """Bulk against bulk, a sharded build did not beat a columnar one
    on a 2-core box: ``--backend sharded`` and the global ``--shards``
    are gone, refused on every surface naming ``columnar``, and nothing
    is built or saved."""
    from repro.kg.backend import make_backend
    from repro.kg.store import TripleStore

    for refuse in (lambda: make_backend("sharded"),
                   lambda: TripleStore(backend="sharded")):
        with pytest.raises(ValueError, match=r"unknown graph backend "
                                             r"'sharded' \(known: columnar\)"):
            refuse()
    store_dir = tmp_path / "sharded-store"
    for argv in (["--backend", "sharded", "build"], ["build", "--shards", "2"]):
        with pytest.raises(SystemExit) as usage:
            main(["--products", "40", "--seed", "1",
                  "--store-dir", str(store_dir), *argv])
        assert usage.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'sharded'" in err and "'columnar'" in err
    assert "unrecognized arguments: --shards 2" in err
    assert not store_dir.exists()


def test_cli_stats_prints_table(capsys):
    exit_code = main(["--products", "40", "--seed", "1", "stats"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "# core classes" in output
    assert "Category" in output


def test_cli_benchmark_writes_splits(tmp_path, capsys):
    exit_code = main(["--products", "60", "--seed", "1", "benchmark",
                      "--out", str(tmp_path)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "OpenBG500" in output
    assert (tmp_path / "OpenBG500_train.tsv").exists()
    assert (tmp_path / "OpenBG-IMG_train.tsv").exists()


def test_cli_linkpred_reports_metrics(capsys):
    exit_code = main(["--products", "60", "--seed", "1", "linkpred",
                      "--model", "TransE", "--epochs", "3", "--dim", "16"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "training loss" in output
    assert "Hits@10" in output


# --------------------------------------------------------------------------- #
# query subcommand
# --------------------------------------------------------------------------- #
def _saved_store(tmp_path, backend="columnar"):
    from repro.kg.sharded_backend import ShardedBackend
    from repro.kg.store import TripleStore
    from repro.kg.triple import triples_from_tuples

    rows = [("p1", "brandIs", "apple"), ("p2", "brandIs", "apple"),
            ("p3", "brandIs", "tesla"), ("p1", "placeOfOrigin", "china"),
            ("p2", "placeOfOrigin", "japan"),
            ("apple", "headquartersIn", "america")]
    chosen = ShardedBackend(n_shards=2) if backend == "sharded" else backend
    store = TripleStore(triples_from_tuples(rows), backend=chosen)
    return store.save(tmp_path / f"store-{backend}")


def test_cli_query_prints_tsv_bindings(tmp_path, capsys):
    store_dir = _saved_store(tmp_path)
    exit_code = main(["query", "--store-dir", str(store_dir),
                      "--pattern", "?p brandIs apple",
                      "--pattern", "?p placeOfOrigin ?where",
                      "--select", "?p", "?where"])
    assert exit_code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "?p\t?where"
    assert sorted(lines[1:]) == ["p1\tchina", "p2\tjapan"]


def test_cli_query_accepts_global_store_dir_position(tmp_path, capsys):
    """--store-dir works in the documented global position too."""
    store_dir = _saved_store(tmp_path)
    exit_code = main(["--store-dir", str(store_dir), "query",
                      "--pattern", "?p brandIs apple", "--select", "?p"])
    assert exit_code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(lines[1:]) == ["p1", "p2"]
    # Missing entirely -> clear usage error on stderr.
    assert main(["query", "--pattern", "?p brandIs apple"]) == 2
    assert "requires --store-dir" in capsys.readouterr().err


def test_cli_query_sharded_store_and_limit(tmp_path, capsys):
    store_dir = _saved_store(tmp_path, backend="sharded")
    exit_code = main(["query", "--store-dir", str(store_dir),
                      "--pattern", "?p brandIs ?b",
                      "--pattern", "?b headquartersIn ?c",
                      "--limit", "1"])
    assert exit_code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "?p\t?b\t?c"
    assert len(lines) == 2  # header + one limited row


def test_cli_query_limit_caps_the_rows_materialized(tmp_path, capsys,
                                                    monkeypatch):
    """``--limit N`` on a saved store is the id-block slice at
    projection — N binding dicts are built, not the whole join's —
    ``--limit 0`` stays header-only, and the join order is not a flag."""
    from repro.kg.executor import IdBlock
    from repro.kg.store import TripleStore
    from repro.kg.triple import triples_from_tuples

    rows = [(f"p{i}", relation, f"{relation}{i % 7}") for i in range(1000)
            for relation in ("brandIs", "placeOfOrigin")]
    store_dir = TripleStore(triples_from_tuples(rows)).save(tmp_path / "big")
    query_args = ["query", "--store-dir", str(store_dir),
                  "--pattern", "?p brandIs ?b",
                  "--pattern", "?p placeOfOrigin ?where"]
    materialized = []
    original = IdBlock.materialize

    def spy(self):
        materialized.append(len(self))
        return original(self)

    monkeypatch.setattr(IdBlock, "materialize", spy)
    assert main(query_args) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1001
    assert materialized == [1000]
    del materialized[:]
    assert main(query_args + ["--limit", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "?p\t?b\t?where" and len(lines) == 4
    assert materialized == [3]
    del materialized[:]
    assert main(query_args + ["--limit", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["?p\t?b\t?where"]
    assert materialized == []
    with pytest.raises(SystemExit) as usage:
        main(query_args + ["--no-reorder"])
    assert usage.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--no-reorder" in err


def test_cli_query_errors_are_reported(tmp_path, capsys):
    store_dir = _saved_store(tmp_path)
    # Unknown select variable -> QueryError -> exit code 2, on stderr
    # (stdout stays a clean TSV channel for piped consumers).
    assert main(["query", "--store-dir", str(store_dir),
                 "--pattern", "?p brandIs apple", "--select", "?oops"]) == 2
    captured = capsys.readouterr()
    assert "?oops" in captured.err and captured.out == ""
    # Malformed pattern.
    assert main(["query", "--store-dir", str(store_dir),
                 "--pattern", "only two"]) == 2
    assert "3 whitespace-separated terms" in capsys.readouterr().err
    # Missing store directory.
    assert main(["query", "--store-dir", str(tmp_path / "nope"),
                 "--pattern", "?p brandIs apple"]) == 2
    assert "not a graph store directory" in capsys.readouterr().err
    # Negative limit.
    assert main(["query", "--store-dir", str(store_dir),
                 "--pattern", "?p brandIs apple", "--limit", "-1"]) == 2
    assert "--limit must be >= 0" in capsys.readouterr().err


def test_parser_serve_defaults():
    parser = build_parser()
    args = parser.parse_args(["serve", "--store-dir", "/tmp/x"])
    assert args.host == "127.0.0.1" and args.port is None
    assert args.max_batch == 256 and args.cursor_ttl == 300.0


def test_cli_serve_requires_store_dir(capsys):
    assert main(["serve"]) == 2
    assert "requires --store-dir" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf", "-inf"])
def test_cli_serve_rejects_bad_follow_poll_interval(tmp_path, capsys, value):
    """argparse's type=float accepts nan/inf/non-positives; the CLI
    boundary must turn them into the typed error path (stderr + rc 2),
    not a busy-spinning replica or a constructor traceback."""
    store_dir = _saved_store(tmp_path)
    rc = main(["serve", "--store-dir", str(store_dir),
               "--port", "0", "--follow", "127.0.0.1:1",
               f"--follow-poll-interval={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--follow-poll-interval" in err and "error:" in err


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_cli_serve_rejects_bad_cache_mb(tmp_path, capsys, value):
    store_dir = _saved_store(tmp_path)
    rc = main(["serve", "--store-dir", str(store_dir),
               "--port", "0", "--cache-mb", value])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--cache-mb" in err and "error:" in err


def test_cli_query_url_and_store_dir_are_exclusive(tmp_path, capsys):
    store_dir = _saved_store(tmp_path)
    assert main(["query", "--store-dir", str(store_dir),
                 "--url", "127.0.0.1:1", "--pattern", "?p brandIs ?b"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_query_url_against_live_server(tmp_path, capsys):
    """query --url streams the same TSV the local path prints."""
    from repro.kg.server import KGServer

    store_dir = _saved_store(tmp_path, backend="sharded")
    query_args = ["query", "--pattern", "?p brandIs ?b",
                  "--pattern", "?b headquartersIn ?c", "--select", "?p"]
    assert main(query_args + ["--store-dir", str(store_dir)]) == 0
    local_out = capsys.readouterr().out
    with KGServer.open(store_dir, port=0).start() as server:
        assert main(query_args + ["--url", server.url,
                                  "--page-size", "1"]) == 0
        assert capsys.readouterr().out == local_out
        # Remote errors surface like local ones: stderr + exit 2.
        assert main(["query", "--url", server.url,
                     "--pattern", "?p brandIs ?b",
                     "--select", "?oops"]) == 2
        assert "?oops" in capsys.readouterr().err


def test_cli_serve_subprocess_end_to_end(tmp_path):
    """The real `repro serve` process: spawn, parse the bound port,
    query it over TCP, terminate."""
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    store_dir = _saved_store(tmp_path)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--store-dir", str(store_dir), "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        match = re.search(r"serving \d+ triples .* on ([\d.]+):(\d+)", line)
        assert match, f"unexpected serve banner: {line!r}"
        from repro.kg.client import RemoteStore

        with RemoteStore(f"{match.group(1)}:{match.group(2)}") as remote:
            assert len(remote) == 6
            assert remote.count(None, "brandIs", None) == 3
    finally:
        process.terminate()
        process.wait(timeout=10)
