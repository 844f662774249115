"""A serving process imports only the serving stack.

``repro serve`` and ``repro cluster`` run ``repro.cli`` over
``repro.kg.server`` / ``repro.kg.cluster``.  Neither may pull in the
modelling stack (construction, benchmark sampling, embedding models,
ontology, catalog generation) nor networkx: every such module costs
each server process import time and resident memory it never uses.
The package's convenience names resolve lazily instead.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Never loaded by ``import repro.cli, repro.kg.server, repro.kg.cluster``.
NOT_SERVED = ("networkx", "repro.embedding", "repro.construction",
              "repro.benchmark", "repro.ontology", "repro.datagen")

SERVING_IMPORTS = "import repro.cli, repro.kg.server, repro.kg.cluster"


def test_a_serving_process_imports_only_the_serving_stack():
    """In a fresh interpreter (this one has imported everything)."""
    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root)
    probe = (f"{SERVING_IMPORTS}; import sys; "
             f"print(' '.join(sorted(m for m in sys.modules "
             f"if m.split('.')[0] == 'networkx' "
             f"or m.startswith({NOT_SERVED[1:]!r}))))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=60).stdout.split()
    assert loaded == []


@pytest.mark.parametrize("package", ["repro", "repro.kg"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError):
        repro.NotAName  # noqa: B018


def test_every_linkpred_model_names_an_embedding_class():
    from repro import embedding
    from repro.cli import MODEL_REGISTRY

    for name in MODEL_REGISTRY:
        assert isinstance(getattr(embedding, name), type), name
