"""The cold path: what a run imports and builds before it rewrites.

* **Import set.**  A fresh interpreter that imports the in-process path
  loads no process pool, SAT, exporter, span tree or metrics registry,
  baseline engine, table generator or suite, and a DACPara run adds no
  module at all.
* **Public API.**  Every name in a lazy package's ``__all__`` resolves
  to its defining submodule's object in any reading order, including
  the names that share a submodule's name (``repro.aig.check``,
  ``repro.library.isop``), which the import system would otherwise
  shadow with the module.
* **NPN tables.**  The vector transform build and the matvec LUT build
  return exactly what the loop references in ``tests/reference.py``
  return.
* **CLI start-up.**  ``stats``, ``gen`` and ``rewrite`` without
  ``--verify`` load no SAT module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference import build_canon_lut_orbits, build_transforms_loop
from repro.aig import write_aig
from repro.npn import canon

from conftest import deep_chain_circuit

ROOT = Path(__file__).resolve().parent.parent
IN_PROCESS_PATH = ("repro.aig", "repro.core.dacpara", "repro.library",
                   "repro.npn", "repro.config")
NOT_ON_THE_PATH = (
    "repro.galois.procpool", "repro.galois.shipper", "repro.galois.faults",
    "repro.aig.snapshot", "repro.core.shards",
    "repro.sat",
    "repro.obs.export", "repro.obs.profile", "repro.obs.metrics",
    "repro.obs.tracer",
    "repro.rewrite.serial", "repro.rewrite.lockfused",
    "repro.rewrite.static_gpu",
    "repro.library.isop", "repro.library.factor", "repro.library.synthesis",
    "repro.bench.suite",
    "multiprocessing",
)
LAZY_PACKAGES = ("repro", "repro.aig", "repro.galois", "repro.obs",
                 "repro.rewrite", "repro.library", "repro.bench")


def fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter with ``src`` and ``tests`` on
    the path; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"),
                    env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def loaded(modules, name: str) -> bool:
    return any(m == name or m.startswith(name + ".") for m in modules)


class TestImportSet:
    def test_in_process_path_loads_only_what_it_runs(self):
        modules = fresh(
            "import json, sys\n"
            + "".join(f"import {m}\n" for m in IN_PROCESS_PATH)
            + "print(json.dumps(sorted(sys.modules)))"
        )
        assert not [m for m in NOT_ON_THE_PATH if loaded(modules, m)]
        assert "repro.rewrite.columnar" in modules  # the run's kernel

    def test_a_run_imports_nothing(self):
        """Every module a default DACPara run uses is loaded by the time
        the rewriter exists: no import lands inside the timed run."""
        new = fresh(
            "import json, sys\n"
            "from conftest import deep_chain_circuit\n"
            "from repro.config import dacpara_config\n"
            "from repro.core.dacpara import DACParaRewriter\n"
            "aig = deep_chain_circuit()\n"
            "rewriter = DACParaRewriter(dacpara_config())\n"
            "before = set(sys.modules)\n"
            "result = rewriter.run(aig)\n"
            "assert result.replacements > 0\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        assert new == []


def _resolve_all(order: str) -> str:
    """A fresh-interpreter script: read every lazy package's ``__all__``
    in ``order``, twice (the second pass after every submodule has
    loaded), and report each name that does not resolve to the object
    its defining module holds."""
    return f"""
import importlib, json, sys, types
from repro import _lazy

def defining(package, name):
    sub = _lazy._OWNERS[package][name]
    module = importlib.import_module(f"{{package}}.{{sub}}")
    if name in _lazy._OWNERS.get(module.__name__, {{}}):
        return defining(module.__name__, name)
    return vars(module)[name]

bad = []
packages = [importlib.import_module(p) for p in {LAZY_PACKAGES!r}]
for sweep in range(2):
    for package in packages:
        names = list(package.__all__)
        if {order!r} == "reverse":
            names.reverse()
        for name in names:
            value = getattr(package, name)
            if isinstance(value, types.ModuleType):
                bad.append(f"{{package.__name__}}.{{name}} is a module")
            elif (name in _lazy._OWNERS[package.__name__]
                    and value is not defining(package.__name__, name)):
                bad.append(f"{{package.__name__}}.{{name}}")
print(json.dumps(bad))
"""


class TestPublicApi:
    @pytest.mark.parametrize("order", ("forward", "reverse"))
    def test_every_export_resolves_in_either_order(self, order):
        assert fresh(_resolve_all(order)) == []

    def test_a_direct_submodule_import_does_not_shadow(self):
        """``factor`` imports ``isop``, and ``import repro.aig.check``
        binds the module ``check``: each package still hands out the
        function of that name."""
        assert fresh(
            "import json\n"
            "import repro.library.factor\n"
            "import repro.aig.check, repro.aig.mffc, repro.aig.simulate\n"
            "import repro\n"
            "from repro.library.isop import isop\n"
            "from repro.aig.check import check\n"
            "from repro.aig.mffc import mffc\n"
            "from repro.aig.simulate import simulate\n"
            "print(json.dumps([repro.library.isop is isop,\n"
            "                  repro.aig.check is check, repro.check is check,\n"
            "                  repro.aig.mffc is mffc,\n"
            "                  repro.aig.simulate is simulate]))"
        ) == [True] * 5

    def test_dir_lists_all_and_submodules_still_import(self):
        assert fresh(
            "import json, sys\n"
            "import repro\n"
            "from repro import config\n"
            "packages = " + repr(LAZY_PACKAGES) + "\n"
            "missing = [p for p in packages\n"
            "           if not set(__import__(p, fromlist=['_']).__all__)\n"
            "           <= set(dir(sys.modules[p]))]\n"
            "print(json.dumps([missing, config is sys.modules['repro.config'],\n"
            "                  repro.galois is sys.modules['repro.galois']]))"
        ) == [[], True, True]


class TestNpnTables:
    """The vector builders against the loop references, dtypes too."""

    def test_transforms_equal_the_loop_build(self):
        transforms, matrices, out_flags = build_transforms_loop()
        assert canon._TRANSFORMS == transforms
        assert all(type(i) is int for t in canon._TRANSFORMS for i in t.perm)
        assert canon._MATRICES.dtype == matrices.dtype
        assert np.array_equal(canon._MATRICES, matrices)
        assert canon._OUT_FLAGS.dtype == out_flags.dtype
        assert np.array_equal(canon._OUT_FLAGS, out_flags)

    def test_lut_equals_the_orbit_build(self):
        lut_canon, lut_rows = canon._build_canon_lut()
        ref_canon, ref_rows = build_canon_lut_orbits()
        assert lut_canon.dtype == ref_canon.dtype
        assert lut_rows.dtype == ref_rows.dtype
        assert np.array_equal(lut_canon, ref_canon)
        assert np.array_equal(lut_rows, ref_rows)


def _cli_imports(args, cwd: Path):
    """Modules a ``python -m repro`` run imports (``-X importtime``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *args],
        cwd=cwd, env=env, check=True, capture_output=True, text=True,
        timeout=300)
    return [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


class TestCliStartup:
    @pytest.fixture(scope="class")
    def circuit(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "chain.aig"
        write_aig(deep_chain_circuit(stages=6), path)
        return path

    @pytest.mark.parametrize("command", (
        ("stats", "chain.aig"),
        ("gen", "sin", "--base", "-o", "gen.aig"),
        ("rewrite", "chain.aig", "-o", "out.aig"),
    ))
    def test_no_sat_module(self, circuit, command):
        modules = _cli_imports(command, circuit.parent)
        assert "repro.cli" in modules
        assert not loaded(modules, "repro.sat")

    def test_verify_loads_the_prover(self, circuit):
        modules = _cli_imports(("rewrite", "chain.aig", "--verify"),
                               circuit.parent)
        assert "repro.sat.sweep" in modules
