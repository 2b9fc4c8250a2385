"""Four repo rules that guard what the release promises, as plain AST checks.

* RNG: a fixed seed gives a bitwise-identical build only if every draw
  comes from an explicit ``np.random.Generator`` (or ``random.Random``).
  No legacy ``np.random.<fn>`` or stdlib ``random.<fn>``, whose hidden
  global state any library call may advance, in ``RNG_DIRS``.
* Twins: every ``*_reference`` function in ``src/`` keeps its fast twin
  in its module (the name minus ``_reference``, with or without a
  leading underscore), and a file under ``tests/`` names it.
* Spawner: only ``SPAWNER`` imports ``multiprocessing`` or a process
  pool, so every worker process is spawned (never forked under a
  threaded parent) with its BLAS threads capped.
* Dependencies: modules under ``src/`` import only the standard library,
  numpy and ``repro`` itself, so the package installs with numpy alone
  and no process pays for a library it does not need.

All run on the repo and on planted trees, so a blind check fails too.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

THIS = Path(__file__).resolve()
REPO = THIS.parents[1]
RNG_DIRS = ("src", "tests", "scripts", "examples")
MARKER = "_reference"
SPAWNER = Path("src/repro/core/workers.py")
#: Top-level packages a ``src/`` module may import.
ALLOWED_IMPORTS = frozenset(sys.stdlib_module_names) | {"numpy", "repro"}

#: numpy.random attributes that touch the hidden global RandomState.
NUMPY_LEGACY = {
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "normal",
    "uniform", "binomial", "poisson", "beta", "gamma", "exponential",
    "multinomial", "standard_normal", "get_state", "set_state",
    "RandomState",
}

#: stdlib random functions that use the process-global generator.
STDLIB_GLOBAL = {
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "getrandbits", "randbytes",
}

FROM_BANNED = {"numpy.random": NUMPY_LEGACY, "random": STDLIB_GLOBAL}


def python_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def global_rng_uses(source: str) -> list[str]:
    """``"<line>: <form>"`` for every global-RNG use in one module."""
    tree = ast.parse(source)
    numpy, banned_on = set(), defaultdict(set)
    # Imports first, so a use before a late (function-level) import counts.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy" or (a.name == "numpy.random" and not a.asname):
                    numpy.add(a.asname or "numpy")
                elif a.name == "numpy.random":
                    banned_on[a.asname] |= NUMPY_LEGACY
                elif a.name == "random":
                    banned_on[a.asname or "random"] |= STDLIB_GLOBAL
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for a in node.names:
                if a.name == "random":
                    banned_on[a.asname or "random"] |= NUMPY_LEGACY
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in FROM_BANNED:
            found += [
                f"{node.lineno}: from {node.module} import {a.name}"
                for a in node.names if a.name in FROM_BANNED[node.module]
            ]
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                banned = banned_on.get(base.id, ())
            elif (
                isinstance(base, ast.Attribute) and base.attr == "random"
                and isinstance(base.value, ast.Name) and base.value.id in numpy
            ):
                banned = NUMPY_LEGACY
            else:
                continue
            if node.attr in banned:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def rng_findings(root: Path) -> list[str]:
    return [
        f"{path.relative_to(root)}:{use}"
        for directory in RNG_DIRS
        for path in python_files(root / directory)
        for use in global_rng_uses(path.read_text(encoding="utf-8"))
    ]


def twin_candidates(reference_name: str) -> set[str]:
    base = reference_name.replace(MARKER, "")
    return {name for name in (base, base.lstrip("_")) if name}


def twin_findings(root: Path) -> list[str]:
    # This module plants reference names of its own; they name nothing.
    tests_text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in python_files(root / "tests") if path != THIS
    )
    found = []
    for path in python_files(root / "src"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        names = {node.name for node in defs}
        for node in defs:
            if MARKER not in node.name:
                continue
            where = f"{path.relative_to(root)}:{node.lineno}: {node.name}"
            if not twin_candidates(node.name) & names:
                found.append(f"{where} has no fast twin in its module")
            elif node.name not in tests_text:
                found.append(f"{where} is named by no file under tests/")
    return found


def process_pool_imports(source: str) -> list[str]:
    """``"<line>: <form>"`` for every way one module can reach
    ``multiprocessing`` or ``ProcessPoolExecutor``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                f"{node.lineno}: import {a.name}" for a in node.names
                if a.name.split(".")[0] == "multiprocessing"
            ]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "multiprocessing" or (
                node.module == "concurrent.futures.process"
            ):
                found.append(f"{node.lineno}: from {node.module} import")
            elif node.module == "concurrent.futures":
                found += [
                    f"{node.lineno}: from concurrent.futures import {a.name}"
                    for a in node.names
                    if a.name in {"ProcessPoolExecutor", "process"}
                ]
        elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def spawner_findings(root: Path) -> list[str]:
    return [
        f"{path.relative_to(root)}:{use}"
        for path in python_files(root / "src")
        if path.relative_to(root) != SPAWNER
        for use in process_pool_imports(path.read_text(encoding="utf-8"))
    ]


def foreign_imports(source: str) -> list[str]:
    """``"<line>: <module>"`` for every absolute import of a top-level
    package outside ``ALLOWED_IMPORTS``; relative imports stay in repro."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{node.lineno}: {module}" for module in modules
            if module.split(".")[0] not in ALLOWED_IMPORTS
        ]
    return found


def dependency_findings(root: Path) -> list[str]:
    return [
        f"{path.relative_to(root)}:{use}"
        for path in python_files(root / "src")
        for use in foreign_imports(path.read_text(encoding="utf-8"))
    ]


def plant(root: Path, files: dict[str, str]) -> Path:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


# -- the repo ------------------------------------------------------------------


def test_repo_uses_no_global_rng():
    assert all(python_files(REPO / d) for d in RNG_DIRS)
    assert rng_findings(REPO) == []


def test_repo_references_keep_twin_and_test():
    assert twin_findings(REPO) == []


def test_repo_spawns_processes_in_one_module():
    assert process_pool_imports((REPO / SPAWNER).read_text(encoding="utf-8"))
    assert spawner_findings(REPO) == []


def test_repo_imports_only_stdlib_numpy_and_itself():
    assert python_files(REPO / "src")
    assert dependency_findings(REPO) == []


# -- RNG discipline on planted trees -------------------------------------------


@pytest.mark.parametrize("source, uses", [
    ("import numpy as np\nnp.random.seed(0)\n", 1),
    ("import numpy as np\na = np.random.rand(3)\n"
     "b = np.random.randint(0, 10)\nnp.random.shuffle(a)\n", 3),
    ("import numpy.random\nnumpy.random.permutation(4)\n", 1),
    ("import numpy.random as npr\nx = npr.normal(0.0, 1.0)\n", 1),
    ("from numpy import random as nprand\nx = nprand.uniform()\n", 1),
    ("from numpy.random import shuffle\n", 1),
    ("import random\nx = random.choice([1, 2, 3])\nrandom.seed(7)\n", 2),
    ("import random as r\nr.gauss(0, 1)\n", 1),
    ("from random import shuffle\n", 1),
    ("def f():\n    import random\n    return random.random()\n", 1),
], ids=[
    "np-random-seed", "np-random-sampling", "import-numpy-random",
    "numpy-random-alias", "from-numpy-import-random",
    "from-numpy-random-import", "stdlib-module", "stdlib-alias",
    "from-random-import", "late-import",
])
def test_global_rng_is_caught(tmp_path, source, uses):
    plant(tmp_path, {"src/pkg/mod.py": source})
    assert len(rng_findings(tmp_path)) == uses


@pytest.mark.parametrize("directory", RNG_DIRS)
def test_every_rng_directory_is_scanned(tmp_path, directory):
    relpath = f"{directory}/sub/mod.py"
    plant(tmp_path, {relpath: "import numpy as np\nnp.random.seed(0)\n"})
    assert rng_findings(tmp_path) == [f"{relpath}:2: np.random.seed"]


@pytest.mark.parametrize("source", [
    "import numpy as np\nrng = np.random.default_rng(1234)\n"
    "x = rng.random(8)\nrng.shuffle(x)\nss = np.random.SeedSequence(5)\n"
    "gen: np.random.Generator = np.random.Generator(np.random.PCG64(ss))\n",
    "import random\nrng = random.Random(7)\nx = rng.choice([1, 2, 3])\n",
    "def f(config):\n    return config.random.choice([1])\n",
    "from numpy.random import default_rng, Generator\n",
], ids=[
    "default-rng-and-generator", "seeded-random-instance",
    "unrelated-random-attribute", "non-legacy-from-import",
])
def test_explicit_generators_pass(tmp_path, source):
    plant(tmp_path, {"src/pkg/mod.py": source})
    assert rng_findings(tmp_path) == []


# -- reference twins on planted trees ------------------------------------------


def test_twin_candidates_handle_underscore_and_infix_forms():
    assert twin_candidates("scatter_add_rows_reference") == {"scatter_add_rows"}
    assert twin_candidates("_train_reference") == {"_train", "train"}
    assert twin_candidates("_train_reference_from_frequencies") == {
        "_train_from_frequencies", "train_from_frequencies",
    }


SCAN_REFERENCE = "def scan_reference(xs):\n    return sorted(xs)\n"
SCAN = "def scan(xs):\n    return sorted(xs)\n"
EQUIVALENCE_TEST = "from kernels import scan, scan_reference\n"
NO_TWIN = "src/kernels.py:1: scan_reference has no fast twin in its module"


@pytest.mark.parametrize("files, finding", [
    ({"src/kernels.py": SCAN_REFERENCE, "tests/test_k.py": EQUIVALENCE_TEST},
     NO_TWIN),
    ({"src/kernels.py": SCAN_REFERENCE + SCAN, "tests/test_k.py": ""},
     "src/kernels.py:1: scan_reference is named by no file under tests/"),
    ({"src/kernels.py": SCAN_REFERENCE, "src/fast.py": SCAN,
      "tests/test_k.py": EQUIVALENCE_TEST},
     NO_TWIN),
], ids=["no-twin", "no-test", "twin-in-other-module"])
def test_broken_pair_is_caught(tmp_path, files, finding):
    assert twin_findings(plant(tmp_path, files)) == [finding]


@pytest.mark.parametrize("kernels, tests", [
    (SCAN + SCAN_REFERENCE, EQUIVALENCE_TEST),
    ("class Tok:\n    def train(self, xs):\n        return xs\n\n"
     "    def _train_reference(self, xs):\n        return xs\n",
     "# exercises Tok._train_reference against train\n"),
    ("def preference_score(xs):\n    return sum(xs)\n", ""),
], ids=["paired-and-tested", "private-reference-public-twin", "no-marker"])
def test_kept_pair_passes(tmp_path, kernels, tests):
    files = {"src/kernels.py": kernels, "tests/test_k.py": tests}
    assert twin_findings(plant(tmp_path, files)) == []


# -- one spawner on planted trees -----------------------------------------------


@pytest.mark.parametrize("source", [
    "import multiprocessing\n",
    "import multiprocessing as mp\nctx = mp.get_context('fork')\n",
    "from multiprocessing import Process, Queue\n",
    "from multiprocessing.pool import Pool\n",
    "from concurrent.futures import Future, ProcessPoolExecutor\n",
    "import concurrent.futures\npool = concurrent.futures.ProcessPoolExecutor(2)\n",
    "from concurrent.futures.process import BrokenProcessPool\n",
    "def f():\n    import multiprocessing\n    return multiprocessing\n",
], ids=[
    "import", "alias", "from-import", "submodule", "from-futures",
    "futures-attribute", "futures-process-module", "late-import",
])
def test_second_spawner_is_caught(tmp_path, source):
    plant(tmp_path, {"src/repro/serve/pool.py": source})
    assert len(spawner_findings(tmp_path)) == 1


@pytest.mark.parametrize("files", [
    {"src/repro/serve/engine.py":
     "from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor\n"},
    {"src/repro/serve/engine.py":
     "import concurrent.futures\nf = concurrent.futures.Future()\n"},
    {"src/repro/core/workers.py":
     "import multiprocessing\nfrom concurrent.futures import ProcessPoolExecutor\n"},
    {"tests/test_pool.py": "import multiprocessing\n"},
], ids=["futures-without-processes", "future-attribute", "the-spawner", "tests"])
def test_one_spawner_passes(tmp_path, files):
    assert spawner_findings(plant(tmp_path, files)) == []


# -- dependencies on planted trees ---------------------------------------------


@pytest.mark.parametrize("source, finding", [
    ("import scipy.sparse\n", "1: scipy.sparse"),
    ("import numpy as np\nfrom scipy import sparse\n", "2: scipy"),
    ("def f():\n    import pandas\n    return pandas\n", "2: pandas"),
], ids=["import-submodule", "from-import", "late-import"])
def test_third_party_import_is_caught(tmp_path, source, finding):
    plant(tmp_path, {"src/repro/text/tfidf.py": source})
    assert dependency_findings(tmp_path) == [f"src/repro/text/tfidf.py:{finding}"]


@pytest.mark.parametrize("files", [
    {"src/repro/core/rng.py": "import numpy.random\n"},
    {"src/repro/core/io.py": "from __future__ import annotations\nimport json\n"
     "from collections.abc import Iterable\n"},
    {"src/repro/text/tfidf.py": "from . import tokenizer\nfrom .stats import x\n"
     "from repro.core.errors import NotFittedError\n"},
    {"tests/test_tfidf.py": "import scipy.sparse\n"},
], ids=["numpy-submodule", "stdlib", "relative-and-repro", "tests"])
def test_stdlib_numpy_and_repro_pass(tmp_path, files):
    assert dependency_findings(plant(tmp_path, files)) == []
