"""numpy is ``lemon``'s only runtime dependency: no module imports scipy,
and running every command leaves it unimported."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: runs every CLI command in one process, a gelu model through expand
#: and verify, then reports which of the named modules were imported
SCRIPT = """
import json, sys
from pathlib import Path
from lemon.cli import main

d = Path(sys.argv[1])
cfg = d / "cfg.json"
cfg.write_text(json.dumps({"norm_style": "pre_ln", "depth": 2, "width": 8, "head_dim": 4,
                           "mlp_ratio": 2.0, "vocab_or_classes": 11, "activation": "gelu"}))
small, big = str(d / "small.lmn"), str(d / "big.lmn")
codes = [
    main(["init-random", "--config", str(cfg), "--out", small, "--seed", "1"]),
    main(["expand", "--in", small, "--out", big, "--target-width", "12",
          "--target-depth", "3", "--depth-mode", "type2", "--seed", "2"]),
    main(["verify", "--small", small, "--big", big, "--samples", "2", "--seq-len", "4"]),
    main(["symmetry", "--ckpt", big]),
    main(["inspect", big]),
    main(["schedule", "--preset", "vit-expanded", "--out", str(d / "lr.csv")]),
]
print(json.dumps({"codes": codes, "loaded": [m for m in ("scipy", "numpy.ma")
                                             if m in sys.modules]}))
"""


def test_commands_leave_scipy_unimported(tmp_path):
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0] * 6, "loaded": []}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    modules = sorted((SRC / "lemon").glob("*.py"))
    assert modules
    assert [p.name for p in modules if "scipy" in _imported_roots(p)] == []


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [dep.split(">")[0].split("=")[0].split("<")[0].strip()
             for dep in project["dependencies"]]
    assert names == ["numpy"]
