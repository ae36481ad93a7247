"""The scripts and the benchmark use only terntrain names that exist, and
the digest script reruns byte-identically.

Of these files only `scripts/rerun_digest.py` runs in this suite, so a
deleted or renamed name that another imports would otherwise go unnoticed.
Each file is parsed with ast, not run: every `import terntrain...`, every
`from terntrain... import name` and every attribute read off an imported
terntrain module (`data.Dataset`, `terntrain.trainer.train`) must resolve.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
PACKAGE = "terntrain"


def _dotted(node) -> str | None:
    """"a.b.c" for a chain of attribute reads on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def references(source: str) -> set[tuple[int, str]]:
    """(line, dotted terntrain path) of each terntrain name the source imports or reads."""
    tree = ast.parse(source)
    bound = {}  # local name -> the terntrain path it was imported as
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    refs.add((node.lineno, alias.name))
                    bound[alias.asname or PACKAGE] = alias.name if alias.asname else PACKAGE
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == PACKAGE:
            for alias in node.names:
                refs.add((node.lineno, f"{node.module}.{alias.name}"))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    # Only the outermost read of a chain: a.b.c, not also a.b.
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner and (chain := _dotted(node)):
            head, _, rest = chain.partition(".")
            if head in bound:
                refs.add((node.lineno, f"{bound[head]}.{rest}"))
    return refs


def missing_part(path: str) -> str | None:
    """The first part of a dotted terntrain path that does not resolve, else None.

    Attribute reads are followed only through modules: what an object
    holds past that is the object's business, not an import's.
    """
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not isinstance(obj, types.ModuleType):
            return None
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[: i + 1]))
            except ModuleNotFoundError:
                return ".".join(parts[: i + 1])
        obj = getattr(obj, part)
    return None


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_terntrain_name_a_script_uses_exists(path):
    refs = references(path.read_text())
    missing = sorted((line, ref, bad) for line, ref in refs if (bad := missing_part(ref)) is not None)
    assert missing == [], f"{path.relative_to(ROOT)}: names that do not resolve: {missing}"


def test_the_checker_flags_a_missing_name():
    source = (
        "from terntrain.data import Dataset, no_such_loader\n"
        "from terntrain import gaussian, trainer as tr\n"
        "import terntrain.modelio\n"
        "gaussian.truncated_upper_mean\n"
        "gaussian.no_such_clip(1.0)\n"
        "tr.train\n"
        "terntrain.modelio.no_such_format\n"
        "terntrain.no_such_module.f\n"
    )
    refs = references(source)
    bad = sorted(ref for _, ref in refs if missing_part(ref) is not None)
    assert bad == [
        "terntrain.data.no_such_loader",
        "terntrain.gaussian.no_such_clip",
        "terntrain.modelio.no_such_format",
        "terntrain.no_such_module.f",
    ]
    assert (6, "terntrain.trainer.train") in refs


def test_the_digest_script_reruns_byte_identically_in_fresh_processes():
    """Two runs, each in its own process with its own hash seed, print the
    same BLAS thread line and the same ten digests."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "rerun_digest.py")],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    lines = outputs[0].splitlines()
    assert re.fullmatch(r"blas_threads (\d+|None)", lines[0])
    assert len(lines) == 11
    for line in lines[1:]:
        assert re.fullmatch(r"(mlp-784-300-100-10|lenet-small) [a-z-]+ [0-9a-f]{64}", line), line
    assert outputs[0] == outputs[1]
