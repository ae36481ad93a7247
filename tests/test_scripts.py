"""The scripts and the benchmark use only terntrain names that exist, the
package defines no public name that only tests read, the trainer does no file
I/O, the model loader derives no quantizer state and the trainer never asks
whether a model is packed, modelio defines one error type and the CLI reads no
environment variable, no script trains a model itself, the digest script
reruns byte-identically, and the fixture script writes the desk's splits.

Of these files only `scripts/rerun_digest.py` and `scripts/make_synth_mnist.py`
run in this suite, so a deleted or renamed name that another imports would
otherwise go unnoticed.
Each file is parsed with ast, not run: every `import terntrain...`, every
`from terntrain... import name` and every attribute read off an imported
terntrain module (`data.Dataset`, `terntrain.trainer.train`) must resolve.

The converse holds too: every public top-level function and class of a
terntrain module is read, as a name, an attribute or an imported name,
somewhere in src/, scripts/ or perfbench/, or is named by a console script
in pyproject.toml. A name that only tests read is dead API.
"""

import ast
import builtins
import ctypes
import importlib
import os
import pathlib
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from terntrain.data import load_idx, make_synth_mnist

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
PACKAGE = "terntrain"
MODULES = sorted(ROOT.glob(f"src/{PACKAGE}/*.py"))


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


def public_definitions(source: str) -> set[str]:
    """The public top-level functions and classes a module defines."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {n.name for n in ast.parse(source).body if isinstance(n, defs) and not n.name.startswith("_")}


def names_read(source: str) -> set[str]:
    """Every name the source reads, every attribute it touches and every name it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_public_names(modules: dict[str, str], readers: list[str], entry_points: set[str]) -> list[str]:
    """module.name of each public definition in modules that no reader reads
    and no console script names. modules maps a module name to its source."""
    read = set(entry_points).union(*(names_read(src) for src in readers))
    return sorted(f"{mod}.{name}" for mod, src in modules.items() for name in public_definitions(src) - read)


def console_script_targets() -> set[str]:
    """The functions pyproject.toml's console scripts name, as in "terntrain.cli:entrypoint"."""
    text = (ROOT / "pyproject.toml").read_text()
    return set(re.findall(rf'"{PACKAGE}\.[\w.]+:(\w+)"', text))


def test_every_public_terntrain_name_is_read_outside_the_tests():
    modules = {p.stem: p.read_text() for p in MODULES}
    readers = [*modules.values(), *(p.read_text() for p in FILES)]
    unread = unread_public_names(modules, readers, console_script_targets())
    assert unread == [], f"public names that only tests read: {unread}"


def test_the_dead_api_check_flags_a_test_only_name():
    modules = {
        "core": "def used(): ...\nclass Used: ...\ndef planted_test_only(): ...\ndef _private(): ...\n",
        "cli": "from .core import used\ndef entrypoint(): used()\n",
    }
    readers = [*modules.values(), "from terntrain import core\ncore.Used()\n"]
    assert unread_public_names(modules, readers, {"entrypoint"}) == ["core.planted_test_only"]
    assert unread_public_names(modules, readers, set()) == ["cli.entrypoint", "core.planted_test_only"]


def file_io(source: str) -> list[str]:
    """"<line>: <what>" for each `open` call and each import of csv or os in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((node.lineno, "open()"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] in ("csv", "os")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("csv", "os"):
            found.append((node.lineno, f"from {node.module} import"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_trainer_does_no_file_io():
    """The CLI writes every file of a run; the trainer computes and returns rows."""
    assert file_io((ROOT / "src" / PACKAGE / "trainer.py").read_text()) == []


def test_the_file_io_check_flags_open_and_csv_and_os():
    source = "import csv\nfrom os import path\nimport os.path as p\nopen('a')\nio.open('b')\nnp.load('c')\nimport io\n"
    assert file_io(source) == ["1: import csv", "2: from os import", "3: import os.path", "4: open()", "5: open()"]


QUANTIZER_WRITERS = ("refresh", "layer_stats")


def quantizer_writers_imported(source: str) -> list[str]:
    """"<line>: <name>" for each quantizer writer the source imports from the ternarize
    module, by a relative or a terntrain import, or reads off that module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "ternarize":
            found += [(node.lineno, a.name) for a in node.names if a.name in QUANTIZER_WRITERS]
        elif isinstance(node, ast.Attribute) and node.attr in QUANTIZER_WRITERS:
            if (_dotted(node) or "").split(".")[-2:-1] == ["ternarize"]:
                found.append((node.lineno, node.attr))
    return [f"{line}: {name}" for line, name in sorted(found)]


def attributes_named(source: str, attr: str) -> list[int]:
    """The lines on which the source reads or writes an attribute named attr."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute) and n.attr == attr)


def test_a_model_file_only_decodes_and_the_trainer_never_asks_if_a_model_is_packed():
    """Model.refresh_all() alone readies a model to run: the loaders derive no
    quantizer state, and the trainer treats a packed model like any other."""
    assert quantizer_writers_imported((ROOT / "src" / PACKAGE / "modelio.py").read_text()) == []
    assert attributes_named((ROOT / "src" / PACKAGE / "trainer.py").read_text(), "packed") == []


def test_the_readiness_check_flags_quantizer_writers_and_packed_reads():
    source = (
        "from .ternarize import QuantizerState, refresh\n"
        "from terntrain.ternarize import layer_stats as stats\n"
        "from . import ternarize\n"
        "ternarize.refresh(st, w)\n"
        "terntrain.ternarize.layer_stats(w)\n"
        "from .network import refresh\n"
        "model.refresh_all()\n"
        "if model.packed and not packed:\n"
        "    model.packed = False\n"
    )
    assert quantizer_writers_imported(source) == ["1: refresh", "2: layer_stats", "4: refresh", "5: layer_stats"]
    assert attributes_named(source, "packed") == [8, 9]


def exception_classes(source: str) -> list[str]:
    """The top-level classes of the source that derive from a built-in
    exception, directly or through a class defined before them."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for base in map(_dotted, node.bases):
                builtin = getattr(builtins, base or "", None)
                if base in found or (isinstance(builtin, type) and issubclass(builtin, BaseException)):
                    found.append(node.name)
                    break
    return found


ENVIRONMENT_READERS = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source: str) -> list[int]:
    """The lines on which the source reads or imports os.environ or os.getenv."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in ENVIRONMENT_READERS for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_modelio_has_one_error_type_and_the_cli_reads_no_environment():
    """Every model file rejection is a ModelIOError, and a run's settings come
    from its config file and flags alone."""
    assert exception_classes((ROOT / "src" / PACKAGE / "modelio.py").read_text()) == ["ModelIOError"]
    assert environment_reads((ROOT / "src" / PACKAGE / "cli.py").read_text()) == []


def test_the_surface_check_flags_error_classes_and_environment_reads():
    source = (
        "import os\n"
        "from os import getenv, path\n"
        "class A(Exception): ...\n"
        "class B(A): ...\n"
        "class C(Mixin, ValueError): ...\n"
        "class D: ...\n"
        "class E(D, abc.ABC): ...\n"
        "seed = os.environ.get('SEED')\n"
        "os.getenv('X')\n"
        "os.path.exists('y')\n"
    )
    assert exception_classes(source) == ["A", "B", "C"]
    assert environment_reads(source) == [2, 8, 9]


TRAINING_NAMES = {f"{PACKAGE}.trainer.{name}" for name in ("pretrain", "train", "make_train_state")}
SCRIPTS = sorted(ROOT.glob("scripts/*.py"))


def training_calls(source: str) -> list[str]:
    """"<line>: <name>" for each trainer entry point the source imports or reads."""
    return [f"{line}: {ref}" for line, ref in sorted(references(source)) if ref in TRAINING_NAMES]


@pytest.mark.parametrize("path", SCRIPTS, ids=[str(p.relative_to(ROOT)) for p in SCRIPTS])
def test_no_script_trains_a_model_itself(path):
    """A script drives cli.main, so it trains with the settings a user's run
    would, not with a copy of them."""
    assert training_calls(path.read_text()) == []


def test_the_training_check_flags_trainer_entry_points():
    source = (
        "from terntrain.trainer import eval_loss_acc, train\n"
        "from terntrain import trainer as tr\n"
        "import terntrain.trainer\n"
        "tr.make_train_state(m)\n"
        "terntrain.trainer.pretrain(m, ds)\n"
        "tr.tern_train_step\n"
    )
    assert training_calls(source) == [
        "1: terntrain.trainer.train",
        "4: terntrain.trainer.make_train_state",
        "5: terntrain.trainer.pretrain",
    ]


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


# What scripts/rerun_digest.py prints at one BLAS thread on the build below.
# Another numpy, OpenBLAS or BLAS core kernel may sum in another order, so
# the digests are compared only on this build; a change that moves an output
# byte has to say so here.
PINNED_BUILD = {"numpy": "2.4.6", "openblas": "0.3.31.188.0", "core": "SkylakeX"}
PINNED_DIGESTS = """\
mlp-784-300-100-10 pretrain-csv bb8471fdc46c56e82a0b2d6f6dfc4258c111c52b748a3ddc09672af154771eee
mlp-784-300-100-10 pretrain-tnck 93a639a72a05a984c1dfc5d262a01150d983eaea08fc058421aefd32c9780db9
mlp-784-300-100-10 csv c0fbb64d68f1d3ec592308be016388b518f90d3e4dacdb28440e7be647010731
mlp-784-300-100-10 tnck 35889e01f762f7c015da91ff93a76d79fe706a33d64ed0b5a50f2a2108ec05ee
mlp-784-300-100-10 tern 64cbb76a1fdc948e3539ee290ee3e36677fb04bd7fb55eeffefcc51bab212b37
lenet-small pretrain-csv d116a7432e68d2538239aa27e2a2b75f45ddba9ee08037f1d5f486c529b517a0
lenet-small pretrain-tnck e56f904aac26dc00e4f4cd2e56832e8bc38582d7315479412ea88e8b040f83bd
lenet-small csv f0dcf95891c13950101a19435f13ef57a007e36eb5f1900d50d1edeccadee59f
lenet-small tnck aba544d6c79c42a00ab0b7a65740424be8efbcb590ae958e82fdf90b49baaa70
lenet-small tern 0420481b2a2dcc88cfe1cd0632f76c49a6c3ec99a6184f6231dea69fe378549a
""".splitlines()


def blas_build() -> dict:
    """numpy's version, and the version and core name of the OpenBLAS it
    loaded (None for each when it is not OpenBLAS or cannot be asked)."""
    build = {"numpy": np.__version__, "openblas": None, "core": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return build
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for config, core in (("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"),
                             ("openblas_get_config", "openblas_get_corename")):
            if hasattr(lib, config) and hasattr(lib, core):
                getattr(lib, config).restype = getattr(lib, core).restype = ctypes.c_char_p
                # The config string reads "OpenBLAS <version> <build options>".
                build["openblas"] = getattr(lib, config)().decode().split()[1]
                build["core"] = getattr(lib, core)().decode()
                return build
    return build


def test_the_digest_script_prints_the_pinned_digests():
    """A change that claims to move no output byte is checked here, on the
    build the digests were pinned on."""
    build = blas_build()
    if build != PINNED_BUILD:
        pytest.skip(f"digests are pinned on {PINNED_BUILD}, this build is {build}")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "rerun_digest.py")],
                          capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    if lines[0] != "blas_threads 1":
        pytest.skip(f"digests are pinned at one BLAS thread, the script printed {lines[0]!r}")
    assert lines[1:] == PINNED_DIGESTS


def test_the_fixture_script_writes_desk_seed_11s_splits(tmp_path):
    """With its default seeds the script writes what make_synth_mnist gives
    for seeds 111 and 211, the splits the desk runs draw for seed 11."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "scripts" / "make_synth_mnist.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path), "--train", "40", "--test", "24"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for split, n, seed in (("train", 40, 111), ("test", 24, 211)):
        ds = load_idx(tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx")
        images, labels = make_synth_mnist(n, seed=seed)
        assert np.array_equal(ds.images[:, 0], images / 255.0), split
        assert np.array_equal(ds.labels, labels), split


@pytest.mark.parametrize("flag, count", [("--train", "-5"), ("--train", "0"), ("--test", "0"), ("--test", "2.5")])
def test_the_fixture_script_rejects_a_count_below_one_before_writing(tmp_path, flag, count):
    """Every command rejects an empty split, and numpy a negative one, so
    such a count is a usage error and no file is written."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "scripts" / "make_synth_mnist.py"
    out_dir = tmp_path / "data"
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(out_dir), flag, count],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"argument {flag}: expected an integer of 1 or more, got '{count}'" in proc.stderr
    assert not out_dir.exists()
