"""The package surface: importing the package loads no module of it, no
scipy submodule loads until it is used, and no public name or parameter
default exists only for tests.  The oracle keeps one FFT convolution
kernel, one overflow rule that every product of laws passes through, and
one home for the law of A copies of a law."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bigjump
from bigjump.cli import main

ROOT = Path(bigjump.__file__).resolve().parents[2]

# Each costs 0.3 s or more at import (scipy.integrate alone 0.55 s, through
# scipy.special, scipy.optimize and numpy.f2py).
HEAVY = ("scipy.integrate", "scipy.fft", "scipy.special", "scipy.stats", "scipy.signal")


def _loaded_after(code: str, env: dict) -> set:
    """Every module loaded once a fresh interpreter has run ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(out.stdout))


def test_import_loads_no_heavy_scipy_submodule(src_env):
    assert _loaded_after("import bigjump, bigjump.cli", src_env) & set(HEAVY) == set()


def _scipy_modules(modules: set) -> set:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_clopper_pearson_leaves_scipy_unloaded(src_env):
    # The intervals' beta quantiles are solved in bigjump.stats itself.
    code = (
        "import numpy as np\n"
        "from bigjump.stats import clopper_pearson, empirical_survival\n"
        "clopper_pearson(3, 10, 0.95)\n"
        "chain = np.random.default_rng(1).integers(0, 10, size=2000)\n"
        "empirical_survival(chain, [2.0, 8.0], level=0.99, chain=True)"
    )
    assert _scipy_modules(_loaded_after(code, src_env)) == set()


def test_src_uses_no_numpy_routine_that_imports_numpy_ma():
    """src calls no ``np.union1d`` or ``np.unique`` and reads no ``np.ma``:
    on numpy 2.4 the set routines import numpy.ma the first time they run,
    tens of milliseconds and about 0.6 MB in every process that reaches
    them."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                numpy_attr = getattr(node.value, "id", None) in ("np", "numpy")
                if numpy_attr and node.attr in ("union1d", "unique", "ma"):
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                if "numpy.ma" in names or (names[0] == "numpy" and "ma" in names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _loaded_after_main(argv: list, env: dict) -> set:
    """Every module loaded once a fresh interpreter has run
    ``bigjump.cli.main(argv)``, which must exit 0; its stdout is dropped."""
    code = (
        "import contextlib, io\nfrom bigjump.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    return _loaded_after(code, env)


def test_oracle_command_leaves_numpy_ma_and_scipy_unloaded(src_env, tmp_path):
    # Only the commands that write JSON provenance import scipy, for its
    # version string.
    argv = ["oracle", "--cutoff", "256", "--out", str(tmp_path)]
    loaded = _loaded_after_main(argv, src_env)
    assert "numpy.ma" not in loaded
    assert _scipy_modules(loaded) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["model"],
        ["oracle", "--cutoff", "256"],
        ["predict"],
        ["attribute", "--x", "5", "--in", "simulate.csv"],
        ["verify", "--suite", "series,calibration,a_tail,second_scale_decay,"
         "repro_probe"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_that_draw_no_samples_leave_openssl_unloaded(
    src_env, tmp_path, argv
):
    """``_hashlib``, OpenSSL's libcrypto, about 3.6 MB resident, stays out
    of every command that draws no samples: ``config_hash`` is computed in
    ``cli`` itself.  numpy.random's seeding still loads it, through
    ``secrets``, in the commands that draw."""
    if argv[0] == "attribute":
        draw = ["simulate", "--method", "cluster", "--samples", "200", "--depth", "5"]
        assert main([*draw, "--out", str(tmp_path)]) == 0
        argv = [*argv[:-1], str(tmp_path / argv[-1])]
    loaded = _loaded_after_main([*argv, "--out", str(tmp_path)], src_env)
    assert "_hashlib" not in loaded


def _package_modules_after(code: str, env: dict) -> set:
    return {m for m in _loaded_after(code, env) if m.startswith("bigjump.")}


def test_package_import_loads_only_what_is_asked_for(src_env):
    # The public surface is the modules; the package re-exports nothing, so
    # importing it, or one module, loads no other module of it.
    assert _package_modules_after("import bigjump", src_env) == set()
    assert _package_modules_after("from bigjump import model", src_env) == {
        "bigjump._native",
        "bigjump.model",
    }


def _walk(folders=("src", "scripts", "bench"), skip=lambda path, node: False):
    """Every AST node of every Python file under the ``folders`` (by default
    src/, scripts/ and bench/), less each node, and the nodes inside it, for
    which ``skip(path, node)`` holds."""
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            todo = [ast.parse(path.read_text(), str(path))]
            while todo:
                node = todo.pop()
                if not skip(path, node):
                    yield node
                    todo.extend(ast.iter_child_nodes(node))


def _used_names(
    folders=("src", "scripts", "bench"), skip=lambda path, node: False
) -> set:
    """Every name that the ``folders`` read as a variable or an attribute,
    outside the nodes that ``skip`` leaves out (see `_walk`).  Definitions,
    assignment targets, imports, ``__all__`` strings and docstrings are not
    reads."""
    used = set()
    for node in _walk(folders, skip):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_tests():
    """Every name in a module's ``__all__`` is read somewhere in src/,
    scripts/ or bench/.  A public name that only tests read is a second API
    to keep working; the test goes through a private helper instead."""
    modules = [
        importlib.import_module(f"bigjump.{info.name}")
        for info in pkgutil.iter_modules(bigjump.__path__)
    ]
    exported = {
        (module.__name__, name)
        for module in modules
        for name in getattr(module, "__all__", ())
    }
    used = _used_names()
    assert sorted(f"{m}.{name}" for m, name in exported if name not in used) == []


def _is_verify_check(path: Path, node: ast.AST) -> bool:
    return (
        path == ROOT / "src" / "bigjump" / "cli.py"
        and isinstance(node, ast.FunctionDef)
        and node.name.startswith("_check_")
    )


def test_oracle_exports_only_what_code_outside_the_checks_reads():
    """Every name in ``bigjump.oracle.__all__`` is read in src/, scripts/ or
    bench/ outside the verify checks (the ``cli._check_*`` functions); the
    oracle's own functions count.  A law or a result type that only a check
    reads is that check's arithmetic, and lives beside it, not in the law
    module."""
    from bigjump import oracle

    assert sorted(set(oracle.__all__) - _used_names(skip=_is_verify_check)) == []


def test_src_reads_no_environment_variable():
    """Nothing under src/ reads ``os.environ`` or ``getenv``: every artifact
    is fixed by the config and its seed, with no hidden second input."""
    assert _used_names(("src",)) & {"environ", "getenv"} == set()


def test_oracle_has_one_fft_kernel():
    """numpy's FFT appears in the oracle only in the convolution kernel
    `_conv_full` and the spectrum it reuses, `_spectrum`: a second FFT
    product would be a second kernel to keep bit for bit in step, and one
    the benchmark's tracer does not see."""
    path = ROOT / "src" / "bigjump" / "oracle.py"
    tree = ast.parse(path.read_text(), str(path))
    kernel = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_conv_full", "_spectrum")
        for inner in ast.walk(node)
    }
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or ""]
            dotted += [alias.name for alias in node.names]
        else:
            continue
        parts = {part for name in dotted for part in name.split(".")}
        if "fft" in parts and id(node) not in kernel:
            outside.append(node.lineno)
    assert outside == []


def test_compound_is_called_only_by_the_chain_and_the_term():
    """``compound`` is called in src only by `_next_generation` (a thinned
    offspring count of copies) and `generation_term` (an immigration count
    of copies, where its series route cannot run): every other reader of
    the law of A copies of a law goes through `generation_term`."""
    allowed = ("_next_generation", "generation_term")
    inside, outside = [], []
    for path in sorted((ROOT / "src" / "bigjump").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        home = {
            id(inner): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and path.stem == "oracle"
            and node.name in allowed
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "compound" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                if id(node) in home:
                    inside.append(home[id(node)])
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert sorted(inside) == sorted(allowed)


def _callers(callee: str) -> set:
    """The top-level functions of src, as ``module.function``, whose bodies
    call ``callee`` by name or as an attribute; a nested function counts as
    the one it sits in."""
    found = set()
    for path in sorted((ROOT / "src" / "bigjump").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and callee in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_law_products_pass_through_the_one_overflow_rule():
    """The FFT kernel `_conv_full` is called only by `_product` and the two
    power-series products, and `_product` only by ``convolve`` and
    ``compound``: every product of laws goes through the one statement of
    the overflow rule."""
    assert _callers("_conv_full") == {
        "oracle._product",
        "oracle._series_product",
        "oracle._series_reciprocal",
    }
    assert _callers("_product") == {"oracle.convolve", "oracle.compound"}


def test_truncated_mean_of_a_has_one_reader():
    """E[A; A <= t] is read in src only by the immigration split of the
    per-generation predictor: every check that sets a term beside its
    first-order prediction goes through `per_generation_pred`."""
    assert _callers("truncated_mean_A") == {"asymptotics._immigration_split"}


def test_offspring_pgf_has_one_reader():
    """The offspring pgf's series is evaluated in src only by the growth of
    the extinction table: the generation chain, the cluster sampler and the
    depth remainder read P(D_n > 0) from that one orbit."""
    assert _callers("_offspring_survival_series") == {"model.extinction_table"}


def _defaulted_parameters() -> dict:
    """Each src function or method with a defaulted parameter, by name, as
    ``{name: [(position or None, parameter), ...]}``.  Position counts the
    arguments a call passes, so a method's ``self`` and ``cls`` are not
    counted; keyword-only parameters have none.  A class's ``__init__`` is
    listed under the class name, which is what its callers call."""
    found = {}
    for path in sorted((ROOT / "src" / "bigjump").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = {
            id(item): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            decorators = {getattr(d, "id", None) for d in node.decorator_list}
            skip = int(id(node) in owners and "staticmethod" not in decorators)
            first = len(positional) - len(args.defaults)
            params = [
                (i - skip, positional[i].arg) for i in range(first, len(positional))
            ]
            params += [
                (None, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            if params:
                name = owners[id(node)] if node.name == "__init__" else node.name
                found.setdefault(name, []).extend(params)
    return found


def test_every_default_is_overridden_outside_tests():
    """Every defaulted parameter of a src function is passed, by keyword or
    by position, by some call in src/, scripts/ or bench/.  A default that
    no such call overrides is one value in use: a constant, not a
    parameter, as `test_every_public_name_has_a_caller_outside_tests` holds
    for names."""
    defaulted = _defaulted_parameters()
    overridden = set()
    for node in _walk():
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {keyword.arg for keyword in node.keywords}
        for position, param in defaulted.get(name, ()):
            by_position = position is not None and (
                position < len(node.args) or starred
            )
            if by_position or param in keywords or None in keywords:
                overridden.add((name, param))
    assert sorted(
        f"{name}({param}=)"
        for name, params in defaulted.items()
        for _, param in params
        if (name, param) not in overridden
    ) == []
