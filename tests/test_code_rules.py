"""Source-level rules on the library code, checked by parsing it."""

import ast
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import calabilab
from calabilab.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "calabilab"
BLANKET = {"Exception", "BaseException"}
# numpy's Chebyshev-series products, quotients and calculus: the library
# has O(L) array recurrences for each (spectral.py, solver.py)
CHEB_SERIES = {"chebmul", "chebsub", "chebdiv", "chebder", "chebint"}
# every Chebyshev transform is the FFT DCT-I of spectral.py, so nothing
# needs numpy's polynomial package
POLYNOMIAL = "numpy.polynomial"
# 2x2 systems are solved by spectral.PivotedLU2 on Python floats: a LAPACK
# call costs several times the arithmetic, and no larger system is solved
LINALG = "linalg"
# solve_critical runs every case, f' constant included, through one Newton loop
NEWTON = "_newton"
SOLVER = SRC / "solver.py"
# the one iteration capped by a *_ITER constant is solver._newton's: the
# scalar curvature and (alpha, beta) are found by one Newton loop, with no
# inner solve
ITER_SUFFIX = "_ITER"
# every Chebyshev transform is one DCT-I, spectral._dct1, so numpy's FFT is
# reached only there (the README's "one FFT DCT-I for every Chebyshev
# transform")
FFT = "fft"
NUMPY = {"np", "numpy"}
DCT1 = "_dct1"
SPECTRAL = SRC / "spectral.py"
# numpy functions that are Python-level wrappers around an array method or a
# dtype test, each a microsecond or more per call on the hot path: the
# library calls .any(), .all(), .nonzero(), .real, reshape(-1) and
# dtype.kind instead, and irfft in place of hfft, which conjugates a copy
# of its input and then calls irfft
NUMPY_WRAPPERS = {"iscomplexobj", "any", "all", "nonzero", "flatnonzero", "real", "atleast_1d"}
FFT_WRAPPERS = {"hfft"}
# every name the package exports has a reader other than the unit tests: a
# library module, the benchmark (read, never changed, here) or the
# acceptance gate; a name only unit tests call is a second route to keep
# every file the package writes goes through serialize.write_outputs (a
# command's outputs) or serialize.dump_json, so only serialize.py opens a
# file for writing, makes a directory or calls json.dump
SERIALIZE = SRC / "serialize.py"
WRITE_MODE = set("wax+")
MAKE_DIRS = {"makedirs", "mkdir"}
WRITE_METHODS = {"write_text", "write_bytes"}
INIT = SRC / "__init__.py"
# a cached field of a value is spectral.cached_field, one lock-free
# descriptor: functools.cached_property takes a lock on each first read in
# Python 3.11 and would be a second caching route
CACHED_PROPERTY = "cached_property"
BENCH = SRC.parent.parent / "bench"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
# a dotted name in the README whose head is a package module or an exported
# class names something the package has: a deletion that leaves the README
# naming what it deleted fails here.  A name ending in a file extension
# (variation.json, cli.py) is a file, not an attribute
README = SRC.parent.parent / "README.md"
DOTTED = re.compile(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FILE_EXTENSIONS = {"py", "json", "csv", "md", "toml", "cfg"}
# every command line in the README's sh blocks parses with the CLI's own
# parser, so a flag the option table drops, renames or moves to another
# command cannot stay in the README
COMMAND = "calabilab "


def _blanket_handlers(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node.lineno, "bare except"
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for exc in caught:
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name in BLANKET:
                yield node.lineno, f"except {name}"


def _cheb_series_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name in CHEB_SERIES:
            yield node.lineno, name


def _polynomial_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name == POLYNOMIAL or name.startswith(POLYNOMIAL + "."):
                yield node.lineno, f"import {name}"


def _linalg_solve_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and LINALG in node.module.split("."):
            if any(alias.name == "solve" for alias in node.names):
                yield node.lineno, f"from {node.module} import solve"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "solve":
            owner = node.func.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if name == LINALG:
                yield node.lineno, "linalg.solve"


def _newton_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == NEWTON:
            yield node.lineno, NEWTON


def _iter_bounded_loops(tree: ast.AST, func: str = "<module>"):
    for node in ast.iter_child_nodes(tree):
        bound = node.iter if isinstance(node, ast.For) else node.test if isinstance(node, ast.While) else None
        if bound is not None:
            for sub in ast.walk(bound):
                name = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", None)
                if isinstance(name, str) and name.endswith(ITER_SUFFIX):
                    yield node.lineno, f"loop bounded by {name} in {func}"
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _iter_bounded_loops(node, inner)


def _fft_uses(tree: ast.AST, func: str = "<module>"):
    """Each reference to numpy's FFT module (np.fft, numpy.fft, or an import
    of it), with the function it is in."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr == FFT and getattr(node.value, "id", None) in NUMPY:
            yield node.lineno, f"{node.value.id}.fft in {func}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[:2] == ["numpy", FFT]:
                    yield node.lineno, f"import {alias.name} in {func}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[:2] == ["numpy", FFT] or (parts == ["numpy"] and any(a.name == FFT for a in node.names)):
                yield node.lineno, f"from {node.module} import in {func}"
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _fft_uses(node, inner)


def _numpy_wrapper_uses(tree: ast.AST):
    """Each reference to a name in NUMPY_WRAPPERS on np/numpy, or in
    FFT_WRAPPERS on np.fft/numpy.fft, and each import of one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if node.attr in NUMPY_WRAPPERS and getattr(owner, "id", None) in NUMPY:
                yield node.lineno, f"{owner.id}.{node.attr}"
            elif (node.attr in FFT_WRAPPERS and isinstance(owner, ast.Attribute) and owner.attr == FFT
                  and getattr(owner.value, "id", None) in NUMPY):
                yield node.lineno, f"{owner.value.id}.fft.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.fft"):
            banned = NUMPY_WRAPPERS if node.module == "numpy" else FFT_WRAPPERS
            for alias in node.names:
                if alias.name in banned:
                    yield node.lineno, f"from {node.module} import {alias.name}"


def _references(tree: ast.AST, enclosing: tuple = ()):
    """Each name read as a Name or an Attribute in tree, with the names of
    the functions and classes it is read in."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _references(node, enclosing + (node.name,) if defines else enclosing)


def _exports_without_reader(init: ast.AST, readers):
    """Each name imported into the package's __init__ (init) that no tree in
    readers reads outside its own definition."""
    read = {name for tree in readers for name, enclosing in _references(tree) if name not in enclosing}
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in read:
                    yield node.lineno, name


def _open_mode(call: ast.Call):
    """The mode argument of an open call, or None when it has none: the
    second argument of open(file, mode) and io.open, the first of
    path.open(mode)."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    fn = call.func
    plain = isinstance(fn, ast.Name) or getattr(fn.value, "id", None) in ("io", "builtins")
    index = 1 if plain else 0
    return call.args[index] if len(call.args) > index else None


def _file_writes(tree: ast.AST):
    """Each call that opens a file for writing (or with a mode it cannot
    read), writes a path's text or bytes, makes a directory or calls
    json.dump, and each import of makedirs, mkdir or json.dump."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("os", "json"):
            for alias in node.names:
                if alias.name in MAKE_DIRS or (node.module, alias.name) == ("json", "dump"):
                    yield node.lineno, f"from {node.module} import {alias.name}"
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name == "open":
            mode = _open_mode(node)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                yield node.lineno, "open with a computed mode"
            elif WRITE_MODE & set(mode.value):
                yield node.lineno, f"open for {mode.value!r}"
        elif name in MAKE_DIRS or name in WRITE_METHODS:
            yield node.lineno, name
        elif name == "dump" and getattr(fn.value, "id", None) == "json":
            yield node.lineno, "json.dump"


def _cached_property_uses(tree: ast.AST):
    """Each reference to functools.cached_property (under any module alias)
    and each import of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == CACHED_PROPERTY:
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name == CACHED_PROPERTY:
                    yield node.lineno, f"from functools import {CACHED_PROPERTY}"


def _library_findings(rule):
    files = sorted(SRC.glob("*.py"))
    assert files
    return [
        f"{path.name}:{line}: {what}"
        for path in files
        for line, what in rule(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_rule_detects_blanket_handlers():
    code = (
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept builtins.BaseException:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert [line for line, _ in _blanket_handlers(ast.parse(code))] == [3, 7, 11]


def test_no_blanket_except_in_library():
    assert _library_findings(_blanket_handlers) == []


def test_rule_detects_cheb_series_calls():
    code = (
        "from numpy.polynomial import chebyshev as cheb\n"
        "from numpy.polynomial.chebyshev import chebint\n"
        "a = cheb.chebmul(x, y)\n"
        "b = np.polynomial.chebyshev.chebsub(x, y)\n"
        "c = chebint(x)\n"
        "d = cheb.chebval(t, x)\n"
        "e = cheb.chebdiv(x, y)[0] + cheb.chebder(x)\n"
    )
    assert [line for line, _ in _cheb_series_calls(ast.parse(code))] == [3, 4, 5, 7, 7]


def test_no_cheb_series_calls_in_library():
    assert _library_findings(_cheb_series_calls) == []


def test_rule_detects_numpy_polynomial_imports():
    code = (
        "import numpy as np\n"
        "from numpy.polynomial import chebyshev as cheb\n"
        "import numpy.polynomial.legendre\n"
        "from numpy import polynomial\n"
        "from numpy.polynomial.chebyshev import chebval\n"
        "from numpy import fft\n"
        "from .polynomial import x\n"
    )
    assert [line for line, _ in _polynomial_imports(ast.parse(code))] == [2, 3, 4, 5]


def test_no_numpy_polynomial_import_in_library():
    assert _library_findings(_polynomial_imports) == []


def test_rule_detects_linalg_solve_calls():
    code = (
        "import numpy as np\n"
        "from numpy import linalg\n"
        "from numpy.linalg import solve\n"
        "from scipy.linalg import lstsq, solve as lsolve\n"
        "a = np.linalg.solve(m, r)\n"
        "b = linalg.solve(m, r)\n"
        "c = np.linalg.lstsq(m, r, rcond=None)\n"
        "d = lu.solve(r0, r1)\n"
        "e = numpy.linalg.solve(m, r)\n"
        "f = scipy.linalg.solve(m, r)\n"
    )
    assert [line for line, _ in _linalg_solve_calls(ast.parse(code))] == [3, 4, 5, 6, 9, 10]


def test_no_linalg_solve_in_library():
    assert _library_findings(_linalg_solve_calls) == []


def test_rule_detects_newton_calls():
    code = (
        "def _newton(shooter, s_of_ab, ds_dpsi, init):\n    pass\n"
        "if flat:\n    ab = _newton(shooter, lambda ab: ab, lambda s: 1.0, init)\n"
        "else:\n    ab = _newton(shooter, s_of_ab, ds_dpsi, init)\n"
        "newton = _newton\n"
    )
    assert [line for line, _ in _newton_calls(ast.parse(code))] == [4, 6]


def test_solver_calls_newton_once():
    tree = ast.parse(SOLVER.read_text(), filename=str(SOLVER))
    assert len(list(_newton_calls(tree))) == 1


def test_rule_detects_iter_bounded_loops():
    code = (
        "def _newton(shooter):\n"
        "    for it in range(MAX_NEWTON_ITER):\n"
        "        for _ in range(MAX_STEP_HALVINGS):\n            pass\n"
        "def _invert(g):\n"
        "    def step():\n"
        "        while k < cfg.MAX_INVERT_ITER:\n            pass\n"
        "    for i in range(n):\n        pass\n"
        "for _ in range(1, MAX_ITER + 1):\n    pass\n"
    )
    assert list(_iter_bounded_loops(ast.parse(code))) == [
        (2, "loop bounded by MAX_NEWTON_ITER in _newton"),
        (7, "loop bounded by MAX_INVERT_ITER in step"),
        (11, "loop bounded by MAX_ITER in <module>"),
    ]


def test_only_newton_loops_to_an_iteration_cap():
    findings = _library_findings(_iter_bounded_loops)
    assert len(findings) == 1 and findings[0].startswith(SOLVER.name), findings
    assert findings[0].endswith(f"in {NEWTON}"), findings


def test_rule_detects_fft_uses():
    code = (
        "import numpy as np\n"
        "def _dct1(v, n):\n"
        "    return np.fft.hfft(v, 2 * (n - 1))[:n]\n"
        "def coefficients_to_values(c):\n"
        "    return numpy.fft.rfft(c).real\n"
        "from numpy import fft\n"
        "from numpy.fft import irfft\n"
        "import numpy.fft as F\n"
        "rfft = np.fft.rfft\n"
        "y = scipy.fft.dct(x)\n"
    )
    assert list(_fft_uses(ast.parse(code))) == [
        (3, "np.fft in _dct1"),
        (5, "numpy.fft in coefficients_to_values"),
        (6, "from numpy import in <module>"),
        (7, "from numpy.fft import in <module>"),
        (8, "import numpy.fft in <module>"),
        (9, "np.fft in <module>"),
    ]


def test_fft_only_in_dct1():
    findings = _library_findings(_fft_uses)
    assert findings, "spectral._dct1 calls np.fft"
    assert all(f.startswith(f"{SPECTRAL.name}:") and f.endswith(f"in {DCT1}") for f in findings), findings


def test_rule_detects_numpy_wrapper_uses():
    code = (
        "import numpy as np\n"
        "if np.iscomplexobj(v) or np.any(v < 0):\n    pass\n"
        "keep = np.nonzero(mag > tol)[0]\n"
        "bad = numpy.flatnonzero(~ok) + np.all(ok)\n"
        "zr = np.real(np.atleast_1d(z))\n"
        "y = np.fft.hfft(v, 2 * m)\n"
        "from numpy import any, abs\n"
        "from numpy.fft import hfft, irfft\n"
        "y = np.fft.irfft(v, 2 * m, norm='forward')\n"
        "ok = (v < 0).any() or v.nonzero()[0].size or v.real.all() or np.abs(v).max()\n"
        "w = scipy.fft.hfft(v) + other.any(v)\n"
    )
    found = sorted(_numpy_wrapper_uses(ast.parse(code)))
    assert found == [
        (2, "np.any"), (2, "np.iscomplexobj"),
        (4, "np.nonzero"),
        (5, "np.all"), (5, "numpy.flatnonzero"),
        (6, "np.atleast_1d"), (6, "np.real"),
        (7, "np.fft.hfft"),
        (8, "from numpy import any"),
        (9, "from numpy.fft import hfft"),
    ]


def test_no_numpy_wrappers_in_library():
    assert _library_findings(_numpy_wrapper_uses) == []


def test_rule_detects_exports_without_reader():
    init = (
        "from .geometry import make_geometry, scalar_curvature\n"
        "from .variation import (\n    delta_s,\n    transport as move,\n    first_order,\n    step,\n)\n"
        "__all__ = [name for name in dir() if not name.startswith('_')]\n"
    )
    library = (
        "def delta_s(profile, path):\n    return delta_s.cache or first_order(profile, path)\n"
        "def first_order(profile, path):\n    return profile\n"
        "class step:\n    def again(self):\n        return step()\n"
        "from .geometry import scalar_curvature\n"
    )
    bench = "import calabilab as cl\ngeom = cl.make_geometry(129)\nmoved = cl.move(geom)\n"
    readers = [ast.parse(library), ast.parse(bench)]
    assert list(_exports_without_reader(ast.parse(init), readers)) == [
        (1, "scalar_curvature"), (2, "delta_s"), (2, "step"),
    ]


def test_every_export_has_a_reader():
    paths = [p for p in sorted(SRC.glob("*.py")) if p != INIT] + sorted(BENCH.glob("*.py")) + [ACCEPTANCE]
    readers = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    assert list(_exports_without_reader(ast.parse(INIT.read_text()), readers)) == []


def test_rule_detects_file_writes():
    code = (
        "import json, os\n"
        "with open(path) as fh:\n    text = fh.read()\n"
        "with open(os.path.join(out, 'a.csv'), 'w') as fh:\n    fh.write(text)\n"
        "fh = io.open(path, mode='ab')\n"
        "fh = open(path, 'r')\n"
        "os.makedirs(out, exist_ok=True)\n"
        "Path(out).mkdir()\n"
        "json.dump(report, fh, indent=2)\n"
        "text = json.dumps(report)\n"
        "Path(out, 'x').write_text(text)\n"
        "fh = Path(out).open('r+')\n"
        "fh = open(path, mode)\n"
        "from os import makedirs\n"
        "from json import dump, loads\n"
    )
    assert sorted(_file_writes(ast.parse(code))) == [
        (4, "open for 'w'"),
        (6, "open for 'ab'"),
        (8, "makedirs"),
        (9, "mkdir"),
        (10, "json.dump"),
        (12, "write_text"),
        (13, "open for 'r+'"),
        (14, "open with a computed mode"),
        (15, "from os import makedirs"),
        (16, "from json import dump"),
    ]


def test_only_serialize_writes_files():
    findings = _library_findings(_file_writes)
    assert findings, "serialize.py writes the outputs"
    assert all(f.startswith(f"{SERIALIZE.name}:") for f in findings), findings


def test_rule_detects_cached_property_uses():
    code = (
        "import functools\n"
        "from functools import cached_property\n"
        "from functools import cache, cached_property as cp\n"
        "class A:\n"
        "    @functools.cached_property\n    def x(self):\n        return 1\n"
        "    @cached_field\n    def y(self):\n        return 2\n"
        "    z = ft.cached_property(lambda self: 3)\n"
        "    @functools.cache\n    def w(self):\n        return 4\n"
    )
    assert list(_cached_property_uses(ast.parse(code))) == [
        (2, "from functools import cached_property"),
        (3, "from functools import cached_property"),
        (5, "functools.cached_property"),
        (11, "ft.cached_property"),
    ]


def test_no_cached_property_in_library():
    assert _library_findings(_cached_property_uses) == []


def _has(owner, attr: str) -> bool:
    """owner has attr, a dataclass field without a default included."""
    return hasattr(owner, attr) or attr in getattr(owner, "__dataclass_fields__", {})


def _unresolved_names(text: str, heads: dict):
    """Each dotted name in text whose head is in heads (name -> module or
    class) and whose tail does not resolve on it, attribute by attribute."""
    for match in DOTTED.finditer(text):
        head, *tail = match.group().split(".")
        if head not in heads or tail[-1] in FILE_EXTENSIONS:
            continue
        owner = heads[head]
        for attr in tail:
            if not _has(owner, attr):
                yield match.group()
                break
            owner = getattr(owner, attr, None)


def _package_heads() -> dict:
    modules = {p.stem: importlib.import_module(f"calabilab.{p.stem}") for p in SRC.glob("*.py") if p != INIT}
    classes = {name: obj for name, obj in vars(calabilab).items() if isinstance(obj, type)}
    return {**modules, **classes}


def test_rule_detects_stale_readme_names():
    text = (
        "`serialize.write_outputs` and `geometry.scalar_curvature_v2`; "
        "`MetricProfile.s`, `ProfileGeometry.grid` and `MetricProfile.x_lo`; "
        "`AffineProjector.project.real`; `variation.json` and `cli.py` are files; "
        "`grid.lo` and `np.fft.irfft` are not the package's"
    )
    assert list(_unresolved_names(text, _package_heads())) == [
        "geometry.scalar_curvature_v2", "MetricProfile.x_lo", "AffineProjector.project.real",
    ]


def test_readme_names_resolve():
    assert list(_unresolved_names(README.read_text(), _package_heads())) == []


def _refused_command_lines(text: str, parser):
    """Each `calabilab ...` line of text's sh blocks, with its line number,
    that parser refuses (argparse exits with a nonzero code)."""
    in_sh = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith(COMMAND):
            try:
                with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
                    parser.parse_args(shlex.split(line)[1:])
            except SystemExit as exc:
                if exc.code:
                    yield lineno, line


def test_rule_detects_refused_readme_commands():
    text = (
        "```sh\n"
        "calabilab solve --f exp --h id --out results/solve\n"
        "# a comment\n"
        "calabilab sweep --f exp --h-list const:1\n"
        "calabilab iterate --max 2\n"
        "calabilab variation-check --h id\n"
        "calabilab evaluate --target nan\n"
        "calabilab flip\n"
        "calabilab evaluate --help\n"
        "```\n"
        "calabilab solve --bogus 1\n"
        "```python\n"
        "calabilab solve --bogus 1\n"
        "```\n"
    )
    assert [line for line, _ in _refused_command_lines(text, build_parser())] == [4, 5, 6, 7, 8]


def test_readme_commands_parse():
    assert list(_refused_command_lines(README.read_text(), build_parser())) == []
