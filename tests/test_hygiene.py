"""Source hygiene checked with the standard library's ast: no unused
top-level import in the package's modules, no top-level function or class
that nothing references, a README Layout block that lists exactly the
package's modules, README command-line examples that the parser accepts,
and a README that names every command-line flag, each example's comment
naming only flags of its own command. The package's modules import each
other only at their top, before any definition, and without a cycle."""

import argparse
import ast
import graphlib
import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from ssdlab.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ssdlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a definition of the package may be referenced
SOURCES = sorted(p for d in ("src", "tests", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Top-level import bindings: bound name -> line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg,
                                                                         args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> set:
    """Every name the module reads, counting those inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for n in ast.walk(annotation) if annotation is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= used_names(ast.parse(n.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_used_names_count_string_annotations():
    tree = ast.parse("from x import A, B, C\n"
                     "def f(a: 'A | None') -> 'list[B]':\n    pass\n")
    assert {"A", "B"} <= used_names(tree)
    assert "C" not in used_names(tree)


def references(tree: ast.AST) -> Counter:
    """How often each name is read as a Name, an Attribute or an ImportFrom
    alias."""
    counts = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            counts.update(alias.name for alias in n.names)
    return counts


def unreferenced_definitions(modules, sources) -> list:
    """module:name of each top-level function or class of `modules` that no
    file of `sources` references outside the definition itself."""
    total = Counter()
    for path in sources:
        total += references(ast.parse(path.read_text()))
    unreferenced = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if total[node.name] == references(node)[node.name]:
                    unreferenced.append(f"{path.name}:{node.name}")
    return unreferenced


def test_every_top_level_definition_is_referenced():
    assert unreferenced_definitions(sorted(PACKAGE.glob("*.py")), SOURCES) == []


def test_a_definition_only_its_own_body_references_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def used():\n    pass\n\n"
                      "def leftover(n):\n    return leftover(n - 1) if n else used()\n\n"
                      "class Kept:\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("import m\nfrom m import Kept\n")
    assert unreferenced_definitions([module], [module, user]) == ["m.py:leftover"]


def package_modules_named(node: ast.AST, package: str, modules: set) -> set:
    """The modules of `package` (names in `modules`) that an absolute
    import names."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names
                if a.name.startswith(package + ".")} & modules
    if isinstance(node, ast.ImportFrom):
        if node.module == package:
            return {a.name for a in node.names} & modules
        if (node.module or "").startswith(package + "."):
            return {node.module.split(".")[1]} & modules
    return set()


def import_graph(paths, package: str) -> dict:
    """Each module -> the package modules its top-level imports name."""
    modules = {p.stem for p in paths}
    return {p.stem: set().union(*(package_modules_named(n, package, modules)
                                  for n in ast.parse(p.read_text()).body))
            for p in paths}


def import_cycle(graph: dict) -> list:
    """A cycle of graph, as the modules along it with the first repeated at
    the end, or [] when there is none."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as e:
        return e.args[1]
    return []


def late_package_imports(paths, package: str) -> list:
    """file:line of each import of a package module that is not at the top
    of its module: inside a function or any other block, or after the
    module's first function or class."""
    modules = {p.stem for p in paths}
    late = []
    for path in paths:
        tree = ast.parse(path.read_text())
        top, seen_definition = set(), False
        for node in tree.body:
            seen_definition |= isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if not seen_definition:
                top.add(node)
        late += [f"{path.name}:{n.lineno}"
                 for n in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0))
                 if n not in top and package_modules_named(n, package, modules)]
    return late


def test_package_imports_form_no_cycle():
    assert import_cycle(import_graph(MODULES, "ssdlab")) == []


def test_package_modules_import_each_other_only_at_the_top():
    assert late_package_imports(sorted(PACKAGE.glob("*.py")), "ssdlab") == []


def test_import_checks_report_a_cycle_and_a_late_import(tmp_path):
    files = {"a.py": "from pkg import b\nimport numpy\n",
             "b.py": "from pkg.c import f\n",
             "c.py": "def f():\n    import pkg.a\n\n\nfrom pkg.b import g\n",
             "d.py": "from pkg import a, numpy\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = sorted(tmp_path.glob("*.py"))
    graph = import_graph(paths, "pkg")
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"b"}, "d": {"a"}}
    assert sorted(import_cycle(graph)) == ["b", "b", "c"]
    assert import_cycle({**graph, "c": set()}) == []
    assert late_package_imports(paths, "pkg") == ["c.py:2", "c.py:5"]


def test_readme_layout_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Layout\n+```\n(.*?)^```", readme, re.S | re.M).group(1)
    listed = re.findall(r"^  (\w+\.py)\b", block.split("src/ssdlab/\n", 1)[1], re.M)
    assert sorted(listed) == [p.name for p in MODULES]


def readme_cli_blocks() -> list:
    """(comment, command) for each `ssdlab ...` command of the README's bash
    blocks, with its backslash continuations joined; comment is the run of
    `#` lines right above it."""
    readme = (ROOT / "README.md").read_text()
    blocks = []
    for block in re.findall(r"^```bash\n(.*?)^```", readme, re.S | re.M):
        comment = []
        for line in re.sub(r"\\\n\s*", "", block).splitlines():
            if line.startswith("#"):
                comment.append(line)
                continue
            if line.startswith("ssdlab "):
                blocks.append(("\n".join(comment), line))
            comment = []
    return blocks


def readme_cli_examples() -> list:
    return [command for _, command in readme_cli_blocks()]


def subcommand_flags() -> dict:
    """Each subcommand of build_parser() -> the option strings it defines."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in parser._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")}
            for name, parser in sub.choices.items()}


def flags_in(text: str) -> set:
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))


def test_readme_has_cli_examples():
    assert {shlex.split(c)[1] for c in readme_cli_examples()} == {
        "train", "moefy", "eval", "analyze", "export"}


@pytest.mark.parametrize("command", readme_cli_examples(),
                         ids=lambda c: c.split()[1])
def test_readme_cli_example_parses(command):
    try:
        build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit:
        pytest.fail(f"the README example does not parse: {command}")


def test_readme_names_every_cli_flag():
    documented = flags_in((ROOT / "README.md").read_text())
    missing = {name: sorted(flags - documented)
               for name, flags in subcommand_flags().items() if flags - documented}
    assert not missing, f"flags the README never names: {missing}"


@pytest.mark.parametrize("comment, command", readme_cli_blocks(),
                         ids=[c.split()[1] for _, c in readme_cli_blocks()])
def test_readme_cli_comment_names_only_its_command_flags(comment, command):
    name = shlex.split(command)[1]
    stray = flags_in(comment) - subcommand_flags()[name]
    assert not stray, f"the comment above `ssdlab {name}` names {sorted(stray)}"
