"""Every name in `src/lamit` has a reader, and so does every data file.

The check walks the package with the stdlib `ast` module.  A module-level
function, class or constant, a method, property or field of a class, and
a module-level import must each be read somewhere:

* in `src/lamit`, outside its own definition (an import only in its own
  module);
* in `bench/*.py`, also as a word inside a string, since the benchmark
  wraps some functions by name;
* in `.github/workflows/*.yml`;
* in `tests/test_acceptance.py`;
* or in `README_API`: library names read only by users, each of which
  README.md documents.

A `cmd_<sub>` function is read when `<sub>` is a subcommand of
`build_parser()`, since `main` looks it up by name.  Dunder names are
read by the interpreter, and a member that overrides one of a stdlib
base class is read by that base's callers.
"""
from __future__ import annotations

import ast
import builtins
import collections
import fnmatch
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# library names that only users read; README.md names each
README_API = ('dsp.write_wav', 'features.load_english')

# the stdlib bases that are not builtins; a subclass's override of one
# of their attributes is read by their own code (`_replace` calls `_make`)
_STDLIB_BASES = {'NamedTuple': collections.namedtuple('T', '')}
_WORD = re.compile(r'\w+')


def _words_read(tree: ast.AST, strings: bool = False):
    """(name, line) for each name, attribute or imported name `tree`
    reads, and for each string that is a whole name, as `getattr` reads
    it; with `strings`, for each word inside any string too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if strings or node.value.isidentifier():
                for word in _WORD.findall(node.value):
                    yield word, node.lineno


def _bound_names(target: ast.AST):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt)


def _assigned(stmt: ast.stmt):
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            yield from _bound_names(target)
    elif isinstance(stmt, ast.AnnAssign):
        yield from _bound_names(stmt.target)


def _imports(body):
    """The import statements of a module body, also those inside a
    module-level `if` or `try` (such as `if TYPE_CHECKING:`)."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            yield from _imports(ast.iter_child_nodes(stmt))


def _base_names(cls: ast.ClassDef) -> list[str]:
    return [ast.unparse(base) for base in cls.bases]


def _stdlib_attrs(name: str, classes: dict[str, ast.ClassDef]) -> set:
    """The attributes class `name` inherits from stdlib bases, also
    through lamit bases."""
    if name in classes:
        return set().union(*(_stdlib_attrs(base, classes)
                             for base in _base_names(classes[name])))
    if name in _STDLIB_BASES:
        return set(dir(_STDLIB_BASES[name]))
    return set(dir(getattr(builtins, name, object)))


def _overrides(classes: dict[str, ast.ClassDef]) -> dict[str, set]:
    """For each lamit class, the names a stdlib base defines in the MRO
    of the class or of a lamit class derived from it: a mixin such as
    `Checked` overrides what the NamedTuple beside it defines."""
    out = {name: set() for name in classes}

    def ancestors(name):
        found = {name}
        for base in _base_names(classes[name]):
            if base in classes:
                found |= ancestors(base)
        return found

    for name in classes:
        inherited = _stdlib_attrs(name, classes)
        for ancestor in ancestors(name):
            out[ancestor] |= inherited
    return out


def _definitions(module: str, tree: ast.Module, overrides):
    """(qualified name, name, node, own module) for each definition the
    rule covers; `own module` is set for imports, read only at home."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield f'{module}.{stmt.name}', stmt.name, stmt, False
        for name in _assigned(stmt):
            yield f'{module}.{name}', name, stmt, False
        if not isinstance(stmt, ast.ClassDef):
            continue
        for member in stmt.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [member.name]
            else:
                names = list(_assigned(member))
            for name in names:
                if name not in overrides[stmt.name]:
                    yield (f'{module}.{stmt.name}.{name}', name, member,
                           False)
    for stmt in _imports(tree.body):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == '__future__':
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split('.')[0]
            yield f'{module}: import {name}', name, stmt, True


def _subcommands(trees) -> set[str]:
    """The names given to `add_parser` calls: the CLI's subcommands."""
    return {node.args[0].value
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == 'add_parser' and node.args
            and isinstance(node.args[0], ast.Constant)}


def unread_names(root: Path) -> list[str]:
    """Each definition in `root/src/lamit` that nothing reads."""
    package = root / 'src' / 'lamit'
    trees = {path.stem: ast.parse(path.read_text('utf-8'))
             for path in sorted(package.glob('*.py'))}
    overrides = _overrides({node.name: node for tree in trees.values()
                            for node in tree.body
                            if isinstance(node, ast.ClassDef)})
    outside = {f'cmd_{sub}' for sub in _subcommands(trees.values())}
    outside |= {entry.split('.')[-1] for entry in README_API}
    for path in sorted((root / 'bench').glob('*.py')):
        tree = ast.parse(path.read_text('utf-8'))
        outside |= {word for word, _ in _words_read(tree, strings=True)}
    for path in sorted((root / '.github' / 'workflows').glob('*.yml')):
        outside |= set(_WORD.findall(path.read_text('utf-8')))
    acceptance = root / 'tests' / 'test_acceptance.py'
    outside |= {word for word, _ in
                _words_read(ast.parse(acceptance.read_text('utf-8')))}
    reads = {module: list(_words_read(tree))
             for module, tree in trees.items()}

    def read(name, node, module, own_module) -> bool:
        """Whether a module reads `name` outside `node`, its definition
        in `module`; an import counts only its own module's reads."""
        return any(word == name and (other != module or not
                                     node.lineno <= line <= node.end_lineno)
                   for other, words in reads.items()
                   if other == module or not own_module
                   for word, line in words)

    unread = []
    for module, tree in trees.items():
        for qualname, name, node, own in _definitions(module, tree,
                                                      overrides):
            dunder = name.startswith('__') and name.endswith('__')
            if not (dunder or (name in outside and not own)
                    or read(name, node, module, own)):
                unread.append(qualname)
    return unread


def unnamed_data_files(root: Path) -> list[str]:
    """Each file of `root/src/lamit/data` that no source, test or bench
    file names and that README.md names neither by its name nor by a
    backticked pattern."""
    texts = [path.read_text('utf-8')
             for folder in ('src', 'tests', 'bench')
             for path in sorted((root / folder).rglob('*.py'))]
    readme = (root / 'README.md').read_text('utf-8')
    patterns = [p for p in re.findall(r'`([^`]+)`', readme) if '*' in p]
    return [path.name
            for path in sorted((root / 'src' / 'lamit' / 'data').iterdir())
            if not any(path.name in text for text in texts + [readme])
            and not any(fnmatch.fnmatch(path.name, p) for p in patterns)]


def test_every_name_in_the_package_has_a_reader():
    assert unread_names(ROOT) == []


def test_every_data_file_is_named():
    assert unnamed_data_files(ROOT) == []


def test_readme_names_each_readme_api_entry():
    readme = (ROOT / 'README.md').read_text('utf-8')
    assert [entry for entry in README_API if entry not in readme] == []


# each plant: (module to edit, text replaced, its replacement, the names
# the check then reports)
PLANTS = {
    'function': ('config.py', '\n\ndef check_config(',
                 '\n\ndef _planted_helper():\n    return 1\n'
                 '\n\ndef check_config(',
                 ['config._planted_helper']),
    'method and field': (
        'config.py', '\n\n# the analysis bands',
        '\n    planted_field: float = 0.0\n\n'
        '    def planted_method(self):\n        return 0\n\n'
        '    @property\n    def planted_property(self):\n        return 0\n'
        '\n\n# the analysis bands',
        ['config.AnalysisConfig.planted_field',
         'config.AnalysisConfig.planted_method',
         'config.AnalysisConfig.planted_property']),
    'import': ('config.py', 'import math\n', 'import json\nimport math\n',
               ['config: import json']),
}


@pytest.fixture
def tree_copy(tmp_path) -> Path:
    """The files the checks read, copied; this test file is left out,
    since it spells the planted names."""
    for name in ('src', 'bench', '.github', 'tests'):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns(
                            '__pycache__', Path(__file__).name))
    shutil.copy(ROOT / 'README.md', tmp_path / 'README.md')
    assert unread_names(tmp_path) == []
    assert unnamed_data_files(tmp_path) == []
    return tmp_path


@pytest.mark.parametrize('plant', PLANTS)
def test_check_finds_a_planted_unread_name(tree_copy, plant):
    module, old, new, expected = PLANTS[plant]
    path = tree_copy / 'src' / 'lamit' / module
    text = path.read_text('utf-8')
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), 'utf-8')
    assert unread_names(tree_copy) == expected


def test_check_finds_a_planted_data_file_nothing_reads(tree_copy):
    (tree_copy / 'src' / 'lamit' / 'data' / 'unread.tsv').write_text('x\n')
    assert unnamed_data_files(tree_copy) == ['unread.tsv']
