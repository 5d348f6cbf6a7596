"""Every exported name is reached by the package, a demo or the benchmark,
and every field of an exported dataclass is read there, so that a public
name or field only its own unit tests use does not come back.  The
package's imports kept only for perfbench's tracer do not grow, and every
error class is named outside errors.py."""
import ast
import dataclasses
import glob
import os
import re

import knncompress
from knncompress import errors

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sources() -> list[str]:
    paths = [p for p in glob.glob(os.path.join(ROOT, "src", "knncompress",
                                               "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(ROOT, "demos", "*.py"))
    paths += glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    texts = []
    for p in sorted(paths):
        with open(p) as f:
            texts.append(f.read())
    return texts


def test_every_export_is_used():
    texts = _sources()
    unused = []
    for name in knncompress.__all__:
        own_line = re.compile(rf"^\s*(?:def|class)\s+{name}\b.*$", re.M)
        use = re.compile(rf"\b{name}\b")
        if not any(use.search(own_line.sub("", t)) for t in texts):
            unused.append(name)
    assert unused == []


def test_every_exported_dataclass_field_is_read():
    texts = _sources()
    unread = []
    for name in knncompress.__all__:
        obj = getattr(knncompress, name)
        if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
            continue
        for f in dataclasses.fields(obj):
            read = re.compile(rf"\.{f.name}\b")
            if not any(read.search(t) for t in texts):
                unread.append(f"{name}.{f.name}")
    assert unread == []


# module.name of each import that a package module keeps unused, with
# "# noqa: F401", only so that perfbench/tracer.py can wrap it there; the
# list may shrink, and a test that fails because it did should shrink it
TRACER_ONLY_IMPORTS = {
    "cli.cnn_reduce", "cli.fcnn_reduce", "cli.rmhc_reduce",
    "cli.rnn_reduce", "cli.subsample",
}


def test_tracer_only_imports_do_not_grow():
    found = set()
    for path in glob.glob(os.path.join(ROOT, "src", "knncompress", "*.py")):
        module = os.path.basename(path)[:-3]
        if module == "__init__":
            continue
        with open(path) as f:
            text = f.read()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                found |= {f"{module}.{a.asname or a.name}"
                          for a in node.names}
    assert found == TRACER_ONLY_IMPORTS


def test_every_error_class_is_named_by_the_package():
    # a class whose last raiser or catcher went must go with it
    texts = []
    for path in glob.glob(os.path.join(ROOT, "src", "knncompress", "*.py")):
        if os.path.basename(path) not in ("errors.py", "__init__.py"):
            with open(path) as f:
                texts.append(f.read())
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__
               and obj is not errors.KnnCompressError]
    assert "EmptyPrototypeSet" in classes
    unnamed = [c for c in classes
               if not any(re.search(rf"\b{c}\b", t) for t in texts)]
    assert unnamed == []
