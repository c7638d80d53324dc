"""The tracer of perfbench/layers.py patches pclie by attribute name, so a
renamed or removed binding only shows up when a traced benchmark run fails.
This checks every name it patches against the package, without installing
the tracer."""

import ast
import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_layers():
    path = os.path.join(ROOT, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pclie_module(name):
    return importlib.import_module(f"pclie.{name}")


def test_traced_names_resolve_on_the_package():
    layers = load_layers()
    for mod, attr, _ in layers.BINDINGS:
        assert callable(getattr(pclie_module(mod), attr, None)), f"{mod}.{attr}"
    for mod, cls_name, meth, _ in layers.METHODS:
        cls = getattr(pclie_module(mod), cls_name)
        assert meth in cls.__dict__, f"{mod}.{cls_name}.{meth}"
    for mod, attr, _ in layers.CACHES:
        assert hasattr(getattr(pclie_module(mod), attr), "cache_info"), f"{mod}.{attr}"


def package_imports():
    """Each import statement of a module of src/pclie, as (module name,
    node, whether it is marked noqa: F401, the names the module reads)."""
    src = os.path.join(ROOT, "src", "pclie")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            text = fh.read()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                span = lines[node.lineno - 1 : node.end_lineno]
                yield name[:-3], node, any("# noqa: F401" in line for line in span), read


def test_every_tracer_only_import_is_a_traced_binding():
    # an import kept only for the tracer is marked noqa: F401; once the
    # tracer stops wrapping that binding, the import is dead and fails here
    layers = load_layers()
    bound = {(mod, attr) for mod, attr, _ in layers.BINDINGS}
    marked = [
        (mod, alias.asname or alias.name)
        for mod, node, noqa, _ in package_imports()
        if noqa
        for alias in node.names
    ]
    assert marked
    assert [b for b in marked if b not in bound] == []


def test_every_import_is_used_or_marked_for_the_tracer():
    # a name a module imports is read in that module, or kept only for the
    # tracer and marked noqa: F401 (checked above).  The package's
    # __init__ is left out: its imports are the public names
    unused = [
        f"{mod}: {alias.asname or alias.name}"
        for mod, node, noqa, read in package_imports()
        if not noqa and mod != "__init__" and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]
    assert unused == []


def test_normal_s_word_calls_special_bracket_through_the_module_global(monkeypatch):
    # the tracer counts rules.special_bracket.calls by replacing this global
    # with a one-argument wrapper; an inlined or renamed call would read 0
    import pclie.rules as rules
    from pclie import Alphabet, LiePoly, Occurrence, Rule

    seen = []
    real = rules.special_bracket

    def counting(occ):
        seen.append(occ)
        return real(occ)

    monkeypatch.setattr(rules, "special_bracket", counting)
    al = Alphabet.from_decl("x > y")
    s = Rule(LiePoly.basis(al.word("xy")))
    # uncached, so an earlier call with the same arguments cannot hide it
    rules.normal_s_word.__wrapped__(al.word("xxyy"), s, 1)
    assert len(seen) == 1
    assert isinstance(seen[0], Occurrence)
    assert seen[0] == Occurrence(al.word("xxyy"), al.word("xy"), 1)
