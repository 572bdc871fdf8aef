"""Whole-package checks on the source tree itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import ian
from ian.data import DATA_ENV, build_vocab, fixture_path, parse_semeval_xml
from ian.model import ROUTES, VARIANTS, ModelParams, save_checkpoint
from ian.numerics import Rng

SRC = Path(ian.__file__).parent


def _definitions(tree):
    """(qualified name, node) of each top-level function and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _name_uses(node) -> Counter:
    """How often each bare name or attribute name occurs under node."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
    return uses


def test_every_function_in_src_is_used_in_src():
    # name-based: a method counts as used when any attribute of its name is
    # read, so this misses an unused method that shares a name with a used one
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = sum((_name_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if uses[node.name] == _name_uses(node)[node.name]
    ]
    assert unused == []


def test_every_attribute_set_in_src_is_read_in_src():
    # name-based, as above: `self.X = ...` counts as read when any `.X` is
    # read anywhere in src/. argparse itself reads the parser's matcher
    stored, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.setdefault(node.attr, f"{path.stem}:{node.lineno}")
    unread = [f"{where} {name}" for name, where in stored.items()
              if name not in read and name != "_negative_number_matcher"]
    assert unread == []


def _is_record(node) -> bool:
    """A class declared with @dataclass (bare or called) or as a NamedTuple."""
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    return (any(getattr(d, "id", None) == "dataclass" for d in decorators)
            or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases))


def test_every_record_field_in_src_is_read_in_src():
    # name-based, as above: a field of a @dataclass or NamedTuple counts as
    # read when any `.field` is loaded anywhere in src/; a field that is only
    # stored or incremented there is bookkeeping that only tests can see
    declared, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_record(node):
                declared.update(
                    (f"{path.stem}.{node.name}.{item.target.id}", item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
    assert len(declared) > 20  # the check sees the records where they are
    assert [where for where, name in declared.items() if name not in read] == []


def test_only_main_writes_an_error_line_in_the_cli():
    # a subcommand fails by raising; main() writes the one line and picks
    # the exit code
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = {
        f"{node.name}:{sub.lineno}"
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        and sub.value.startswith("error:")
    }
    assert [where for where in found if not where.startswith("main:")] == []
    assert len(found) == 1  # the check sees the line where it is


def _imported_names(tree):
    """(bound name, line) of each module-level import, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_every_module_level_import_in_src_is_used():
    # a use is any bare name of the binding outside import statements,
    # annotations included; attribute access goes through the bare name
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.stem}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert unused == []


# the benchmark's per-layer trace names these; model.predict_index is already gone
BENCH_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
KNOWN_ABSENT = {("model", "predict_index")}


def test_every_benchmark_trace_target_resolves_in_the_package():
    # read, not imported: a refactor that drops a traced name would
    # otherwise only blank its per-layer rows
    tree = ast.parse(BENCH_LAYERS.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    pairs = [(row.elts[0].value, row.elts[1].value) for row in targets.elts]
    assert len(pairs) > 20
    missing = []
    for module_name, attr in pairs:
        owner = importlib.import_module(f"ian.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append((module_name, attr))
    assert set(missing) <= KNOWN_ABSENT, missing


def test_every_trainable_variant_is_a_route():
    assert set(ROUTES) == set(VARIANTS) - {"majority"}


def test_no_comparison_in_src_names_a_trainable_variant():
    # a variant is wired by its ROUTES entry, not by a test of its name
    trainable = set(VARIANTS) - {"majority"}
    found = [
        f"{path.stem}:{node.lineno} {sub.value}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and sub.value in trainable
    ]
    assert found == []


# a per-gate LSTM name of the layout before the gates were fused
PER_GATE_NAME = re.compile(r"(?<![A-Za-z0-9])(W[ifoc]_[wh]|b[ifoc])(?![A-Za-z0-9_])")


def test_per_gate_names_live_only_in_the_checkpoint_helper():
    # an LSTM's parameters are its fused W_x, W_h and b; only checkpoints
    # keep the per-gate member names, and one helper maps them
    found = {"inside": [], "outside": []}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {id(sub) for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_checkpoint_members"
                  for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            elif isinstance(node, ast.Name):
                text = node.id
            elif isinstance(node, ast.Attribute):
                text = node.attr
            elif isinstance(node, (ast.arg, ast.keyword)):
                text = node.arg or ""
            else:
                continue
            for match in PER_GATE_NAME.finditer(text):
                where = "inside" if id(node) in helper else "outside"
                found[where].append(f"{path.stem}:{node.lineno} {match.group()}")
    assert found["outside"] == []
    assert len(found["inside"]) == 12  # the check sees the names where they are


def test_uniform_init_is_the_only_uniform_draw_in_src():
    # every weight array is filled in place by one function, so no second
    # init mechanism (a fresh array copied in, a fake generator) comes back
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(sub): node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                 for sub in ast.walk(node)}
        calls += [(path.stem, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "uniform"]
    assert calls == [("numerics", "uniform_init")]


# the code a loss and its gradient run through: whole modules, or the
# functions named
LOSS_PATH = {
    "attention": None, "lstm": None, "numerics": None,
    "model": ("forward", "_features", "_classify", "backward"),
    "training": ("loss_and_grads", "_l2_term", "cross_entropy"),
}


def _non_analytic(node):
    """The non-analytic operation node is, or None."""
    if isinstance(node, ast.Attribute) and node.attr == "real":
        return ".real"
    if (isinstance(node, ast.Attribute) and node.attr in ("abs", "absolute")
            and isinstance(node.value, ast.Name) and node.value.id == "np"):
        return f"np.{node.attr}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("abs", "float"):
        return f"{node.func.id}("
    return None


def test_the_loss_path_stays_analytic():
    # gradcheck's complex step Im f(x + ih) / h is exact only while every
    # operation on the loss path is analytic; an abs, a .real or a float()
    # drops or bends the imaginary part that carries the derivative
    found = []
    for module, names in LOSS_PATH.items():
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        roots = [tree] if names is None else [
            node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names]
        assert len(roots) == (1 if names is None else len(names)), module
        found += [f"{module}:{node.lineno} {what}" for root in roots
                  for node in ast.walk(root) if (what := _non_analytic(node))]
    assert found == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # eval and predict draw no random number, so they should not pay for
    # importing numpy.random; Rng reaches it on its first call
    code = "import sys, ian.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


# what a call that runs no gradient check and draws no attention map should
# not import (or, without cached bytecode, compile)
DEFERRED = ("ian.gradcheck", "ian.viz", "html", "xml.etree.ElementTree")


def last_line_in_a_fresh_interpreter(code):
    # the calls read the bundled corpus
    env = {key: value for key, value in os.environ.items() if key != DATA_ENV}
    env["PYTHONPATH"] = str(SRC.parent)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.splitlines()[-1]


def main_in_a_fresh_interpreter(argv):
    """Run ian.cli.main(argv) in a new interpreter; returns the gc freeze
    count after importing ian.cli and after the call, and which of
    DEFERRED the interpreter has loaded by then."""
    code = (
        "import gc, sys, ian.cli\n"
        "frozen = gc.get_freeze_count()\n"
        f"assert ian.cli.main({list(argv)!r}) == 0\n"
        f"print(frozen, gc.get_freeze_count(), [m for m in {DEFERRED!r} if m in sys.modules])\n"
    )
    before, after, loaded = last_line_in_a_fresh_interpreter(code).split(" ", 2)
    return int(before), int(after), ast.literal_eval(loaded)


def fixture_checkpoint(tmp_path):
    """A small checkpoint over the bundled restaurant vocabulary, and a
    predict input file."""
    reviews, _ = parse_semeval_xml(fixture_path("restaurant", "train"))
    params = ModelParams(Rng(0), build_vocab([reviews]), variant="ian", embed_dim=3,
                         hidden_dim=3)
    checkpoint = tmp_path / "model.npz"
    save_checkpoint(str(checkpoint), params, config={"category": "restaurant"})
    lines = tmp_path / "lines.txt"
    lines.write_text("Great pizza, and I mean truly great pizza.\tpizza\n", encoding="utf-8")
    return str(checkpoint), str(lines)


def test_predict_imports_no_gradcheck_viz_or_xml(tmp_path):
    checkpoint, lines = fixture_checkpoint(tmp_path)
    _, _, loaded = main_in_a_fresh_interpreter(
        ["predict", "--checkpoint", checkpoint, "--input", lines])
    assert loaded == []


def test_eval_imports_no_gradcheck_or_viz(tmp_path):
    checkpoint, _ = fixture_checkpoint(tmp_path)
    _, _, loaded = main_in_a_fresh_interpreter(["eval", "--checkpoint", checkpoint])
    assert loaded == ["xml.etree.ElementTree"]  # eval parses the corpus XML


def test_main_freezes_what_exists_once_imports_finish(tmp_path):
    checkpoint, lines = fixture_checkpoint(tmp_path)
    before, after, _ = main_in_a_fresh_interpreter(
        ["predict", "--checkpoint", checkpoint, "--input", lines])
    assert before == 0 and after > 0


def test_main_freezes_once_per_process(tmp_path):
    # a second call in the same process must not freeze what the first
    # left behind: frozen objects are never collected
    checkpoint, lines = fixture_checkpoint(tmp_path)
    argv = ["predict", "--checkpoint", checkpoint, "--input", lines]
    code = (
        "import gc, ian.cli\n"
        "counts = []\n"
        "for _ in range(2):\n"
        f"    assert ian.cli.main({argv!r}) == 0\n"
        "    counts.append(gc.get_freeze_count())\n"
        "print(*counts)\n"
    )
    first, second = map(int, last_line_in_a_fresh_interpreter(code).split())
    assert first > 0 and second == first
