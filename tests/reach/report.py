"""List the ``src/repro`` functions that no recorded process called.

Reads the ``out/reach-*.tsv`` logs that ``sitecustomize.py`` wrote while
``drive.sh`` ran the entry points, and compares them with every function
and method that ``ast`` finds under ``src/repro``.  A function nested in an
unreached one is reported with it, not on its own.  Exits 1 when

* a function is unreached and not in ``allowlist.txt``;
* an allowlist entry is reached, names no function, or gives a reason
  outside :data:`REASONS`;
* the allowlist holds more than :data:`MAX_ALLOWED` entries.

Run it through ``bash tests/reach/drive.sh``; ``python tests/reach/report.py``
alone re-reads the logs of the last drive.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Why a function may stay although no entry point calls it.
REASONS = {
    "abstract": "an abstract or protocol default that concrete classes override",
    "error-path": "an error path that rejects outside input",
}
MAX_ALLOWED = 20


def functions():
    """``(module path, qualname) -> (first line, lines, enclosing key)`` for every def."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()

        def visit(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A decorated function's code starts at its first decorator.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key = (relative, f"{prefix}{child.name}")
                    found[key] = (first, child.end_lineno - first + 1, parent)
                    visit(child, f"{prefix}{child.name}.<locals>.", key)
                else:
                    visit(child, prefix, parent)

        visit(ast.parse(path.read_text(), filename=str(path)), "", None)
    return found


def reached():
    """``{(module path, first line)}`` over every log in ``out/``."""
    calls = set()
    for log in (HERE / "out").glob("reach-*.tsv"):
        for line in log.read_text().splitlines():
            path, first, _ = line.split("\t")
            calls.add((Path(path).relative_to(SRC).as_posix(), int(first)))
    return calls


def allowlist():
    """``(module path, qualname) -> reason`` from ``allowlist.txt``."""
    entries = {}
    for line in (HERE / "allowlist.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, reason = line.split()
            module, qualname = name.split("::")
            entries[(module, qualname)] = reason
    return entries


def main() -> int:
    defs = functions()
    calls = reached()
    if not calls:
        print("no reach logs under tests/reach/out; run tests/reach/drive.sh")
        return 1
    missed = {key for key, (first, _, _) in defs.items() if (key[0], first) not in calls}
    # Report the outermost unreached function; its nested ones go with it.
    roots = {key for key in missed if defs[key][2] not in missed}
    allowed = allowlist()
    errors = []
    for key, reason in sorted(allowed.items()):
        label = "::".join(key)
        if reason not in REASONS:
            errors.append(f"{label}: allowlist reason {reason!r} is not one of {sorted(REASONS)}")
        if key not in defs:
            errors.append(f"{label}: allowlisted, but no such function")
        elif key not in missed:
            errors.append(f"{label}: allowlisted, but an entry point reaches it")
    if len(allowed) > MAX_ALLOWED:
        errors.append(f"allowlist has {len(allowed)} entries (at most {MAX_ALLOWED})")

    unreached = sorted(roots - set(allowed))
    by_module = defaultdict(int)
    for key in unreached:
        by_module[key[0]] += defs[key][1]
        errors.append(f"{'::'.join(key)}: unreached ({defs[key][1]} lines, line {defs[key][0]})")
    print(
        f"{len(defs)} functions under src/repro, {len(defs) - len(missed)} reached, "
        f"{len(allowed)} allowlisted, {len(unreached)} unreached "
        f"({sum(by_module.values())} lines)"
    )
    for module, lines in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"  {lines:5d} unreached lines in {module}")
    for error in errors:
        print(f"REACH: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
