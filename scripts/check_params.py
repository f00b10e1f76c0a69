#!/usr/bin/env python3
"""Fails when a SimParams field is not a setting any run can change.

SimParams (src/sim/params.h) holds what a bench, a benchmark workload or an
example varies between runs. A field that only tests assign (or that nothing
assigns) is a calibrated value of the model, and belongs beside its user as a
named constant instead. This script lists the fields of `struct SimParams`
and fails, naming each field that is not assigned anywhere under bench/,
benchmark/, examples/ or src/ (params.h itself excluded).

An assignment is `<expr>.field = ...` or `<expr>->field = ...` (designated
initializers included).

Usage: python3 scripts/check_params.py [repo_root]
"""

import pathlib
import re
import sys

SEARCH_DIRS = ("bench", "benchmark", "examples", "src")
SOURCE_SUFFIXES = {".cc", ".h", ".cpp", ".hpp"}
SKIP_DIR_NAMES = {"build", "out"}


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def simparams_fields(params_h):
    text = strip_comments(params_h.read_text())
    match = re.search(r"struct\s+SimParams\s*\{(.*?)\n\};", text, flags=re.S)
    if match is None:
        sys.exit(f"check_params: no `struct SimParams` in {params_h}")
    fields = []
    for stmt in match.group(1).split(";"):
        stmt = " ".join(stmt.split())
        if not stmt or "(" in stmt:
            continue  # Blank, or a member function.
        decl = re.match(r"^[\w:<>,\s\*&]+?\s+(\w+)\s*(?:=.*|\{.*\})?$", stmt)
        if decl:
            fields.append(decl.group(1))
    return fields


def sources(root):
    for top in SEARCH_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            if SKIP_DIR_NAMES.intersection(path.relative_to(base).parts[:-1]):
                continue
            yield path


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    params_h = root / "src" / "sim" / "params.h"
    fields = simparams_fields(params_h)
    texts = [strip_comments(p.read_text(errors="replace"))
             for p in sources(root) if p.resolve() != params_h.resolve()]
    unset = []
    for field in fields:
        assign = re.compile(r"(?:\.|->)\s*" + re.escape(field) + r"\s*=(?!=)")
        if not any(assign.search(t) for t in texts):
            unset.append(field)
    print(f"check_params: SimParams has {len(fields)} fields; "
          f"{len(fields) - len(unset)} are assigned under {', '.join(SEARCH_DIRS)}")
    for field in unset:
        print(f"  FAIL {field}: assigned nowhere outside tests/; make it a named "
              "constant beside its user")
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main())
