"""Generate OPERATORS.md: the registry-derived operator index.

With about 200 public operators, the map IS the product for a new user (VERDICT
r3 "next round" #9): one row per ``__ray_entry__.queries()`` entry -- name,
implementing callable, oracle status, first docstring line -- generated
FROM the registry so it can never drift from it. A pytest
(tests/test_operator_index.py) regenerates and diffs, failing the suite
when an operator is added without regenerating.

Usage::

    PYTHONPATH=/root/repo python tools/gen_operator_index.py [--check]
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(REPO, "OPERATORS.md")

HEADER = """\
# Operator index

Generated from the `__ray_entry__.queries()` registry by
`tools/gen_operator_index.py` -- do not edit by hand; regenerate with
`PYTHONPATH=. python tools/gen_operator_index.py`. Every row is a callable
taking an `sf_dir` of parquet tables, reading its `documents` and/or
`embeddings` table, and returning a Ray `Dataset` / pandas frame / Arrow
table. *oracle* = the query has a registered ANSI-SQL twin in
`oracle_sql()` that DuckDB replays for row/schema/value equality (the
correctness gate); the handful without one are non-SQL-expressible and
carry a rows-only check.
"""


def build_index() -> str:
    sys.path.insert(0, REPO)
    import __ray_entry__ as em

    qs, osql = em.queries(), em.oracle_sql()
    lines = [HEADER]
    lines.append(f"\n{len(qs)} operators, {sum(1 for n in qs if n in osql)} "
                 f"with SQL oracles.\n")
    lines.append("| # | query | implementation | oracle | what it computes |")
    lines.append("|---|---|---|---|---|")
    for i, name in enumerate(sorted(qs), 1):
        fn = qs[name]
        impl = getattr(fn, "__name__", "?")
        mod = getattr(fn, "__module__", "")
        doc = (fn.__doc__ or "").strip().splitlines()
        first = next((ln.strip() for ln in doc if ln.strip()), "")
        if len(first) > 110:
            first = first[:107] + "..."
        first = first.replace("|", "\\|")
        oracle = "sql" if name in osql else "rows-only"
        lines.append(f"| {i} | `{name}` | `{mod}.{impl}` | {oracle} | {first} |")
    return "\n".join(lines) + "\n"


def main() -> int:
    text = build_index()
    if "--check" in sys.argv:
        if not os.path.exists(OUT) or open(OUT).read() != text:
            print("OPERATORS.md is stale; regenerate with "
                  "PYTHONPATH=. python tools/gen_operator_index.py",
                  file=sys.stderr)
            return 1
        print("OPERATORS.md up to date")
        return 0
    with open(OUT, "w") as f:
        f.write(text)
    print(f"wrote {OUT} ({text.count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
