#!/usr/bin/env python3
"""Counts gapart's settable values and, with --max, fails above a ceiling.

A settable value is a data member of a struct whose name ends in ``Options``
or ``Config``, declared in a header under ``src/``:

  * a member whose type is itself a struct counts once (its own members are
    counted where that struct is declared, if it is an Options/Config);
  * member functions, constructors, ``using`` declarations, ``static``
    members, friends and nested types do not count;
  * ``int a = 0, b = 0;`` counts two.

Usage:  scripts/count_settable.py [--max N]

Prints the total.  With --max, exits 1 when the total is above N, after
listing each struct's count on stderr: a change that adds a knob raises the
ceiling in the same diff.
"""

import argparse
import re
import sys
from pathlib import Path

STRUCT_RE = re.compile(r"\bstruct\s+(\w+(?:Options|Config))\s*(?::[^{;]*)?\{")
SKIP_PREFIXES = ("using ", "static ", "friend ", "typedef ", "enum ",
                 "struct ", "class ", "template")
ACCESS_RE = re.compile(r"^(?:public|private|protected)\s*:")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, keeping braces honest."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", " ", text)
    text = re.sub(r'"(?:\\.|[^"\\])*"', '""', text)
    return re.sub(r"'(?:\\.|[^'\\])*'", "''", text)


def body_at(text: str, open_brace: int) -> str:
    """The text between the brace at `open_brace` and its match."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:i]
    raise ValueError("unbalanced braces")


def statements(body: str):
    """Top-level member declarations of a struct body.  A braced block ends
    a statement when it closes a function body (a `(` came first); braced
    initializers stay part of their declaration."""
    out, cur, depth = [], [], 0
    for ch in body:
        if depth > 0:
            depth += {"{": 1, "}": -1}.get(ch, 0)
            if depth == 0 and "(" in "".join(cur):
                out.append("".join(cur))
                cur = []
            continue
        if ch == "{":
            depth = 1
            continue
        if ch == ";":
            out.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    return [s.strip() for s in out if s.strip()]


def drop_nested(text: str, open_ch: str, close_ch: str) -> str:
    pattern = re.compile(re.escape(open_ch) + r"[^" + re.escape(open_ch) +
                         re.escape(close_ch) + r"]*" + re.escape(close_ch))
    while True:
        new = pattern.sub(" ", text)
        if new == text:
            return text
        text = new


def data_members(stmt: str) -> int:
    """Declarators a statement adds as data members (0 for anything else)."""
    stmt = " ".join(stmt.split())
    while ACCESS_RE.match(stmt):
        stmt = ACCESS_RE.sub("", stmt, count=1).strip()
    if not stmt or stmt.startswith(SKIP_PREFIXES):
        return 0
    decl = drop_nested(stmt, "<", ">")
    head = decl.split("=", 1)[0]
    if "(" in head or "operator" in head.split():
        return 0  # a function or constructor
    # Initializers no longer matter; commas left at the top level separate
    # declarators.
    decl = drop_nested(drop_nested(decl, "(", ")"), "{", "}")
    return decl.count(",") + 1


def count(src: Path):
    """(header, struct, members) for every Options/Config struct."""
    rows = []
    for header in sorted(src.rglob("*.hpp")):
        text = strip_comments_and_strings(header.read_text())
        for m in STRUCT_RE.finditer(text):
            body = body_at(text, m.end() - 1)
            n = sum(data_members(s) for s in statements(body))
            rows.append((header.relative_to(src.parent), m.group(1), n))
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max", type=int, default=None)
    args = ap.parse_args()
    rows = count(Path(__file__).resolve().parent.parent / "src")
    total = sum(n for _, _, n in rows)
    print(total)
    if args.max is not None and total > args.max:
        for header, struct, n in rows:
            print(f"{header}: {struct} {n}", file=sys.stderr)
        print(f"count_settable: {total} settable values, ceiling {args.max}",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
